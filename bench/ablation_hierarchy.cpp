// Topology ablation: flat vs CMG/node-aware hierarchical allreduce on
// the uncontended and the contended fabric, at 256 / 1536 / 4096
// simulated ranks - the canonical producer of BENCH_topology.json.
//
// Three questions, one JSON:
//
//  1. Does the node hierarchy pay?  On the uncontended endpoint-port
//     fabric it does NOT (block placement already makes the flat
//     algorithm's low-mask rounds intra-node; the hierarchy adds
//     sequential phases). On the contended fabric the picture flips
//     for bandwidth-bound sizes: 4 ranks/node means the flat algorithm
//     pushes 4x the per-link traffic of the leader phase, and hot
//     links back up.
//  2. Where is the congestion cliff?  The 1536-rank flat Gatherv
//     funnels 1535 messages into the root node's links; the contended
//     DES reports the per-link occupancy stats that price it.
//  3. What did the DES refactor buy?  Host wall-time per simulated
//     rank at 1536/4096 ranks, with the pre-refactor numbers recorded
//     alongside as the regression witness.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "core/units.hpp"
#include "imb/benchmarks.hpp"
#include "mpisim/des.hpp"
#include "mpisim/patterns.hpp"

using namespace tfx;
using namespace tfx::imb;
using namespace tfx::mpisim;

namespace {

struct scale {
  const char* name;
  torus_placement place;
};

struct gatherv_report {
  std::size_t bytes = 0;
  double uncontended_s = 0;  ///< single cold op, endpoint-port fabric
  double contended_s = 0;    ///< single cold op, link fabric
  double imb_uncontended_s = 0;  ///< steady state (IMB repetitions)
  double imb_contended_s = 0;
  link_stat_block links;
};

collective_kind kind_of(bool hier) {
  return hier ? collective_kind::hierarchical_allreduce
              : collective_kind::allreduce;
}

des_options fabric(fabric_mode mode) {
  des_options opts;
  opts.fabric = mode;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"json", "output path (default BENCH_topology.json)"},
            {"quick", "skip the 4096-rank scale (CI smoke)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  const std::string json = args.get_string("json", "BENCH_topology.json");
  const bool quick = args.has("quick");

  std::puts("Topology ablation: flat vs hierarchical allreduce across");
  std::puts("fabric models (uncontended endpoint ports vs per-link");
  std::puts("contention), 4 ranks/node throughout.\n");

  const bench_config config;
  std::vector<scale> scales;
  scales.push_back({"256 ranks  (4x4x4 x4)", torus_placement({4, 4, 4}, 4)});
  scales.push_back({"1536 ranks (4x6x16 x4)", fugaku_fig3_placement()});
  if (!quick) {
    scales.push_back(
        {"4096 ranks (8x8x16 x4)", torus_placement({8, 8, 16}, 4)});
  }
  const std::vector<std::size_t> sizes = {64, 8192, 1 << 20};

  std::vector<bench_json::value> rows;
  for (const auto& s : scales) {
    std::printf("== %s ==\n", s.name);
    table t({"bytes", "flat", "hier", "hier/flat", "flat+cont", "hier+cont",
             "hier/flat+cont"});
    const int p = s.place.rank_count();
    for (const std::size_t bytes : sizes) {
      double lat[2][2];  // [hier][contended]
      for (const bool hier : {false, true}) {
        for (const bool cont : {false, true}) {
          const auto mode =
              cont ? fabric_mode::contended : fabric_mode::uncontended;
          const auto m =
              run_collective(kind_of(hier), imb_c, config, s.place, {bytes},
                             coll_algorithm::automatic, fabric(mode));
          lat[hier][cont] = m.front().latency_s;
          rows.push_back(bench_json::object(
              {{"ranks", bench_json::integer(p)},
               {"bytes", bench_json::integer(bytes)},
               {"layout", bench_json::string(hier ? "hierarchical" : "flat")},
               {"fabric",
                bench_json::string(cont ? "contended" : "uncontended")},
               {"latency_s", bench_json::sci(m.front().latency_s)}}));
        }
      }
      t.add_row({format_bytes(bytes), format_seconds(lat[0][0]),
                 format_seconds(lat[1][0]),
                 format_fixed(lat[1][0] / lat[0][0], 2),
                 format_seconds(lat[0][1]), format_seconds(lat[1][1]),
                 format_fixed(lat[1][1] / lat[0][1], 2)});
    }
    t.print(std::cout);
    std::puts("");
  }

  // -- the congestion cliff: 1536-rank flat Gatherv -------------------
  // Every non-root rank sends its block to rank 0; dimension-ordered
  // routes funnel into the root node's six incoming links, so the
  // contended fabric shows the store-and-forward pile-up the endpoint
  // model structurally cannot.
  gatherv_report gv;
  gv.bytes = 4096;
  {
    const auto place = fugaku_fig3_placement();
    const auto prog =
        make_gatherv_program(place.rank_count(), gv.bytes / 4, 4, 0);
    gv.uncontended_s = simulate(prog, config.net, place).max_clock();
    auto res = simulate(prog, config.net, place, {}, nullptr,
                        fabric(fabric_mode::contended));
    gv.contended_s = res.max_clock();
    gv.links = res.links;
    gv.imb_uncontended_s =
        run_collective(collective_kind::gatherv, imb_c, config, place,
                       {gv.bytes})
            .front()
            .latency_s;
    gv.imb_contended_s =
        run_collective(collective_kind::gatherv, imb_c, config, place,
                       {gv.bytes}, coll_algorithm::automatic,
                       fabric(fabric_mode::contended))
            .front()
            .latency_s;
  }
  std::puts("== congestion cliff: flat Gatherv, 1536 ranks, 4 KiB/rank ==");
  std::printf("  cold op:      uncontended %s   contended %s   (%.2fx)\n",
              format_seconds(gv.uncontended_s).c_str(),
              format_seconds(gv.contended_s).c_str(),
              gv.contended_s / gv.uncontended_s);
  std::printf("  steady state: uncontended %s   contended %s   (%.2fx)\n",
              format_seconds(gv.imb_uncontended_s).c_str(),
              format_seconds(gv.imb_contended_s).c_str(),
              gv.imb_contended_s / gv.imb_uncontended_s);
  std::printf(
      "  routed %llu msgs over %llu link-hops, %llu found the link busy\n",
      static_cast<unsigned long long>(gv.links.routed_messages),
      static_cast<unsigned long long>(gv.links.link_hops),
      static_cast<unsigned long long>(gv.links.contended_hops));
  std::printf("  total queueing %s, busiest link #%d occupied %s\n",
              format_seconds(gv.links.wait_seconds).c_str(), gv.links.max_link,
              format_seconds(gv.links.max_link_busy_s).c_str());
  std::puts("  A single cold incast is bounded by the root's ejection port");
  std::puts("  in both fabrics (the sink drains 1535 x ser either way); the");
  std::puts("  cliff appears under IMB's back-to-back repetitions, where");
  std::puts("  link queues persist across iterations and the hot links near");
  std::puts("  the root, not the port, set the steady-state rate.\n");

  // -- DES host time per simulated rank (refactor witness) ------------
  // `host_s_seed` is the same build+simulate workload measured at the
  // pre-refactor commit (d50f556, Release -O2, same container class):
  // the unordered_map channel registry and per-op allocations dominated
  // above ~1k ranks.
  std::vector<bench_json::value> host;
  struct workload {
    int ranks;
    const char* name;
    coll_algorithm algo;
    std::size_t bytes;
    double seed_s;
    bool heavy;
  };
  const std::vector<workload> workloads = {
      {1536, "allreduce/rdoubling", coll_algorithm::recursive_doubling, 64,
       16.85e-3, false},
      {1536, "allreduce/rabenseifner", coll_algorithm::rabenseifner, 1 << 20,
       13.57e-3, false},
      {4096, "allreduce/rdoubling", coll_algorithm::recursive_doubling, 64,
       95.82e-3, true},
      {4096, "allreduce/rabenseifner", coll_algorithm::rabenseifner, 1 << 20,
       85.32e-3, true},
  };
  std::puts("== DES host time (build + simulate, uncontended) ==");
  table ht({"ranks", "program", "bytes", "host ms", "us/rank", "seed ms",
            "speedup"});
  for (const auto& w : workloads) {
    if (quick && w.heavy) continue;
    const torus_placement place = w.ranks == 1536
                                      ? fugaku_fig3_placement()
                                      : torus_placement({8, 8, 16}, 4);
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      stopwatch sw;
      const auto prog = make_allreduce_program(
          config.net, place.rank_count(), w.bytes / 4, 4, w.algo);
      (void)simulate(prog, config.net, place).max_clock();
      const double t = sw.seconds();
      best = rep == 0 ? t : std::min(best, t);
    }
    host.push_back(bench_json::object(
        {{"ranks", bench_json::integer(w.ranks)},
         {"program", bench_json::string(w.name)},
         {"bytes", bench_json::integer(w.bytes)},
         {"host_s", bench_json::sci(best)},
         {"host_us_per_rank", bench_json::fixed(best * 1e6 / w.ranks, 3)},
         {"host_s_seed", bench_json::sci(w.seed_s)},
         {"speedup_vs_seed", bench_json::fixed(w.seed_s / best, 2)}}));
    ht.add_row({std::to_string(w.ranks), w.name, format_bytes(w.bytes),
                format_fixed(best * 1e3, 2),
                format_fixed(best * 1e6 / w.ranks, 2),
                format_fixed(w.seed_s * 1e3, 2),
                format_fixed(w.seed_s / best, 1)});
  }
  ht.print(std::cout);


  using namespace bench_json;
  document doc;
  doc.member("bench", string("ablation_hierarchy"))
      .rows("rows", rows)
      .member("gatherv_1536",
              object({{"bytes", integer(gv.bytes)},
                      {"cold_uncontended_s", sci(gv.uncontended_s)},
                      {"cold_contended_s", sci(gv.contended_s)},
                      {"steady_uncontended_s", sci(gv.imb_uncontended_s)},
                      {"steady_contended_s", sci(gv.imb_contended_s)},
                      {"steady_slowdown",
                       fixed(gv.imb_contended_s / gv.imb_uncontended_s, 3)},
                      {"routed_messages", integer(gv.links.routed_messages)},
                      {"link_hops", integer(gv.links.link_hops)},
                      {"contended_hops", integer(gv.links.contended_hops)},
                      {"link_wait_s", sci(gv.links.wait_seconds)},
                      {"max_link_busy_s", sci(gv.links.max_link_busy_s)},
                      {"max_link", integer(gv.links.max_link)}}))
      .rows("des_host_time", host);
  return doc.write(json) ? 0 : 1;
}
