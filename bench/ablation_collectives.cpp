// Ablation (design choice, DESIGN.md): Allreduce algorithm selection.
// Recursive doubling costs log2(P) rounds of the full buffer; the ring
// moves 2(P-1)/P of the buffer in 2(P-1) small rounds; Rabenseifner
// (reduce-scatter + allgather by recursive halving/doubling) moves
// the same bytes in 2 log2(P) rounds. The automatic policy runs
// recursive doubling up to allreduce_ring_threshold (8 KiB) and
// Rabenseifner above; this bench shows why, at both a small and the
// Fig. 3 rank count.
//
// A second section is the wider IMB suite over the same fabric: every
// collective the library implements, at 64 and 1536 ranks, both
// harness personalities, three representative message sizes - a
// compact overview next to the per-figure deep dives (fig2/fig3).

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/table.hpp"
#include "core/units.hpp"
#include "imb/benchmarks.hpp"
#include "mpisim/des.hpp"
#include "mpisim/patterns.hpp"

using namespace tfx;
using namespace tfx::mpisim;

namespace {

void panel(const torus_placement& place) {
  const tofud_params net;
  const int p = place.rank_count();
  std::printf("\n== Allreduce algorithms at %d ranks ==\n", p);
  table t({"bytes", "rdoubling", "ring", "rabenseifner", "reduce+bcast",
           "winner"});
  for (unsigned e = 2; e <= 24; e += 2) {
    const std::size_t bytes = std::size_t{1} << e;
    const std::size_t count = bytes / 4;
    const double rd =
        simulate(make_allreduce_program(net, p, count, 4,
                                        coll_algorithm::recursive_doubling),
                 net, place)
            .max_clock();
    const double ring =
        simulate(make_allreduce_program(net, p, count, 4,
                                        coll_algorithm::ring),
                 net, place)
            .max_clock();
    const double rab =
        simulate(make_allreduce_program(net, p, count, 4,
                                        coll_algorithm::rabenseifner),
                 net, place)
            .max_clock();
    // reduce + bcast, the naive composition.
    auto reduce_prog = make_reduce_program(net, p, count, 4, 0);
    auto clocks = simulate(reduce_prog, net, place).clocks;
    const double rb =
        simulate(make_bcast_program(p, count, 4, 0), net, place,
                 std::move(clocks))
            .max_clock();
    const double best = std::min({rd, ring, rab, rb});
    const char* winner = best == rd     ? "rdoubling"
                         : best == rab  ? "rabenseifner"
                         : best == ring ? "ring"
                                        : "reduce+bcast";
    t.add_row({format_bytes(bytes), format_seconds(rd), format_seconds(ring),
               format_seconds(rab), format_seconds(rb), winner});
  }
  t.print(std::cout);
}

const char* kind_name(imb::collective_kind k) {
  switch (k) {
    case imb::collective_kind::allreduce: return "Allreduce";
    case imb::collective_kind::reduce: return "Reduce";
    case imb::collective_kind::gatherv: return "Gatherv";
    case imb::collective_kind::bcast: return "Bcast";
    case imb::collective_kind::barrier: return "Barrier";
    case imb::collective_kind::allgather: return "Allgather";
    case imb::collective_kind::hierarchical_allreduce: return "HierAllreduce";
  }
  return "?";
}

void imb_suite(const torus_placement& place) {
  using namespace tfx::imb;
  const bench_config config;
  std::printf("\n== IMB suite at %d ranks (%d nodes) ==\n",
              place.rank_count(), place.node_count());
  const std::vector<std::size_t> sizes{64, 16 * 1024, 1024 * 1024};
  table t({"benchmark", "64 B (jl)", "64 B (imb)", "16 KiB (jl)",
           "16 KiB (imb)", "1 MiB (jl)", "1 MiB (imb)"});
  for (const auto kind :
       {collective_kind::allreduce, collective_kind::reduce,
        collective_kind::bcast, collective_kind::gatherv,
        collective_kind::allgather, collective_kind::barrier}) {
    const auto jl = run_collective(kind, mpi_jl, config, place, sizes);
    const auto ic = run_collective(kind, imb_c, config, place, sizes);
    t.add_row({kind_name(kind), format_seconds(jl[0].latency_s),
               format_seconds(ic[0].latency_s),
               format_seconds(jl[1].latency_s),
               format_seconds(ic[1].latency_s),
               format_seconds(jl[2].latency_s),
               format_seconds(ic[2].latency_s)});
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  std::puts("Ablation: collective algorithm choice (DES, TofuD model).");
  std::puts("Expected: recursive doubling wins for small messages (latency");
  std::puts("bound), Rabenseifner for large (bandwidth bound, few rounds);");
  std::puts("the plain ring pays 2(P-1) latencies and the naive");
  std::puts("reduce+bcast composition never wins.");
  panel(torus_placement::line(64));
  panel(torus_placement({4, 6, 16}, 4));  // the Fig. 3 allocation

  std::puts("\nIMB-style suite, MPI.jl vs IMB (C) personalities.");
  imb_suite(torus_placement({4, 4, 4}, 1));  // 64 ranks
  imb_suite(imb::fugaku_fig3_placement());   // 1536 ranks (Fig. 3)
  std::puts("\n(Barrier moves no payload, so its columns are size-"
            "independent.)");
  return 0;
}
