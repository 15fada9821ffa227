// Ablation: what batched member stepping buys the ensemble engine.
//
// The same workload — N identical-shape Float64 members integrated for
// a fixed number of RK4 steps — runs two ways:
//
//   batched        the service: all members submitted up front, grouped
//                  into one (personality, shape) batch, carved into
//                  tiles (priced off the arch model's L2 via
//                  kernels::problems_per_tile) that the thread pool
//                  claims concurrently, `stride` consecutive steps per
//                  tile for temporal cache reuse, and ONE batched
//                  RK4-apply dispatch per tile and step
//                  (kernels::sweeps::rk4_update_batched).
//   one-at-a-time  the ablation baseline: submit a member, wait for it,
//                  submit the next — each member runs alone, the way a
//                  naive driver loops over scenario configs. A single
//                  48x24 member is far too small to parallelize
//                  internally (the whole point of batching across
//                  problems, PR 6), so the pool idles — and every
//                  member-step still pays a full scheduling round
//                  (claim rebuild + pool fan-out/join), where the
//                  batched mode pays one round per tile x stride
//                  member-steps.
//
// Both modes are bit-identical per member by construction (the
// engine's oracle test suite pins this), so the only thing this bench
// measures is throughput: member-steps per second vs ensemble size,
// and vs the forced tile size at a fixed ensemble. Both modes get the
// SAME thread pool — the batched win is the service argument:
// members-in-flight are the parallelism (tile claims keep every worker
// fed no matter how uniform the ensemble is), and the per-round
// scheduling cost amortizes across the whole batch instead of landing
// on every single member-step. The tile sweep isolates the
// tile-granularity knob alone at a fixed thread count.
//
// BENCH_ensemble.json carries the machine-readable rows.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "ensemble/engine.hpp"

using namespace tfx;
using namespace tfx::ensemble;

namespace {

member_config bench_member(int steps, std::uint64_t seed) {
  member_config cfg;
  cfg.prec = personality::float64;
  cfg.nx = 48;
  cfg.ny = 24;
  cfg.steps = steps;
  cfg.seed = seed;
  return cfg;
}

/// Batched mode: submit everything, then drain the engine.
double run_batched(engine_options opts, int members, int steps) {
  opts.async = false;
  opts.max_members = static_cast<std::size_t>(members);
  engine eng(opts);
  for (int m = 0; m < members; ++m) {
    if (!eng.submit(bench_member(steps, 100 + static_cast<std::uint64_t>(m)))
             .ok()) {
      std::fprintf(stderr, "submit rejected at member %d\n", m);
      return 0;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  eng.wait_all();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(members) * steps / secs;
}

/// One-at-a-time mode: each member is submitted alone and drained to
/// completion before the next is admitted — one member in flight. Its
/// batched apply covers that member's three fields alone, the kernels
/// its own step_apply() runs, in the same order.
double run_one_at_a_time(engine_options opts, int members, int steps) {
  opts.async = false;
  opts.tile_members = 1;
  opts.stride = 1;
  engine eng(opts);
  const auto t0 = std::chrono::steady_clock::now();
  for (int m = 0; m < members; ++m) {
    const auto ticket =
        eng.submit(bench_member(steps, 100 + static_cast<std::uint64_t>(m)));
    if (!ticket.ok()) {
      std::fprintf(stderr, "submit rejected at member %d\n", m);
      return 0;
    }
    eng.wait(ticket.id);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(members) * steps / secs;
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"steps", "RK4 steps per member (default 24)"},
            {"threads", "engine threads, both modes (default 2)"},
            {"json", "output path (default BENCH_ensemble.json)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 0;
  }
  const int steps = static_cast<int>(args.get_int("steps", 24));
  const int threads = static_cast<int>(args.get_int("threads", 2));
  const std::string json = args.get_string("json", "BENCH_ensemble.json");

  engine_options batched;
  batched.threads = threads;

  std::size_t priced_tile = 0;
  {
    engine probe(batched);
    priced_tile = probe.tile_members_for(bench_member(steps, 0));
  }
  std::printf("48x24 Float64 members, %d steps each, %d thread%s; "
              "L2-priced tile: %zu members\n\n",
              steps, threads, threads == 1 ? "" : "s", priced_tile);

  std::vector<bench_json::value> scaling;
  table t({"members", "batched Msteps/s", "1-at-a-time Msteps/s", "speedup"});
  for (const int members : {8, 16, 32, 64, 128, 256}) {
    const double batched_sps = run_batched(batched, members, steps);
    const double serial_sps = run_one_at_a_time(batched, members, steps);
    const double speedup = batched_sps / serial_sps;
    scaling.push_back(bench_json::object(
        {{"members", bench_json::integer(members)},
         {"tile", bench_json::integer(priced_tile)},
         {"batched_member_steps_per_s", bench_json::sci(batched_sps)},
         {"one_at_a_time_member_steps_per_s", bench_json::sci(serial_sps)},
         {"batched_speedup", bench_json::fixed(speedup, 4)}}));
    t.add_row({std::to_string(members), format_fixed(batched_sps / 1e6, 3),
               format_fixed(serial_sps / 1e6, 3), format_fixed(speedup, 3)});
  }
  t.print(std::cout);

  // Forced tile sizes at a fixed ensemble: the tile-granularity knob
  // alone (all members in flight, stride and batched apply at their
  // defaults). Small tiles feed more workers; large tiles amortize
  // more apply dispatches — the priced tile is the model's bet.
  const int fixed_members = 128;
  std::vector<bench_json::value> tiles;
  table t2({"tile", "Msteps/s", "speedup vs tile 1"});
  double tile1_sps = 0;
  for (const std::size_t tile : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}, std::size_t{8},
                                 std::size_t{16}, std::size_t{32},
                                 std::size_t{64}, priced_tile}) {
    engine_options opts = batched;
    opts.tile_members = tile;
    const double sps = run_batched(opts, fixed_members, steps);
    if (tile == 1) tile1_sps = sps;
    const double speedup = tile1_sps > 0 ? sps / tile1_sps : 0;
    tiles.push_back(bench_json::object(
        {{"tile", bench_json::integer(tile)},
         {"member_steps_per_s", bench_json::sci(sps)},
         {"speedup_vs_tile1", bench_json::fixed(speedup, 4)}}));
    t2.add_row({std::to_string(tile) + (tile == priced_tile ? " (priced)" : ""),
                format_fixed(sps / 1e6, 3), format_fixed(speedup, 3)});
  }
  std::puts("");
  t2.print(std::cout);

  bench_json::document doc;
  doc.member("bench", bench_json::string("ablation_ensemble"))
      .member("grid", bench_json::string("48x24 Float64"))
      .member("steps", bench_json::integer(steps))
      .member("threads", bench_json::integer(threads))
      .rows("scaling", scaling)
      .rows("tile_sweep", tiles);
  return doc.write(json) ? 0 : 1;
}
