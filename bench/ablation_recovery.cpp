// Ablation: what rollback recovery costs in virtual time.
//
// A 4-rank distributed shallow-water run (swm/distributed.hpp) executes
// under the resilience session (swm/resilience.hpp) while the fault
// plane kills ranks. The sweep crosses the buddy-checkpoint interval K
// with the number of injected crashes and reports the virtual-clock
// inflation against the unprotected step loop, plus the
// replay/commit/round counters. Crashes are aimed by commit window
// (mid_window_send over a probe run's commit marks): rank 1 halfway
// through the first window of the crash-free run, then rank 0 halfway
// through the last window of the run that carries rank 1's crash.
// Every recovered run is checked bit-identical to the fault-free
// oracle, and every scheduled crash must have fired, before its row
// is printed - a row in the table doubles as a correctness witness.
//
// Checkpoint commits and recovery transfers ride the same LogGP-costed
// channels as the halo exchange, so the overhead column is the real
// virtual-time price of protection (the recovery board itself is
// control plane only and costs nothing). Everything is seeded and
// exactly reproducible on any host; BENCH_recovery.json carries the
// machine-readable trend line for docs/RESILIENCE.md.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "mpisim/faultplane.hpp"
#include "mpisim/runtime.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"
#include "swm/resilience.hpp"

using namespace tfx;
using namespace tfx::swm;

namespace {

constexpr int kRanks = 4;

struct row {
  int interval = 0;       ///< checkpoint interval K (steps)
  int crashes = 0;        ///< scheduled rank crashes
  std::vector<int> fired;  ///< ranks whose crash fired, in order of death
  double clock_s = 0;     ///< max final virtual clock
  double overhead = 0;    ///< clock / unprotected baseline clock
  int replayed = 0;       ///< max steps re-executed on any rank
  std::uint64_t commits = 0;  ///< committed checkpoint epochs
  int rounds = 0;             ///< completed recovery rounds
  bool identical = false;     ///< final state bit-matches the oracle
};

swm_params bench_params() {
  swm_params p;
  p.nx = 32;
  p.ny = 16;
  return p;
}

state<double> initial_state(const swm_params& p) {
  model<double> m(p);
  m.seed_random_eddies(7, 0.5);
  return m.prognostic();
}

struct run_out {
  std::vector<std::vector<double>> packed;  ///< per-rank pack_state()
  std::vector<recovery_report> reports;     ///< per rank (resilient runs)
  double clock_s = 0;
  int replayed = 0;
  std::uint64_t commits = 0;
  int rounds = 0;
};

/// Unprotected plain run: no fault plane, no session. The baseline and
/// the bit-exactness oracle.
run_out plain_run(const swm_params& params, int steps) {
  const auto init = initial_state(params);
  run_out out;
  out.packed.resize(kRanks);
  mpisim::world w(kRanks);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    dm.run(steps);
    auto& mine = out.packed[static_cast<std::size_t>(comm.rank())];
    mine.resize(dm.packed_size());
    dm.pack_state(std::span<double>(mine));
  });
  const auto& clocks = w.final_clocks();
  out.clock_s = *std::max_element(clocks.begin(), clocks.end());
  return out;
}

/// Resilient run under `crashes`. The fault plane is always active (a
/// sentinel event no rank ever reaches), so a run without crashes
/// isolates pure checkpoint overhead. Each run's commit marks aim the
/// next crash of the schedule (next_crash).
run_out resilient_run(const swm_params& params, int steps, int interval,
                      const std::vector<mpisim::crash_event>& crashes,
                      std::uint64_t seed) {
  const auto init = initial_state(params);
  mpisim::fault_config cfg;
  cfg.seed = seed;
  cfg.crashes = {{0, std::uint64_t{1} << 40}};  // plane-activating sentinel
  cfg.crashes.insert(cfg.crashes.end(), crashes.begin(), crashes.end());

  resilience_options opt;
  opt.checkpoint_interval = interval;

  run_out out;
  out.packed.resize(kRanks);
  out.reports.resize(kRanks);
  mpisim::world w(kRanks);
  w.set_faults(cfg);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    const auto r = static_cast<std::size_t>(comm.rank());
    out.reports[r] = run_resilient(comm, dm, steps, opt);
    out.packed[r].resize(dm.packed_size());
    dm.pack_state(std::span<double>(out.packed[r]));
  });
  for (const recovery_report& rep : out.reports) {
    out.replayed = std::max(out.replayed, rep.replayed_steps);
    out.rounds = std::max(out.rounds, rep.rounds);
  }
  out.commits = out.reports[0].commits;
  const auto& clocks = w.final_clocks();
  out.clock_s = *std::max_element(clocks.begin(), clocks.end());
  return out;
}

/// Crash `n` (0-based) of the schedule, aimed over `probe`, the run
/// that carries crashes 0..n-1: the recovery round and the replay of
/// an earlier crash move every later send. Crash 0 is rank 1 halfway
/// through the first commit window, crash 1 rank 0 halfway through the
/// last full one.
mpisim::crash_event next_crash(const run_out& probe, int n) {
  if (n == 0) return {1, mid_window_send(probe.reports[1], 0)};
  const recovery_report& rank0 = probe.reports[0];
  return {0, mid_window_send(rank0, rank0.commit_marks.size() - 2)};
}

/// The ranks that died, in order, separated by commas.
std::string joined(const std::vector<int>& ranks) {
  std::string out;
  for (const int r : ranks) {
    if (!out.empty()) out += ',';
    out += std::to_string(r);
  }
  return out;
}

bool bit_identical(const run_out& got, const run_out& want) {
  for (int r = 0; r < kRanks; ++r) {
    const auto& a = got.packed[static_cast<std::size_t>(r)];
    const auto& b = want.packed[static_cast<std::size_t>(r)];
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bench_json::value to_json(const row& r) {
  using namespace bench_json;
  return object({{"interval", integer(r.interval)},
                 {"crashes", integer(r.crashes)},
                 {"fired", integer_list(r.fired)},
                 {"clock_s", sci(r.clock_s)},
                 {"overhead", fixed(r.overhead, 4)},
                 {"replayed_steps", integer(r.replayed)},
                 {"commits", integer(r.commits)}, {"rounds", integer(r.rounds)},
                 {"bit_identical", boolean(r.identical)}});
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"steps", "model steps per run (default 20)"},
            {"seed", "fault-plane seed (default 1)"},
            {"json", "output path (default BENCH_recovery.json)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  const int steps = static_cast<int>(args.get_int("steps", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string json = args.get_string("json", "BENCH_recovery.json");

  std::puts("Ablation: buddy-checkpoint and rollback-recovery overhead.");
  std::puts("4-rank shallow-water run in virtual time; crashes aimed by");
  std::puts("commit window; every row is verified bit-identical to the");
  std::puts("fault-free oracle, with every scheduled crash fired, before");
  std::puts("it is printed.");

  const swm_params params = bench_params();
  const run_out oracle = plain_run(params, steps);

  const int intervals[] = {2, 5, 10};
  const int max_crashes = 2;

  std::vector<bench_json::value> rows;
  table t({"K", "crashes", "fired", "clock", "overhead", "replayed",
           "commits", "rounds", "bit-identical"});
  for (const int interval : intervals) {
    if (steps < 2 * interval) {
      std::fprintf(stderr, "--steps %d leaves K=%d fewer than two commit "
                   "windows to aim crashes at\n", steps, interval);
      return 1;
    }
    std::vector<mpisim::crash_event> schedule;
    run_out got = resilient_run(params, steps, interval, schedule, seed);
    for (int crashes = 0; crashes <= max_crashes; ++crashes) {
      if (crashes > 0) {
        schedule.push_back(next_crash(got, crashes - 1));
        got = resilient_run(params, steps, interval, schedule, seed);
      }
      row r;
      r.interval = interval;
      r.crashes = crashes;
      r.fired = got.reports[0].casualties;
      r.clock_s = got.clock_s;
      r.overhead = got.clock_s / oracle.clock_s;
      r.replayed = got.replayed;
      r.commits = got.commits;
      r.rounds = got.rounds;
      r.identical = bit_identical(got, oracle);
      t.add_row({std::to_string(r.interval), std::to_string(r.crashes),
                 r.fired.empty() ? "-" : joined(r.fired),
                 format_seconds(r.clock_s),
                 format_fixed(r.overhead, 3),
                 std::to_string(r.replayed), std::to_string(r.commits),
                 std::to_string(r.rounds), r.identical ? "yes" : "NO"});
      rows.push_back(to_json(r));
      if (!r.identical ||
          r.fired.size() != static_cast<std::size_t>(r.crashes)) {
        std::fprintf(stderr, "FATAL: K=%d crashes=%d %s\n", r.interval,
                     r.crashes,
                     r.identical ? "did not all fire"
                                 : "diverged from the oracle");
        t.print(std::cout);
        return 1;
      }
    }
  }
  t.print(std::cout);
  bench_json::document doc;
  doc.member("bench", bench_json::string("ablation_recovery"))
      .member("ranks", bench_json::integer(kRanks))
      .member("seed", bench_json::integer(seed))
      .member("steps", bench_json::integer(steps))
      .rows("rows", rows);
  return doc.write(json) ? 0 : 1;
}
