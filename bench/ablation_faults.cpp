// Ablation: what the reliability layer costs under injected chaos.
//
// A 2-rank virtual-time ping-pong (the Fig. 2 shape) runs under the
// deterministic fault plane (mpisim/faultplane.hpp) at increasing drop
// probabilities. Every drop forces a timeout-retry-backoff
// retransmission, so latency inflates with the drop rate while the
// payload stays bit-exact (tests/mpisim_fault_test). The table and
// BENCH_faults.json report the inflation ratio against the fault-free
// baseline plus the retry counters - the machine-readable trend line
// for the retry knobs in docs/FAULTS.md.
//
// Everything here is virtual time on a seeded schedule: the numbers
// are exactly reproducible on any host, and --seed replays a different
// (equally deterministic) chaos schedule.

#include <cstdio>
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

using namespace tfx;
using namespace tfx::mpisim;

namespace {

struct row {
  std::size_t bytes = 0;
  double drop = 0;
  double latency_s = 0;   ///< one-way virtual latency per message
  double inflation = 0;   ///< latency / fault-free latency at this size
  fault_stats stats;
  std::uint64_t rx_discards = 0;
};

/// Virtual-time ping-pong: `iters` round trips of `bytes` payloads.
/// Returns the one-way latency (max final clock / 2*iters) and the
/// fault report counters.
row run_pingpong(std::size_t bytes, double drop, std::uint64_t seed,
                 int iters) {
  world w(2);
  fault_config cfg;
  cfg.seed = seed;
  cfg.probs.drop = drop;
  if (drop > 0) w.set_faults(cfg);

  w.run([&](communicator& comm) {
    std::vector<std::byte> buf(bytes, std::byte{0x5a});
    for (int i = 0; i < iters; ++i) {
      if (comm.rank() == 0) {
        comm.send_bytes(buf, 1, 0);
        comm.recv_bytes(buf, 1, 0);
      } else {
        comm.recv_bytes(buf, 0, 0);
        comm.send_bytes(buf, 0, 0);
      }
    }
  });

  row r;
  r.bytes = bytes;
  r.drop = drop;
  const double clock =
      std::max(w.final_clocks()[0], w.final_clocks()[1]);
  r.latency_s = clock / (2.0 * iters);
  if (drop > 0) {
    r.stats = w.last_fault_report().stats;
    r.rx_discards = w.last_fault_report().rx_discards;
  }
  return r;
}

bench_json::value to_json(const row& r) {
  using namespace bench_json;
  return object({{"bytes", integer(r.bytes)}, {"drop", fixed(r.drop, 3)},
                 {"latency_s", sci(r.latency_s)},
                 {"inflation", fixed(r.inflation, 4)},
                 {"sends", integer(r.stats.sends)},
                 {"attempts", integer(r.stats.attempts)},
                 {"retries", integer(r.stats.retries)},
                 {"drops", integer(r.stats.drops)},
                 {"rx_discards", integer(r.rx_discards)}});
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"iters", "round trips per configuration (default 200)"},
            {"seed", "fault-plane seed (default 1)"},
            {"json", "output path (default BENCH_faults.json)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  const int iters = static_cast<int>(args.get_int("iters", 200));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string json = args.get_string("json", "BENCH_faults.json");

  std::puts("Ablation: retry-backoff latency inflation under message loss.");
  std::puts("2-rank virtual-time ping-pong; payloads stay bit-exact, the");
  std::puts("drop rate only buys retransmissions (seeded, replayable).");

  const std::size_t sizes[] = {64, 1024, 16 * 1024, 256 * 1024};
  const double drops[] = {0.0, 0.01, 0.05, 0.1, 0.2};

  std::vector<bench_json::value> rows;
  table t({"bytes", "drop", "latency", "inflation", "retries/msg",
           "attempts"});
  for (const std::size_t bytes : sizes) {
    double base = 0;
    for (const double drop : drops) {
      row r = run_pingpong(bytes, drop, seed, iters);
      if (drop == 0.0) base = r.latency_s;
      r.inflation = r.latency_s / base;
      const double rpm =
          r.stats.sends > 0 ? static_cast<double>(r.stats.retries) /
                                  static_cast<double>(r.stats.sends)
                            : 0.0;
      t.add_row({format_bytes(r.bytes), format_fixed(drop, 2),
                 format_seconds(r.latency_s), format_fixed(r.inflation, 3),
                 format_fixed(rpm, 3),
                 std::to_string(r.stats.attempts)});
      rows.push_back(to_json(r));
    }
  }
  t.print(std::cout);

  bench_json::document doc;
  doc.member("bench", bench_json::string("ablation_faults"))
      .member("seed", bench_json::integer(seed))
      .member("iters", bench_json::integer(iters))
      .rows("rows", rows);
  return doc.write(json) ? 0 : 1;
}
