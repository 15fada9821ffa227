// Ablation: what the channel layer costs in *wall-clock* time.
//
// Virtual time is a transport property the transport layer must NOT
// have: the same program over the shm channel store or real loopback
// TCP produces identical virtual clocks and bit-identical payloads
// (tests/mpisim_transport_test enforces this against recorded golden
// hashes). What differs is the host-side cost of moving the bytes.
// This ablation measures it per transport:
//
//   setup    - world construction (socket: the full TCP mesh handshake)
//   latency  - 8-byte ping-pong one-way wall latency between 2 ranks
//   bandwidth- 1 MiB ping-pong effective one-way bandwidth
//   allreduce- 32 KiB ring allreduce across 4 ranks, wall per op
//   swm      - wall ms per step of the 4-rank shallow-water model
//
// Every transport's SWM run is diffed bitwise against the shm run and
// the virtual clocks are compared exactly, so each row in the table
// doubles as a conformance witness. Timing happens inside the rank
// lambdas (rank 0's stopwatch, after a warm-up exchange), so thread
// spawn and handshake are excluded from the per-op numbers and
// reported once in the setup column.
//
// The in-process mailbox transport ("simulated") that preceded shm as
// the default is gone; its last measured row is frozen below and
// written to BENCH_transport.json unchanged as `frozen_rows`.

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
#include "core/timer.hpp"
#include "core/units.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/transport.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"

using namespace tfx;
using namespace tfx::mpisim;

namespace {

constexpr int kRanks = 4;

struct row {
  std::string name;
  double setup_s = 0;      ///< world construction (handshake) wall time
  double latency_s = 0;    ///< 8 B one-way p2p latency
  double bandwidth = 0;    ///< 1 MiB one-way bandwidth, bytes/s
  double allreduce_s = 0;  ///< 32 KiB 4-rank allreduce, wall per op
  double swm_step_s = 0;   ///< 4-rank SWM, wall per step
  bool identical = false;  ///< SWM state bit-matches the shm run
  bool vclock = false;     ///< virtual clocks equal the shm run's exactly
};

/// The retired mailbox transport, as this bench last measured it (one
/// sample, 4-core AVX-512 Xeon guest, Release); not regenerated.
const row frozen_rows[] = {
    {"simulated", 4.113000e-06, 9.308298e-07, 9.669969e+09, 2.915710e-05,
     1.112600e-04, true, true},
};

transport_options topt_for(transport_kind kind) {
  transport_options topt;
  topt.kind = kind;
  return topt;
}

/// Two ranks bounce a `bytes`-sized message `reps` times; returns the
/// one-way wall time per message measured on rank 0.
double pingpong(transport_kind kind, std::size_t bytes, int reps) {
  world w(2, {}, topt_for(kind));
  double one_way = 0;
  w.run([&](communicator& comm) {
    std::vector<std::byte> buf(bytes, std::byte{0x2a});
    const int peer = 1 - comm.rank();
    // Warm-up round: page in buffers, prime the TCP window.
    if (comm.rank() == 0) {
      comm.send_bytes(std::span<const std::byte>(buf), peer, 0);
      comm.recv_bytes(std::span<std::byte>(buf), peer, 0);
    } else {
      comm.recv_bytes(std::span<std::byte>(buf), peer, 0);
      comm.send_bytes(std::span<const std::byte>(buf), peer, 0);
    }
    stopwatch sw;
    for (int i = 0; i < reps; ++i) {
      if (comm.rank() == 0) {
        comm.send_bytes(std::span<const std::byte>(buf), peer, 1);
        comm.recv_bytes(std::span<std::byte>(buf), peer, 1);
      } else {
        comm.recv_bytes(std::span<std::byte>(buf), peer, 1);
        comm.send_bytes(std::span<const std::byte>(buf), peer, 1);
      }
    }
    if (comm.rank() == 0) {
      one_way = sw.seconds() / (2.0 * static_cast<double>(reps));
    }
  });
  return one_way;
}

/// `reps` chained 32 KiB allreduces over `kRanks` ranks; wall per op.
double allreduce_wall(world& w, int reps) {
  constexpr std::size_t count = 4096;  // 32 KiB of doubles
  double per_op = 0;
  w.run([&](communicator& comm) {
    std::vector<double> in(count);
    std::vector<double> res(count);
    for (std::size_t i = 0; i < count; ++i) {
      in[i] = (comm.rank() + 1) * 0.5 + static_cast<double>(i) * 0.01;
    }
    allreduce(comm, std::span<const double>(in), std::span<double>(res),
              ops::sum{});  // warm-up
    stopwatch sw;
    for (int i = 0; i < reps; ++i) {
      allreduce(comm, std::span<const double>(in), std::span<double>(res),
                ops::sum{});
    }
    if (comm.rank() == 0) per_op = sw.seconds() / reps;
  });
  return per_op;
}

swm::swm_params bench_params() {
  swm::swm_params p;
  p.nx = 64;
  p.ny = 32;
  return p;
}

struct swm_out {
  std::vector<std::vector<double>> packed;  ///< per-rank pack_state()
  std::vector<double> clocks;               ///< final virtual clocks
  double per_step_s = 0;                    ///< rank-0 wall per step
};

/// 4-rank distributed SWM under the given transport; the packed state
/// and virtual clocks are the conformance evidence, the rank-0 wall
/// time per step is the measurement.
swm_out swm_run(world& w, const swm::state<double>& init, int steps) {
  const swm::swm_params params = bench_params();
  swm_out out;
  out.packed.resize(static_cast<std::size_t>(kRanks));
  w.run([&](communicator& comm) {
    swm::distributed_model<double> dm(comm, params,
                                      swm::integration_scheme::compensated);
    dm.set_from_global(init);
    dm.run(1);  // warm-up step
    stopwatch sw;
    dm.run(steps);
    const double wall = sw.seconds();
    auto& mine = out.packed[static_cast<std::size_t>(comm.rank())];
    mine.resize(dm.packed_size());
    dm.pack_state(std::span<double>(mine));
    if (comm.rank() == 0) out.per_step_s = wall / steps;
  });
  out.clocks = w.final_clocks();
  return out;
}

bool bit_identical(const swm_out& got, const swm_out& want) {
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
  return object({{"transport", string(r.name)}, {"setup_s", sci(r.setup_s)},
                 {"p2p_latency_s", sci(r.latency_s)},
                 {"p2p_bandwidth_Bps", sci(r.bandwidth)},
                 {"allreduce_s", sci(r.allreduce_s)},
                 {"swm_step_s", sci(r.swm_step_s)},
                 {"bit_identical", boolean(r.identical)},
                 {"vclock_equal", boolean(r.vclock)}});
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"steps", "SWM steps per timed run (default 10)"},
            {"reps", "ping-pong repetitions (default 2000)"},
            {"json", "output path (default BENCH_transport.json)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  const int steps = static_cast<int>(args.get_int("steps", 10));
  const int reps = static_cast<int>(args.get_int("reps", 2000));
  const std::string json = args.get_string("json", "BENCH_transport.json");

  std::puts("Ablation: host-side cost of the pluggable channel layer.");
  std::puts("Same program over every transport; payloads and virtual");
  std::puts("clocks must agree bitwise - only the wall clock may differ.\n");

  std::vector<transport_kind> kinds = {transport_kind::shm};
  if (transport_manager::loopback_available()) {
    kinds.push_back(transport_kind::socket);
  } else {
    std::puts("note: loopback TCP unavailable in this sandbox - the socket");
    std::puts("row is omitted.");
  }

  swm::model<double> seeder(bench_params());
  seeder.seed_random_eddies(11, 0.5);
  const swm::state<double> init = seeder.prognostic();

  std::vector<bench_json::value> rows;
  swm_out oracle;
  table t({"transport", "setup", "p2p 8B", "p2p 1MiB GB/s",
           "allreduce 32KiB", "swm ms/step", "bit-identical", "vclock"});
  for (const transport_kind kind : kinds) {
    row r;
    r.name = transport_manager::name_of(kind);

    stopwatch setup;
    world w(kRanks, {}, topt_for(kind));
    r.setup_s = setup.seconds();

    constexpr std::size_t mib = 1 << 20;
    r.latency_s = pingpong(kind, 8, reps);
    const double big = pingpong(kind, mib, std::max(reps / 10, 20));
    r.bandwidth = static_cast<double>(mib) / big;
    r.allreduce_s = allreduce_wall(w, std::max(reps / 10, 20));

    const swm_out got = swm_run(w, init, steps);
    if (kind == transport_kind::shm) oracle = got;
    r.swm_step_s = got.per_step_s;
    r.identical = bit_identical(got, oracle);
    r.vclock = got.clocks == oracle.clocks;

    t.add_row({r.name, format_seconds(r.setup_s), format_seconds(r.latency_s),
               format_fixed(r.bandwidth / 1e9, 2),
               format_seconds(r.allreduce_s),
               format_fixed(r.swm_step_s * 1e3, 3),
               r.identical ? "yes" : "NO", r.vclock ? "==" : "DIFFERS"});
    rows.push_back(to_json(r));
    if (!r.identical || !r.vclock) {
      std::fprintf(stderr, "FATAL: transport %s diverged from shm\n",
                   r.name.c_str());
      t.print(std::cout);
      return 1;
    }
  }
  t.print(std::cout);

  std::vector<bench_json::value> frozen;
  for (const row& r : frozen_rows) frozen.push_back(to_json(r));
  bench_json::document doc;
  doc.member("bench", bench_json::string("ablation_transport"))
      .member("ranks", bench_json::integer(kRanks))
      .member("swm_steps", bench_json::integer(steps))
      .rows("rows", rows)
      .member("frozen_note",
              bench_json::string(
                  "simulated: the retired in-process mailbox transport, "
                  "bit-identical to shm, as last measured (one sample, "
                  "4-core AVX-512 Xeon guest, Release); not regenerated"))
      .rows("frozen_rows", frozen);
  return doc.write(json) ? 0 : 1;
}
