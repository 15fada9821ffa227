// Cross-transport conformance suite for the pluggable channel layer
// (mpisim/transport.hpp, mpisim/socket_transport.hpp).
//
// The contract under test: everything above the transport seam -
// tagged matching, virtual time, the reliability protocol, the fault
// plane, rollback recovery, the halo engine - behaves *bit-identically*
// over every transport. Recorded golden hashes are the oracle: each
// matrix cell runs one world over shm or socket and must reproduce the
// recorded payloads, packed model states (Kahan compensation bits
// included), virtual clocks, chaos bookkeeping and crash casualties
// exactly. The socket transport must additionally turn real network
// failures - refused connects, peer death mid-message, truncated
// frames - into comm_error{transport_lost} within the retry/backoff
// budget instead of hanging, and a 4-rank model run split across four
// separate processes must produce the same bytes as an in-process shm
// run.
//
// Socket cases self-skip when the sandbox forbids loopback TCP.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/faultplane.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/socket_transport.hpp"
#include "mpisim/transport.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"
#include "swm/resilience.hpp"

#include "golden_hash.hpp"

using namespace tfx;
using namespace tfx::mpisim;

namespace {

transport_options topt_for(transport_kind kind) {
  transport_options topt;
  topt.kind = kind;
  return topt;
}

/// Socket scenarios self-skip where loopback TCP is forbidden.
#define SKIP_WITHOUT_LOOPBACK(kind)                                  \
  do {                                                               \
    if ((kind) == transport_kind::socket &&                          \
        !transport_manager::loopback_available()) {                  \
      GTEST_SKIP() << "loopback TCP unavailable in this sandbox";    \
    }                                                                \
  } while (0)

// ---------------------------------------------------------------------------
// Manager + wire-format units.
// ---------------------------------------------------------------------------

TEST(TransportManager, ParsesEveryRegisteredName) {
  EXPECT_EQ(transport_manager::parse("shm"), transport_kind::shm);
  EXPECT_EQ(transport_manager::parse("socket"), transport_kind::socket);
  EXPECT_EQ(transport_manager::parse("tcp"), transport_kind::socket);
  for (const char* unknown : {"carrier-pigeon", "", "simulated", "sim"}) {
    EXPECT_THROW((void)transport_manager::parse(unknown),
                 std::invalid_argument)
        << unknown;
  }
}

TEST(TransportManager, NamesRoundTripThroughParse) {
  for (const auto kind : {transport_kind::shm, transport_kind::socket}) {
    EXPECT_EQ(transport_manager::parse(transport_manager::name_of(kind)),
              kind);
  }
}

TEST(TransportManager, InProcessProtocolsHostEveryRank) {
  const auto t = transport_manager::make(3, topt_for(transport_kind::shm));
  EXPECT_STREQ(t->name(), "shm");
  EXPECT_EQ(t->ranks(), 3);
  EXPECT_EQ(t->local_rank_count(), 3);
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(t->is_local(r));
}

TEST(TransportManager, WorldsDefaultToShm) {
  EXPECT_EQ(transport_options{}.kind, transport_kind::shm);
  world w(2);
  EXPECT_STREQ(w.transport_name(), "shm");
}

TEST(SockWire, FrameHeaderRoundTripsLittleEndian) {
  sockwire::frame_header h;
  h.kind = static_cast<std::uint8_t>(msg_kind::crash_notice);
  h.flags = sockwire::flag_front;
  h.source = 5;
  h.tag = -1;
  h.seq = 0x0123456789abcdefULL;
  h.checksum = 0xfeedfacecafef00dULL;
  h.depart_vtime = 3.5e-6;
  h.epoch = 7;
  h.payload_bytes = 4096;

  std::byte buf[sockwire::frame_header_bytes];
  sockwire::encode_header(h, buf);
  sockwire::frame_header back;
  ASSERT_TRUE(sockwire::decode_header(buf, back));
  EXPECT_EQ(back.magic, sockwire::frame_magic);
  EXPECT_EQ(back.version, sockwire::wire_version);
  EXPECT_EQ(back.kind, h.kind);
  EXPECT_EQ(back.flags, h.flags);
  EXPECT_EQ(back.source, h.source);
  EXPECT_EQ(back.tag, h.tag);
  EXPECT_EQ(back.seq, h.seq);
  EXPECT_EQ(back.checksum, h.checksum);
  EXPECT_EQ(back.depart_vtime, h.depart_vtime);
  EXPECT_EQ(back.epoch, h.epoch);
  EXPECT_EQ(back.payload_bytes, h.payload_bytes);
}

TEST(SockWire, RejectsForeignMagicAndVersion) {
  sockwire::frame_header h;
  std::byte buf[sockwire::frame_header_bytes];
  sockwire::encode_header(h, buf);
  sockwire::frame_header back;
  ASSERT_TRUE(sockwire::decode_header(buf, back));

  std::byte corrupt[sockwire::frame_header_bytes];
  std::memcpy(corrupt, buf, sizeof(buf));
  corrupt[0] = std::byte{0x00};  // magic
  EXPECT_FALSE(sockwire::decode_header(corrupt, back));

  std::memcpy(corrupt, buf, sizeof(buf));
  corrupt[4] = std::byte{0x7f};  // version
  EXPECT_FALSE(sockwire::decode_header(corrupt, back));
}

TEST(ChannelStore, EpochPurgeDropsOnlyStaleMessages) {
  tfx::mpisim::detail::channel_store store;
  store.configure(2);

  wire_message stale;
  stale.source = 1;
  stale.tag = 4;
  stale.seq = 1;
  stale.epoch = 1;
  wire_message fresh = stale;
  fresh.seq = 2;
  fresh.epoch = 2;
  fresh.payload.resize(8, std::byte{0x5a});
  store.deposit(stale, /*front=*/false);
  store.deposit(fresh, /*front=*/false);

  store.purge_below(2);  // the reset() fence
  const wire_message got = store.collect(1, 4);
  EXPECT_EQ(got.epoch, 2u);
  EXPECT_EQ(got.seq, 2u);
  EXPECT_EQ(got.payload, fresh.payload);

  // clear() empties everything: a re-deposited message is the only
  // one left to match.
  store.deposit(stale, false);
  store.clear();
  wire_message only = fresh;
  only.seq = 9;
  store.deposit(only, false);
  EXPECT_EQ(store.collect(1, 4).seq, 9u);
}

// ---------------------------------------------------------------------------
// The conformance matrix: transport x world size, every scenario checked
// against its recorded TransportGolden value.
// ---------------------------------------------------------------------------

/// Deterministic ring exchange with per-message payload fingerprints;
/// returns every rank's concatenated received data. Rank counts of 1
/// degenerate to self-messaging, which must also conform.
std::vector<std::vector<double>> ring_run(world& w, int rounds) {
  const int p = w.size();
  std::vector<std::vector<double>> got(static_cast<std::size_t>(p));
  w.run([&](communicator& comm) {
    const int r = comm.rank();
    const int to = (r + 1) % p;
    const int from = (r + p - 1) % p;
    std::vector<double> acc;
    for (int round = 0; round < rounds; ++round) {
      std::vector<double> out(24 + static_cast<std::size_t>(r));
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = r * 1000.0 + round * 10.0 + static_cast<double>(i) * 0.25;
      }
      comm.send(std::span<const double>(out), to, round);
      std::vector<double> in(24 + static_cast<std::size_t>(from));
      comm.recv(std::span<double>(in), from, round);
      acc.insert(acc.end(), in.begin(), in.end());
      comm.advance(1e-7);
    }
    got[static_cast<std::size_t>(r)] = std::move(acc);
  });
  return got;
}

/// Chained allreduces (each round feeds the next); the final buffers
/// diffed bitwise. Several rounds so small worlds still carry enough
/// traffic for the chaos plane to fire.
std::vector<std::vector<double>> allreduce_run(world& w, std::size_t count,
                                               int rounds = 1) {
  const int p = w.size();
  std::vector<std::vector<double>> got(static_cast<std::size_t>(p));
  w.run([&](communicator& comm) {
    std::vector<double> in(count);
    for (std::size_t i = 0; i < count; ++i) {
      in[i] = (comm.rank() + 1) * 0.5 + static_cast<double>(i) * 0.01;
    }
    std::vector<double> res(count);
    for (int round = 0; round < rounds; ++round) {
      allreduce(comm, std::span<const double>(in), std::span<double>(res),
                ops::sum{});
      for (std::size_t i = 0; i < count; ++i) in[i] = res[i] * 0.25;
    }
    got[static_cast<std::size_t>(comm.rank())] = std::move(res);
  });
  return got;
}

swm::swm_params small_params() {
  swm::swm_params p;
  p.nx = 32;
  p.ny = 16;
  return p;
}

struct rank_state {
  std::vector<double> packed;
  int steps = 0;
  swm::recovery_report report;
};

/// Distributed model run: halo exchanges every RK4 stage plus the
/// max-speed collective; packed state captures the Kahan bits.
std::vector<rank_state> halo_run(world& w, int steps) {
  const swm::swm_params params = small_params();
  swm::model<double> seeder(params);
  seeder.seed_random_eddies(7, 0.5);
  const swm::state<double> init = seeder.prognostic();
  std::vector<rank_state> out(static_cast<std::size_t>(w.size()));
  w.run([&](communicator& comm) {
    swm::distributed_model<double> dm(comm, params,
                                      swm::integration_scheme::compensated);
    dm.set_from_global(init);
    dm.run(steps);
    (void)dm.global_max_speed();
    auto& mine = out[static_cast<std::size_t>(comm.rank())];
    mine.packed.resize(dm.packed_size());
    dm.pack_state(std::span<double>(mine.packed));
    mine.steps = dm.steps_taken();
  });
  return out;
}

/// Resilient run under a crash schedule (swm/resilience.hpp).
std::vector<rank_state> recovery_run(world& w, int steps,
                                     const swm::resilience_options& opt) {
  const swm::swm_params params = small_params();
  swm::model<double> seeder(params);
  seeder.seed_random_eddies(7, 0.5);
  const swm::state<double> init = seeder.prognostic();
  std::vector<rank_state> out(static_cast<std::size_t>(w.size()));
  w.run([&](communicator& comm) {
    swm::distributed_model<double> dm(comm, params);
    dm.set_from_global(init);
    auto& mine = out[static_cast<std::size_t>(comm.rank())];
    mine.report = swm::run_resilient(comm, dm, steps, opt);
    mine.packed.resize(dm.packed_size());
    dm.pack_state(std::span<double>(mine.packed));
    mine.steps = dm.steps_taken();
  });
  return out;
}

/// Each rank's data in rank order, then the final virtual clocks.
void hash_ranks(test::fnv1a& h, const std::vector<std::vector<double>>& got,
                const world& w) {
  for (const auto& mine : got) h.values(mine);
  h.values(w.final_clocks());
}

/// The state hash: each rank's packed state (Kahan bits included) and
/// step count. A change to the message schedule must not move it.
std::uint64_t state_hash(const std::vector<rank_state>& got) {
  test::fnv1a h;
  for (const auto& mine : got) {
    h.values(mine.packed);
    h.value(mine.steps);
  }
  return h.h;
}

/// The schedule hash: each rank's recovery report fields (all zero for
/// a run without a session), then the final virtual clocks.
std::uint64_t schedule_hash(const std::vector<rank_state>& got,
                            const world& w) {
  test::fnv1a h;
  for (const auto& mine : got) {
    h.value(mine.report.rounds);
    h.values(mine.report.casualties);
    h.value(mine.report.replayed_steps);
    h.value(mine.report.commits);
  }
  h.values(w.final_clocks());
  return h.h;
}

/// The fault plane's bookkeeping of the last run.
void hash_fault_report(test::fnv1a& h, const world::fault_report& rep) {
  h.value(rep.stats);
  for (const auto& mine : rep.deliveries) {
    for (const auto& d : mine) {
      h.value(d.source);
      h.value(d.tag);
      h.value(d.seq);
    }
  }
  h.value(rep.rx_discards);
}

fault_config chaos_config(std::uint64_t seed) {
  fault_config cfg;
  cfg.seed = seed;
  cfg.probs.drop = 0.08;
  cfg.probs.duplicate = 0.05;
  cfg.probs.corrupt = 0.04;
  cfg.probs.reorder = 0.06;
  cfg.probs.delay = 0.05;
  cfg.retry.max_retries = 30;
  return cfg;
}

/// TransportGolden: per world size, one recorded value per scenario
/// below. Recorded from the in-process mailbox transport that served
/// as this matrix's live oracle before shm took its place; shm and
/// socket reproduced every value. A value of 0 (an empty list for the
/// crash schedule) marks a scenario that needs more than one rank.
///
/// The model scenarios record two hashes each. The state hash covers
/// what the model computed and must survive any change to how its
/// halos travel; the schedule hash covers when and how often messages
/// went, so a new message schedule re-records it alone.
struct transport_golden {
  int ranks;
  std::uint64_t p2p;          ///< ring payloads + clocks
  std::uint64_t collectives;  ///< allreduce results + clocks
  std::uint64_t halo_state;     ///< packed Kahan states + steps
  std::uint64_t halo_schedule;  ///< clocks
  std::uint64_t chaos;        ///< results + clocks + fault report
  std::vector<int> crashed;   ///< ranks the crash schedule fells
  std::uint64_t recovery_state;     ///< packed states + steps
  std::uint64_t recovery_schedule;  ///< recovery reports + clocks
};

const transport_golden transport_goldens[] = {
    {1, 0xc395b574328a0cf1ull, 0xb9398c450c98f921ull, 0x10f6a2dbd65885c2ull,
     0xd852dcb87b6f12a3ull, 0, {}, 0, 0},
    {2, 0x692d63526843e94aull, 0x6482431d2be1734bull, 0xc8bf7f237323477cull,
     0xe1898faaef46aa83ull, 0x8077d7e0664aa765ull, {0, 1},
     0x3c94f17141acab79ull, 0xea8b4d2490f7e79full},
    {4, 0xdf1f7127e2aa58d5ull, 0x9d0a53cb4172f43bull, 0x656216d406bf872cull,
     0x0ee5d2149e201be3ull, 0x44f43a245dc37741ull, {0, 1, 2, 3},
     0x25f63bd054df4d81ull, 0xe56ef1e996e84e25ull},
    {8, 0x45308975c0af3250ull, 0x2b1559f4a827a4e3ull, 0xb9375faa1f151484ull,
     0x72a3dd3c19044603ull, 0x8fe13444f1ddec93ull, {1, 2, 3, 4},
     0x4b9461bcd9b08369ull, 0x5e5b16dcdaf16579ull},
};

class TransportConformance
    : public ::testing::TestWithParam<std::tuple<transport_kind, int>> {
 protected:
  void SetUp() override {
    std::tie(kind_, ranks_) = GetParam();
    SKIP_WITHOUT_LOOPBACK(kind_);
  }

  [[nodiscard]] const transport_golden& golden() const {
    for (const auto& g : transport_goldens) {
      if (g.ranks == ranks_) return g;
    }
    ADD_FAILURE() << "no TransportGolden row for p = " << ranks_;
    return transport_goldens[0];
  }

  void expect_golden(std::uint64_t got, std::uint64_t want,
                     const char* scenario) const {
    EXPECT_EQ(got, want) << "TransportGolden " << scenario << " p" << ranks_
                         << ": got 0x" << std::hex << got;
  }

  transport_kind kind_ = transport_kind::shm;
  int ranks_ = 1;
};

TEST_P(TransportConformance, P2PPayloadsAndClocksMatchOracle) {
  world w(ranks_, {}, topt_for(kind_));
  const auto got = ring_run(w, /*rounds=*/6);

  test::fnv1a h;
  hash_ranks(h, got, w);  // bitwise: the payload survived the wire
  expect_golden(h.h, golden().p2p, "p2p");
}

TEST_P(TransportConformance, CollectivesMatchOracle) {
  world w(ranks_, {}, topt_for(kind_));
  const auto got = allreduce_run(w, 37);

  test::fnv1a h;
  hash_ranks(h, got, w);
  expect_golden(h.h, golden().collectives, "collectives");
}

TEST_P(TransportConformance, HaloExchangeBitIdenticalKahanIncluded) {
  world w(ranks_, {}, topt_for(kind_));
  const auto got = halo_run(w, /*steps=*/6);

  expect_golden(state_hash(got), golden().halo_state, "halo state");
  expect_golden(schedule_hash(got, w), golden().halo_schedule,
                "halo schedule");
}

TEST_P(TransportConformance, ChaosTraceMatchesOracleExactly) {
  if (ranks_ < 2) GTEST_SKIP() << "chaos needs a peer";

  // Seed 1 injects at every world size in this matrix (retries > 0).
  world w(ranks_, {}, topt_for(kind_));
  w.set_faults(chaos_config(1));
  const auto got = allreduce_run(w, 37, /*rounds=*/12);

  // Results, clocks, AND the whole chaos event trace agree: per-channel
  // sequence numbers are assigned in deposit order, every transport
  // preserves per-channel FIFO, and the matcher takes the lowest
  // sequence first - so delivery orders are independent of real-time
  // arrival interleaving.
  test::fnv1a h;
  hash_ranks(h, got, w);
  hash_fault_report(h, w.last_fault_report());
  expect_golden(h.h, golden().chaos, "chaos");
  EXPECT_TRUE(w.last_fault_report().crashed.empty());
  EXPECT_GT(w.last_fault_report().stats.retries, 0u);  // chaos fired
}

TEST_P(TransportConformance, CrashSchedulesRaiseIdenticalTypedErrors) {
  if (ranks_ < 2) GTEST_SKIP() << "a crash needs a surviving peer";

  fault_config cfg;
  cfg.seed = 11;
  cfg.crashes.push_back({1, 3});  // rank 1 dies mid-ring
  cfg.retry.max_retries = 4;      // keep the cascade bounded

  world w(ranks_, {}, topt_for(kind_));
  w.set_faults(cfg);
  comm_error::reason why = comm_error::reason::unrecoverable;
  try {
    (void)ring_run(w, 6);
    ADD_FAILURE() << "expected comm_error";
  } catch (const comm_error& e) {
    why = e.why();
  }

  // Typed-error parity: the same crash schedule fells the same ranks
  // with the same reason category on every transport.
  EXPECT_EQ(w.last_fault_report().crashed, golden().crashed);
  EXPECT_FALSE(w.last_fault_report().crashed.empty());
  EXPECT_TRUE(why == comm_error::reason::peer_crashed ||
              why == comm_error::reason::retries_exhausted)
      << "unexpected reason " << static_cast<int>(why);
}

TEST_P(TransportConformance, CrashRecoveryBitIdenticalToOracle) {
  if (ranks_ < 2) GTEST_SKIP() << "recovery needs a buddy";

  const int steps = 12;
  swm::resilience_options opt;
  opt.checkpoint_interval = 4;

  // One mid-run death, aimed halfway between rank 1's step-4 and
  // step-8 commits in a silent run over the same transport.
  fault_config silent;
  silent.crashes.push_back({0, std::uint64_t{1} << 40});
  world probe(ranks_, {}, topt_for(kind_));
  probe.set_faults(silent);
  const auto marks = recovery_run(probe, steps, opt);

  fault_config cfg;
  cfg.seed = 40;
  cfg.crashes.push_back({1, swm::mid_window_send(marks[1].report, 1)});

  world w(ranks_, {}, topt_for(kind_));
  w.set_faults(cfg);
  const auto got = recovery_run(w, steps, opt);

  expect_golden(state_hash(got), golden().recovery_state, "recovery state");
  expect_golden(schedule_hash(got, w), golden().recovery_schedule,
                "recovery schedule");
  EXPECT_EQ(got[0].report.rounds, 1);  // the crash actually happened
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TransportConformance,
    ::testing::Combine(::testing::Values(transport_kind::shm,
                                         transport_kind::socket),
                       ::testing::Values(1, 2, 4, 8)),
    [](const auto& param_info) {
      return std::string(
                 transport_manager::name_of(std::get<0>(param_info.param))) +
             "_p" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace

// ---------------------------------------------------------------------------
// Socket failure injection: a spoofed peer speaks just enough of the
// wire protocol to complete the handshake, then misbehaves. Every
// failure must surface as a typed transport_down/comm_error within the
// handshake budget - never a hang.
// ---------------------------------------------------------------------------

namespace {

/// Reserve a loopback port: bind, read the number, close. The race
/// window (someone else grabbing it) is acceptable in tests.
int free_port() {
  const int fd = sockwire::listen_on("127.0.0.1", 0);
  const int port = sockwire::listen_port(fd);
  ::close(fd);
  return port;
}

/// Complete the coordinator handshake as fake rank 1 of a 2-rank
/// world: connect, hello, swallow the port table. Returns the
/// connected fd (the 0<->1 mesh link).
int spoofed_peer_handshake(int port) {
  const retry_policy patient{0.05, 1.5, 10};
  const int fd = sockwire::connect_to("127.0.0.1", port, patient, 0);
  // Advertised listen port is never dialed for a 2-rank world (the
  // mesh pairs i<j with i>=1 are empty), so any value works.
  sockwire::write_hello(fd, {1, 2, 1}, 0);
  std::byte table[4 + 2 + 2 * 2];  // magic + version + two ports
  sockwire::read_all(fd, table, sizeof(table), 0, /*eof_ok=*/false);
  return fd;
}

/// Build a process-mode rank-0 transport for a 2-rank world while a
/// spoofed peer runs `misbehave(fd)` on the other end; returns the
/// transport_down notice rank 0's matcher surfaces.
wire_message provoke_transport_down(void (*misbehave)(int fd)) {
  const int port = free_port();
  std::thread peer([port, misbehave] {
    const int fd = spoofed_peer_handshake(port);
    misbehave(fd);
    ::close(fd);
  });
  socket_options sopt;
  sopt.rank = 0;
  sopt.port = port;
  auto t = make_socket_transport(2, sopt);
  const wire_message down = t->collect(0, 1, 0);
  peer.join();
  // The channel is gone: depositing toward the dead peer is a typed
  // error too (possibly delayed one send by TCP buffering).
  wire_message probe;
  probe.source = 0;
  probe.payload.resize(1 << 16);
  try {
    for (int i = 0; i < 64; ++i) t->deposit(1, probe);
    ADD_FAILURE() << "send to dead channel did not fail";
  } catch (const comm_error& e) {
    EXPECT_EQ(e.why(), comm_error::reason::transport_lost);
  }
  return down;
}

}  // namespace

TEST(SocketFailure, RefusedConnectRaisesTypedErrorWithinBudget) {
  if (!transport_manager::loopback_available()) {
    GTEST_SKIP() << "loopback TCP unavailable in this sandbox";
  }
  const int dead_port = free_port();  // bound once, closed: now refuses
  const retry_policy quick{0.01, 1.5, 3};
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)sockwire::connect_to("127.0.0.1", dead_port, quick, 1);
    FAIL() << "expected comm_error";
  } catch (const comm_error& e) {
    EXPECT_EQ(e.why(), comm_error::reason::transport_lost);
    EXPECT_EQ(e.peer(), 1);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Bounded by the backoff schedule, not a TCP timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(SocketFailure, PeerDeathMidMessageBecomesTransportDown) {
  if (!transport_manager::loopback_available()) {
    GTEST_SKIP() << "loopback TCP unavailable in this sandbox";
  }
  const wire_message down = provoke_transport_down(+[](int fd) {
    // Half a frame header, then gone.
    sockwire::frame_header h;
    std::byte buf[sockwire::frame_header_bytes];
    sockwire::encode_header(h, buf);
    sockwire::write_all(fd, buf, sockwire::frame_header_bytes / 2, 0);
  });
  EXPECT_EQ(down.kind, msg_kind::transport_down);
  EXPECT_EQ(down.source, 1);
}

TEST(SocketFailure, TruncatedFrameBecomesTransportDown) {
  if (!transport_manager::loopback_available()) {
    GTEST_SKIP() << "loopback TCP unavailable in this sandbox";
  }
  const wire_message down = provoke_transport_down(+[](int fd) {
    // A full header promising 64 payload bytes, then only 16.
    sockwire::frame_header h;
    h.source = 1;
    h.payload_bytes = 64;
    h.epoch = 1;
    std::byte buf[sockwire::frame_header_bytes];
    sockwire::encode_header(h, buf);
    sockwire::write_all(fd, buf, sizeof(buf), 0);
    const std::byte partial[16] = {};
    sockwire::write_all(fd, partial, sizeof(partial), 0);
  });
  EXPECT_EQ(down.kind, msg_kind::transport_down);
  EXPECT_EQ(down.source, 1);
}

TEST(SocketFailure, CleanPeerExitStillPoisonsTheChannel) {
  if (!transport_manager::loopback_available()) {
    GTEST_SKIP() << "loopback TCP unavailable in this sandbox";
  }
  // EOF at a frame boundary (peer simply exits): no truncation to
  // report, but the channel is still gone and a blocked receiver must
  // learn that instead of hanging.
  const wire_message down = provoke_transport_down(+[](int) {});
  EXPECT_EQ(down.kind, msg_kind::transport_down);
  EXPECT_EQ(down.source, 1);
}

// ---------------------------------------------------------------------------
// The headline acceptance test: the same SWM binary, four separate
// processes over real TCP, bit-identical to an in-process shm run.
// ---------------------------------------------------------------------------

#ifdef TFX_DISTRIBUTED_SWM_BIN
namespace {

/// Launch the distributed_swm example with the given arguments, stdout
/// silenced. All allocation happens before fork() - the child only
/// dup2s and execs (async-signal-safe).
pid_t spawn_swm(const std::vector<std::string>& extra_args) {
  static std::string bin = TFX_DISTRIBUTED_SWM_BIN;
  std::vector<std::string> args = extra_args;  // keep storage alive
  std::vector<char*> argv;
  argv.push_back(bin.data());
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int devnull = ::open("/dev/null", O_WRONLY);
  if (devnull >= 0) {
    ::dup2(devnull, STDOUT_FILENO);
    ::close(devnull);
  }
  ::execv(argv[0], argv.data());
  std::_Exit(127);
}

/// The exit status of a normally exited child, or -1 (killed by a
/// signal, or not waitable).
int exit_status(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool wait_ok(pid_t pid) { return exit_status(pid) == 0; }

std::vector<char> slurp(const std::string& path) {
  std::vector<char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

}  // namespace

TEST(TransportProcessMode, UnknownTransportNamePrintsUsage) {
  // A name parse() rejects is a usage error like any other bad flag:
  // exit status 2, not an uncaught exception.
  for (const char* name : {"carrier-pigeon", "simulated"}) {
    EXPECT_EQ(exit_status(spawn_swm({std::string("--transport=") + name})), 2)
        << name;
  }
}

TEST(TransportProcessMode, FourProcessTcpRunBitIdenticalToOracle) {
  if (!transport_manager::loopback_available()) {
    GTEST_SKIP() << "loopback TCP unavailable in this sandbox";
  }
  const std::string dir = ::testing::TempDir();
  const std::string oracle_prefix = dir + "swm_transport_oracle";
  const std::string proc_prefix = dir + "swm_transport_proc";
  const std::string steps = "--steps=8";
  const std::string scheme = "--scheme=compensated";

  // In-process reference over shm channels.
  ASSERT_TRUE(wait_ok(spawn_swm({"--transport=shm", "--ranks=4", steps,
                                 scheme, "--out=" + oracle_prefix})));

  // The same binary, once per rank, agreeing on a coordinator port.
  const std::string port_arg = "--port=" + std::to_string(free_port());
  std::vector<pid_t> pids;
  for (int r = 0; r < 4; ++r) {
    pids.push_back(spawn_swm({"--transport=socket", "--ranks=4", steps,
                              scheme, "--rank=" + std::to_string(r), port_arg,
                              "--out=" + proc_prefix}));
  }
  bool all_ok = true;
  for (const pid_t pid : pids) all_ok = wait_ok(pid) && all_ok;
  ASSERT_TRUE(all_ok) << "a rank process failed";

  for (int r = 0; r < 4; ++r) {
    const auto want = slurp(oracle_prefix + ".rank" + std::to_string(r));
    const auto got = slurp(proc_prefix + ".rank" + std::to_string(r));
    ASSERT_FALSE(want.empty()) << "oracle rank " << r << " wrote nothing";
    ASSERT_EQ(got.size(), want.size()) << "rank " << r;
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size()))
        << "rank " << r
        << ": process-mode state differs from the in-process shm run";
  }
}
#endif  // TFX_DISTRIBUTED_SWM_BIN
