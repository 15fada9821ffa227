// Golden-trace suite for the observability plane (src/obs).
//
// The contract under test: the threaded mpisim runtime and the
// discrete-event engine, executing the same seeded program under the
// same fault plane, emit the *same* structured event stream - the same
// per-rank sequence of message-lifecycle records with matching payload
// words and virtual timestamps, and the same casualty set when crash
// schedules kill ranks. On top of that: DES traces are bitwise
// reproducible run over run, the Chrome export round-trips through the
// schema validator (balanced B/E pairs, monotone timestamps, declared
// tids) including on a chaos + rollback-recovery run, and the runtime
// toggle actually gates recording.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "core/table.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/des.hpp"
#include "mpisim/faultplane.hpp"
#include "mpisim/patterns.hpp"
#include "mpisim/runtime.hpp"
#include "obs/chrome.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"
#include "swm/resilience.hpp"

using namespace tfx;
using namespace tfx::mpisim;

// Everything that inspects recorded events or gated metrics is vacuous
// when the plane is compiled out; those tests skip instead of failing
// so the -DTFX_OBS=OFF build stays green. (The validator tests below
// run either way - the schema checker has no gate.)
#define REQUIRE_OBS_COMPILED()                                          \
  if (!obs::compiled) {                                                 \
    GTEST_SKIP() << "observability plane compiled out (TFX_OBS=OFF)";   \
  }                                                                     \
  static_assert(true, "")

namespace {

/// RAII tracing session: clears the metrics registry (values must not
/// leak across tests), starts a fresh trace, stops on exit.
struct obs_session {
  obs_session() {
    obs::metrics_registry::instance().clear();
    obs::start();
  }
  ~obs_session() { obs::stop(); }
  obs_session(const obs_session&) = delete;
  obs_session& operator=(const obs_session&) = delete;
};

/// The chaos knobs of mpisim_fault_test: heavy enough that every fault
/// class injects, a retry budget deep enough that the chaos drains.
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

/// Deterministic pairwise-exchange program (the mpisim_fault_test
/// shape): paired sends/recvs plus a neighbour shift when p >= 3.
sim_program pairwise_program(int p, std::uint64_t seed, int rounds) {
  xoshiro256 rng(seed);
  sim_program prog(p);
  for (int round = 0; round < rounds; ++round) {
    for (int a = 0; a + 1 < p; a += 2) {
      const int b = a + 1;
      const std::size_t bytes = 1 + rng.bounded(4096);
      prog.rank(a).push_back(sim_op::send_to(b, bytes));
      prog.rank(b).push_back(sim_op::send_to(a, bytes));
      prog.rank(a).push_back(sim_op::recv_from(b, bytes));
      prog.rank(b).push_back(sim_op::recv_from(a, bytes));
    }
    for (int a = 0; a < p; ++a) {
      if (p < 3) break;
      prog.rank(a).push_back(sim_op::send_to((a + 1) % p, 256));
    }
    for (int a = 0; a < p; ++a) {
      if (p < 3) break;
      prog.rank(a).push_back(sim_op::recv_from((a + p - 1) % p, 256));
    }
  }
  return prog;
}

/// Execute a sim_program on the threaded runtime (tag 0, matching the
/// DES delivery records).
void run_threaded_program(world& w, const sim_program& prog) {
  w.run([&](communicator& comm) {
    const auto& ops = prog.ranks[static_cast<std::size_t>(comm.rank())];
    std::vector<std::byte> buf(1 << 13);
    for (const auto& op : ops) {
      switch (op.what) {
        case sim_op::kind::send:
          comm.send_bytes(std::span<const std::byte>(buf.data(), op.bytes),
                          op.peer, 0);
          break;
        case sim_op::kind::recv:
          comm.recv_bytes(std::span<std::byte>(buf.data(), op.bytes), op.peer,
                          0);
          break;
        case sim_op::kind::compute:
          comm.advance(op.seconds);
          break;
      }
    }
  });
}

struct rec {
  std::string name;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double ts = 0;
};

/// One rank's net-domain record sequence, in emission (= program)
/// order. net.dedup is filtered (receive-side discards exist only in
/// the threaded engine; the DES never materializes the discarded
/// copies) and so is net.casualty (compared as a set - the *timing* of
/// observing a peer's death is engine-specific, its existence is not).
std::vector<rec> net_records(const std::vector<obs::event>& events,
                             int track) {
  std::vector<rec> out;
  for (const auto& e : events) {
    if (e.dom != obs::domain::net) continue;
    if (e.track != static_cast<std::uint16_t>(track)) continue;
    if (std::strcmp(e.name, "net.dedup") == 0) continue;
    if (std::strcmp(e.name, "net.casualty") == 0) continue;
    out.push_back({e.name, e.a, e.b, e.ts});
  }
  return out;
}

/// The set of ranks the trace records as dead (net.casualty carries
/// the dying rank in `a`, equal to its track).
std::set<int> casualty_ranks(const std::vector<obs::event>& events) {
  std::set<int> out;
  for (const auto& e : events) {
    if (e.dom != obs::domain::net) continue;
    if (std::strcmp(e.name, "net.casualty") != 0) continue;
    EXPECT_EQ(e.a, e.track) << "casualty must carry the dying rank in a";
    out.insert(static_cast<int>(e.a));
  }
  return out;
}

std::uint64_t counter_value(std::string_view name) {
  return obs::metrics_registry::instance().get_counter(name).value();
}

}  // namespace

// ---------------------------------------------------------------------------
// Tentpole property: cross-engine golden traces. Same program, same
// fault plane => same per-rank event structure, payloads, and virtual
// timestamps on both engines; same flushed metrics.
// ---------------------------------------------------------------------------

class GoldenTrace
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(GoldenTrace, ThreadedMatchesDes) {
  REQUIRE_OBS_COMPILED();
  const auto [seed, p] = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed) + " ranks " +
               std::to_string(p));
  const auto prog = pairwise_program(p, seed, 3);
  const tofud_params net;
  const torus_placement place = torus_placement::line(p);
  const fault_config cfg = chaos_config(seed * 31 + 7);
  const fault_plane plane(cfg);

  std::vector<obs::event> threaded_events;
  fault_stats threaded_stats;
  std::uint64_t threaded_sends = 0, threaded_tx = 0;
  {
    const obs_session session;
    world w(place, net);
    w.set_faults(cfg);
    run_threaded_program(w, prog);
    threaded_events = obs::collect();
    threaded_stats = w.last_fault_report().stats;
    threaded_sends = counter_value("net.sends");
    threaded_tx = counter_value("net.tx_bytes");
    EXPECT_EQ(obs::dropped(), 0u);
  }

  std::vector<obs::event> des_events;
  des_result des;
  {
    const obs_session session;
    des = simulate(prog, net, place, {}, &plane);
    des_events = obs::collect();
    // The per-engine metric flushes land on the same names, so a
    // threaded run and its DES twin fill comparable registries.
    EXPECT_EQ(counter_value("net.sends"), threaded_sends);
    EXPECT_EQ(counter_value("net.sends"), des.stats.sends);
    EXPECT_EQ(counter_value("net.tx_bytes"), threaded_tx);
    EXPECT_EQ(obs::dropped(), 0u);
  }
  EXPECT_EQ(threaded_stats, des.stats);
  EXPECT_EQ(threaded_sends, threaded_stats.sends);
  // The byte total is the sum of the net.send events' bytes (b), from
  // which any per-pair figure can be derived.
  std::uint64_t sent_bytes = 0;
  for (const auto& e : des_events) {
    if (e.dom == obs::domain::net && std::strcmp(e.name, "net.send") == 0) {
      sent_bytes += e.b;
    }
  }
  EXPECT_GT(sent_bytes, 0u);
  EXPECT_EQ(threaded_tx, sent_bytes);

  std::size_t total = 0;
  for (int r = 0; r < p; ++r) {
    const auto want = net_records(des_events, r);
    const auto got = net_records(threaded_events, r);
    ASSERT_EQ(got.size(), want.size()) << "rank " << r;
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("rank " + std::to_string(r) + " event " +
                   std::to_string(i) + " (" + want[i].name + ")");
      EXPECT_EQ(got[i].name, want[i].name);
      EXPECT_EQ(got[i].a, want[i].a);
      EXPECT_EQ(got[i].b, want[i].b);
      // Both engines stamp the event from the same clock-update
      // formulas; only summation order may differ.
      EXPECT_NEAR(got[i].ts, want[i].ts, 1e-15 + 1e-9 * want[i].ts);
    }
    total += want.size();
  }
  EXPECT_GT(total, 0u) << "program produced no traffic";
  EXPECT_TRUE(casualty_ranks(threaded_events).empty());
  EXPECT_TRUE(casualty_ranks(des_events).empty());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsRanks, GoldenTrace,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 5, 9, 2026),
                       ::testing::Values(2, 4, 6)),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_p" +
             std::to_string(std::get<1>(param_info.param));
    });

// A scheduled crash: both engines record the same casualty set, the
// scheduled rank's own casualty implicates itself (b == a), and every
// dead rank in the fault report has a trace record.
TEST(GoldenTraceCrash, CasualtySetsMatch) {
  REQUIRE_OBS_COMPILED();
  const int p = 6;
  const auto prog = pairwise_program(p, 11, 3);
  const tofud_params net;
  const torus_placement place = torus_placement::line(p);
  fault_config cfg;
  cfg.seed = 17;
  cfg.crashes.push_back({1, 2});  // rank 1 dies before its 3rd send
  const fault_plane plane(cfg);

  std::vector<obs::event> threaded_events;
  std::vector<int> threaded_crashed;
  {
    const obs_session session;
    world w(place, net);
    w.set_faults(cfg);
    try {
      run_threaded_program(w, prog);
    } catch (const comm_error&) {
      // Expected: the crash cascades into the blocked receivers.
    }
    threaded_events = obs::collect();
    threaded_crashed = w.last_fault_report().crashed;
  }

  std::vector<obs::event> des_events;
  des_result des;
  {
    const obs_session session;
    des = simulate(prog, net, place, {}, &plane);
    des_events = obs::collect();
  }

  const std::set<int> threaded_dead = casualty_ranks(threaded_events);
  const std::set<int> des_dead = casualty_ranks(des_events);
  EXPECT_EQ(threaded_dead, des_dead);
  EXPECT_EQ(threaded_dead,
            std::set<int>(threaded_crashed.begin(), threaded_crashed.end()));
  EXPECT_EQ(des_dead, std::set<int>(des.crashed.begin(), des.crashed.end()));
  ASSERT_TRUE(threaded_dead.count(1) == 1) << "scheduled crash not recorded";

  // The scheduled casualty implicates itself in both engines.
  for (const auto* events : {&threaded_events, &des_events}) {
    bool found_self = false;
    for (const auto& e : *events) {
      if (e.dom == obs::domain::net &&
          std::strcmp(e.name, "net.casualty") == 0 && e.track == 1) {
        EXPECT_EQ(e.a, 1u);
        if (e.b == 1u) found_self = true;
      }
    }
    EXPECT_TRUE(found_self) << "scheduled crash should implicate itself";
  }
}

// ---------------------------------------------------------------------------
// DES determinism: two runs of the same (program, seed) produce
// bitwise-identical traces - every field of every event, timestamps
// included.
// ---------------------------------------------------------------------------

TEST(DesTrace, BitReproducibleAcrossRuns) {
  REQUIRE_OBS_COMPILED();
  const int p = 6;
  const auto prog = pairwise_program(p, 42, 4);
  const tofud_params net;
  const torus_placement place = torus_placement::line(p);
  const fault_config cfg = chaos_config(4242);
  const fault_plane plane(cfg);

  const auto once = [&] {
    const obs_session session;
    simulate(prog, net, place, {}, &plane);
    return obs::collect();
  };
  const auto first = once();
  const auto second = once();

  ASSERT_EQ(first.size(), second.size());
  ASSERT_GT(first.size(), 0u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_STREQ(first[i].name, second[i].name);
    EXPECT_EQ(first[i].ts, second[i].ts);  // bitwise, no tolerance
    EXPECT_EQ(first[i].a, second[i].a);
    EXPECT_EQ(first[i].b, second[i].b);
    EXPECT_EQ(first[i].what, second[i].what);
    EXPECT_EQ(first[i].dom, second[i].dom);
    EXPECT_EQ(first[i].track, second[i].track);
  }
}

// A contended run flushes its link census next to net.tx_bytes; an
// uncontended run has no census and flushes none of it.
TEST(DesTrace, ContendedRunFlushesTheLinkCensus) {
  REQUIRE_OBS_COMPILED();
  const tofud_params net;
  const torus_placement place({4, 6, 16}, 4);  // Fig. 3: 1536 ranks
  const auto prog = make_gatherv_program(place.rank_count(), 512, 8, 0);
  static constexpr double any_uppers[] = {1.0};
  const auto wait_histogram = []() -> obs::metric_histogram& {
    return obs::metrics_registry::instance().get_histogram("net.link_wait_s",
                                                           any_uppers);
  };
  {
    const obs_session session;
    des_options opts;
    opts.fabric = fabric_mode::contended;
    const des_result res = simulate(prog, net, place, {}, nullptr, opts);
    EXPECT_GT(res.links.contended_hops, 0u);
    EXPECT_EQ(counter_value("net.routed_messages"),
              res.links.routed_messages);
    EXPECT_EQ(counter_value("net.link_hops"), res.links.link_hops);
    EXPECT_EQ(counter_value("net.contended_hops"), res.links.contended_hops);
    const obs::metric_histogram& wait = wait_histogram();
    ASSERT_EQ(wait.total(), 1u);
    std::size_t bucket = 0;
    while (bucket + 1 < wait.buckets() &&
           res.links.wait_seconds > wait.upper(bucket)) {
      ++bucket;
    }
    EXPECT_EQ(wait.count(bucket), 1u);
  }
  {
    const obs_session session;
    simulate(prog, net, place);
    EXPECT_GT(counter_value("net.tx_bytes"), 0u);
    EXPECT_EQ(counter_value("net.routed_messages"), 0u);
    EXPECT_EQ(counter_value("net.link_hops"), 0u);
    EXPECT_EQ(counter_value("net.contended_hops"), 0u);
    EXPECT_EQ(wait_histogram().total(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Runtime toggle: nothing is recorded while the plane is off, and
// stop() really stops.
// ---------------------------------------------------------------------------

TEST(Toggle, GatesRecording) {
  REQUIRE_OBS_COMPILED();
  ASSERT_FALSE(obs::active());
  obs::instant(obs::domain::pool, 0, "ignored");
  {
    const obs_session session;
    ASSERT_TRUE(obs::active());
    obs::instant(obs::domain::pool, 0, "kept", 7, 9);
  }
  ASSERT_FALSE(obs::active());
  obs::instant(obs::domain::pool, 0, "ignored.too");

  const auto events = obs::collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "kept");
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 9u);

  // Metrics obey the same gate.
  obs::metrics_registry::instance().clear();
  obs::metric_add("gated");
  EXPECT_EQ(counter_value("gated"), 0u);
}

// The ring drops the newest events on overflow and counts the loss -
// span begins are never orphaned by the drop policy.
TEST(Toggle, RingOverflowDropsNewestAndCounts) {
  REQUIRE_OBS_COMPILED();
  obs::start(/*ring_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    obs::instant(obs::domain::pool, 0, "e", static_cast<std::uint64_t>(i));
  }
  obs::stop();
  const auto events = obs::collect();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, i);  // the oldest prefix survived
  }
  EXPECT_EQ(obs::dropped(), 12u);
}

// ---------------------------------------------------------------------------
// Chrome export schema: the exporter's output round-trips through the
// validator, on a plain chaos run and on a chaos + crash + rollback
// recovery run (the TSan-exercised path: worker threads, fault plane,
// resilience protocol and SWM step spans all live at once).
// ---------------------------------------------------------------------------

TEST(ChromeSchema, ChaosRunValidates) {
  REQUIRE_OBS_COMPILED();
  std::vector<obs::event> events;
  {
    const obs_session session;
    world w(4);
    w.set_faults(chaos_config(7));
    w.run([&](communicator& comm) {
      std::vector<double> in{static_cast<double>(comm.rank() + 1)};
      std::vector<double> out{0.0};
      allreduce(comm, std::span<const double>(in), std::span<double>(out),
                ops::sum{});
      barrier(comm);
    });
    events = obs::collect();
  }
  ASSERT_GT(events.size(), 0u);

  const std::string json = obs::to_chrome_json(events, "obs_trace_test");
  const auto v = obs::validate_chrome_json(json);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, events.size());
  EXPECT_GT(v.spans, 0u) << "collective spans missing";
  EXPECT_GT(v.instants, 0u) << "message lifecycle instants missing";
  EXPECT_GT(v.metadata, 0u);
}

TEST(ChromeSchema, ChaosRecoveryRunValidates) {
  REQUIRE_OBS_COMPILED();
  const int p = 4;
  swm::swm_params params;
  params.nx = 32;
  params.ny = 16;

  swm::model<double> seedm(params);
  seedm.seed_random_eddies(7, 0.5);
  const swm::state<double> init = seedm.prognostic();

  swm::resilience_options opt;
  opt.checkpoint_interval = 4;
  // A silent run (fault plane on, no crash) aims rank 1's crash
  // halfway between its step-4 and step-8 commits.
  std::vector<swm::recovery_report> reports(static_cast<std::size_t>(p));
  auto resilient_run = [&](world& w) {
    w.run([&](communicator& comm) {
      swm::distributed_model<double> dm(comm, params);
      dm.set_from_global(init);
      reports[static_cast<std::size_t>(comm.rank())] =
          swm::run_resilient(comm, dm, 12, opt);
    });
  };
  {
    world probe(p);
    mpisim::fault_config silent;
    silent.crashes.push_back({0, std::uint64_t{1} << 40});
    probe.set_faults(silent);
    resilient_run(probe);
  }

  mpisim::fault_config cfg;
  cfg.seed = 43;
  cfg.crashes.push_back({1, swm::mid_window_send(reports[1], 1)});
  cfg.probs.drop = 0.02;
  cfg.probs.corrupt = 0.02;
  cfg.retry.max_retries = 40;

  std::vector<obs::event> events;
  {
    const obs_session session;
    world w(p);
    w.set_faults(cfg);
    resilient_run(w);
    events = obs::collect();
    EXPECT_EQ(obs::dropped(), 0u);
    EXPECT_GT(counter_value("resil.events"), 0u);
    EXPECT_GT(counter_value("swm.halo_bytes"), 0u);
  }
  ASSERT_GT(events.size(), 0u);
  for (const auto& report : reports) {
    EXPECT_EQ(report.rounds, 1)
        << "the scheduled crash must trigger one recovery round";
  }

  const std::string json = obs::to_chrome_json(events);
  const auto v = obs::validate_chrome_json(json);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, events.size());
  EXPECT_GT(v.spans, 0u);
}

// The validator is not a rubber stamp: hand-built malformed traces of
// each rejected class must fail with a diagnostic.
TEST(ChromeSchema, ValidatorRejectsMalformedTraces) {
  const char* meta =
      R"({"name":"process_name","ph":"M","pid":1,"tid":0,)"
      R"("args":{"name":"t"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":1000,)"
      R"("args":{"name":"pool/0"}})";

  const auto wrap = [&](const std::string& body) {
    return std::string(R"({"traceEvents":[)") + meta +
           (body.empty() ? "" : ",") + body + "]}";
  };

  // Well-formed baseline.
  EXPECT_TRUE(obs::validate_chrome_json(wrap("")).ok);
  EXPECT_TRUE(
      obs::validate_chrome_json(
          wrap(R"({"name":"s","ph":"B","pid":1,"tid":1000,"ts":1.0},)"
               R"({"name":"s","ph":"E","pid":1,"tid":1000,"ts":2.0})"))
          .ok);

  // Unbalanced: a span begin with no end.
  EXPECT_FALSE(
      obs::validate_chrome_json(
          wrap(R"({"name":"s","ph":"B","pid":1,"tid":1000,"ts":1.0})"))
          .ok);
  // Mismatched LIFO nesting.
  EXPECT_FALSE(
      obs::validate_chrome_json(
          wrap(R"({"name":"x","ph":"B","pid":1,"tid":1000,"ts":1.0},)"
               R"({"name":"y","ph":"B","pid":1,"tid":1000,"ts":2.0},)"
               R"({"name":"x","ph":"E","pid":1,"tid":1000,"ts":3.0},)"
               R"({"name":"y","ph":"E","pid":1,"tid":1000,"ts":4.0})"))
          .ok);
  // Timestamps moving backwards within a tid.
  EXPECT_FALSE(
      obs::validate_chrome_json(
          wrap(R"({"name":"a","ph":"i","pid":1,"tid":1000,"ts":5.0,"s":"t"},)"
               R"({"name":"b","ph":"i","pid":1,"tid":1000,"ts":4.0,"s":"t"})"))
          .ok);
  // Undeclared tid (no thread_name metadata).
  EXPECT_FALSE(
      obs::validate_chrome_json(
          wrap(R"({"name":"a","ph":"i","pid":1,"tid":2001,"ts":1.0,"s":"t"})"))
          .ok);
  // Unknown phase.
  EXPECT_FALSE(
      obs::validate_chrome_json(
          wrap(R"({"name":"a","ph":"X","pid":1,"tid":1000,"ts":1.0})"))
          .ok);
  // Not JSON at all.
  EXPECT_FALSE(obs::validate_chrome_json("]junk[").ok);
}

// ---------------------------------------------------------------------------
// Metrics registry semantics used by the exporters and benches.
// ---------------------------------------------------------------------------

TEST(Metrics, CountersGaugesHistograms) {
  REQUIRE_OBS_COMPILED();
  auto& reg = obs::metrics_registry::instance();
  reg.clear();
  obs::start();

  obs::metric_add("m.count");
  obs::metric_add("m.count", 4);
  obs::metric_set("m.gauge", 2.5);
  static constexpr double uppers[] = {1.0, 10.0};
  obs::metric_observe("m.hist", uppers, 0.5);
  obs::metric_observe("m.hist", uppers, 5.0);
  obs::metric_observe("m.hist", uppers, 50.0);
  obs::stop();

  EXPECT_EQ(reg.get_counter("m.count").value(), 5u);
  EXPECT_EQ(reg.get_gauge("m.gauge").value(), 2.5);
  auto& h = reg.get_histogram("m.hist", uppers);
  ASSERT_EQ(h.buckets(), 3u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);  // +inf overflow
  EXPECT_EQ(h.total(), 3u);

  // The flat table export carries one row per counter/gauge and one
  // per histogram bucket.
  const table t = reg.to_table();
  ASSERT_GE(t.rows(), 5u);

  // reset() zeroes values but keeps registrations and bucket layouts.
  reg.reset();
  EXPECT_EQ(reg.get_counter("m.count").value(), 0u);
  EXPECT_EQ(h.total(), 0u);
  ASSERT_EQ(h.buckets(), 3u);
}
