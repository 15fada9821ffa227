/// dist-halo: distributed_model<double> at 256x128 on mpisim::world(4)
/// over the shm transport, default overlapped halos, a max-speed
/// allreduce every 10 steps and a buddy checkpoint commit every 8. The
/// compute per rank is small, so the halo engine, transport,
/// collectives and checkpoint writes dominate. No ensemble or DES code
/// runs.

#include <algorithm>
#include <atomic>
#include <climits>
#include <string_view>

#include "mpisim/collectives.hpp"
#include "mpisim/runtime.hpp"
#include "obs/trace.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"
#include "swm/perfmodel.hpp"
#include "swm/resilience.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int nx = 256;
constexpr int ny = 128;
constexpr int ranks = 4;
constexpr int allreduce_every = 10;
constexpr int commit_every = 8;
/// The timed unit: 40 steps, so every unit holds the same 4 allreduces
/// and 5 commits. Its parts are its 40 step positions, each timed on its
/// own, so a change to either shows in every unit's time.
constexpr int block_steps = 40;
constexpr int setups = 8;
/// The model step at which the gathered state is compared with the
/// serial model: past 25 commits and 20 allreduces.
constexpr int oracle_step = 200;
/// Steps every rank still takes after rank 0 calls time. Ranks stay
/// within a step or two of each other (each step needs its neighbours'
/// halos), so all of them read the stop step before reaching it.
constexpr int stop_margin = 16;

swm::swm_params params() {
  swm::swm_params p;
  p.nx = nx;
  p.ny = ny;
  return p;
}

mpisim::transport_options shm() {
  mpisim::transport_options t;
  t.kind = mpisim::transport_kind::shm;
  return t;
}

swm::state<double> seeded_global(std::uint64_t seed) {
  swm::model<double> m(params());
  m.seed_random_eddies(seed, 0.5);
  return m.prognostic();
}

std::uint64_t state_hash(const swm::state<double>& s) {
  std::uint64_t h = fnv1a_of(s.u.flat());
  h = fnv1a_of(s.v.flat(), h);
  return fnv1a_of(s.eta.flat(), h);
}

struct rank_samples {
  std::vector<double> step_ms;
  std::vector<double> allreduce_us;
  std::vector<double> commit_ms;
};

/// State the rank threads share with the driving thread. Each rank
/// writes only its own samples; rank 0 alone writes the rest.
struct loop_shared {
  std::atomic<int> stop_at{INT_MAX};
  double setup_end = 0;
  /// Rank 0's step times by position in the 40-step block.
  std::vector<std::vector<double>> position_ms =
      std::vector<std::vector<double>>(block_steps);
  std::uint64_t oracle_hash = 0;
  std::vector<rank_samples> ranks = std::vector<rank_samples>(perfbench::ranks);
};

struct loop_options {
  double seconds = 1;
  bool oracle = false;
  span_log* log = nullptr;  ///< rank 0's spans in the traced pass
};

/// One rank: model construction and the warm step (the set-up), then
/// the timed loop. Each sample is rank-local host time around the whole
/// collective step: step(), plus the allreduce or the commit it ends with.
void rank_body(mpisim::communicator& comm, const swm::state<double>& global,
               const loop_options& o, loop_shared& sh) {
  swm::distributed_model<double> model(comm, params());
  model.set_from_global(global);
  swm::resilient_session<double> session(comm, model, {});
  model.step();
  mpisim::barrier(comm);
  const bool root = comm.rank() == 0;
  if (root) sh.setup_end = now_s();

  const auto clock = [&] { return o.log != nullptr ? obs::host_now() : now_s(); };
  rank_samples& mine = sh.ranks[static_cast<std::size_t>(comm.rank())];
  const double start = now_s();
  while (model.steps_taken() < sh.stop_at.load()) {
    const double t0 = clock();
    model.step();
    const double t1 = clock();
    const int k = model.steps_taken();
    double t2 = t1;
    if (k % allreduce_every == 0) {
      (void)model.global_max_speed();
      t2 = clock();
      mine.allreduce_us.push_back((t2 - t1) * 1e6);
    }
    double t3 = t2;
    if (k % commit_every == 0) {
      session.checkpoint_commit();
      t3 = clock();
      mine.commit_ms.push_back((t3 - t2) * 1e3);
    }
    mine.step_ms.push_back((t3 - t0) * 1e3);
    if (root) sh.position_ms[k % block_steps].push_back((t3 - t0) * 1e3);
    if (root && o.log != nullptr) {
      const auto id = static_cast<std::uint64_t>(k);
      const auto span = o.log->add("dist.step", id, t0, t3, -1, 100);
      o.log->add("swm.step", id, t0, t1, span);
      if (t2 > t1) o.log->add("mpisim.allreduce", id, t1, t2, span);
      if (t3 > t2) o.log->add("swm.ckpt_commit", id, t2, t3, span);
    }
    if (o.oracle && k == oracle_step) {
      const swm::state<double> g = model.gather_global();
      if (root) sh.oracle_hash = state_hash(g);
    }
    if (root && sh.stop_at.load() == INT_MAX && now_s() - start >= o.seconds) {
      sh.stop_at.store(std::max(k + stop_margin, o.oracle ? oracle_step + 1 : 0));
    }
  }
}

}  // namespace

run_outcome run_dist_halo(const run_config& cfg) {
  run_outcome out;
  // Each set-up serves an equal share of the timed window, so no world
  // is built only to measure its set-up.
  std::vector<std::vector<double>>& parts = out.e2e.parts_ms;
  parts.resize(block_steps);
  std::vector<std::uint64_t> got;
  for (int i = 0; i < setups; ++i) {
    loop_shared sh;
    const double t0 = now_s();
    const swm::state<double> global = seeded_global(cfg.seed);
    mpisim::world w(ranks, mpisim::tofud_params{}, shm());
    w.run([&](mpisim::communicator& comm) {
      rank_body(comm, global, {cfg.seconds / setups, true, nullptr}, sh);
    });
    out.e2e.setup_s.push_back(sh.setup_end - t0);
    for (int k = 0; k < block_steps; ++k) {
      parts[k].insert(parts[k].end(), sh.position_ms[k].begin(),
                      sh.position_ms[k].end());
    }
    for (const double x : sh.ranks[0].step_ms) out.ops.ok(x);
    got.push_back(sh.oracle_hash);
  }
  out.e2e.peak_rss_mb = peak_rss_mb();

  // Oracle: every world's state at step 200 is bit-identical to the
  // serial model, checkpoint commits and allreduces included.
  swm::model<double> serial(params());
  serial.seed_random_eddies(cfg.seed, 0.5);
  serial.run(oracle_step);
  for (const std::uint64_t h : got) {
    out.oracles.check("dist-halo: gathered state vs serial model<double>",
                      state_hash(serial.prognostic()), h);
  }

  out.e2e.work_per_unit = double(nx) * ny * block_steps;
  return out;
}

void trace_dist_halo(const run_config& cfg, run_outcome& out) {
  const double pass = cfg.seconds / 2;
  std::vector<double> world_ms, spawn_ms;
  for (int i = 0; i < 20; ++i) {
    const double t0 = now_s();
    mpisim::world w(ranks, mpisim::tofud_params{}, shm());
    const double t1 = now_s();
    w.run([](mpisim::communicator&) {});
    spawn_ms.push_back((now_s() - t1) * 1e3);
    world_ms.push_back((t1 - t0) * 1e3);
  }

  const swm::state<double> global = seeded_global(cfg.seed);
  double untraced = 0;
  double imbalance = 0;
  {
    loop_shared sh;
    mpisim::world w(ranks, mpisim::tofud_params{}, shm());
    w.run([&](mpisim::communicator& comm) {
      rank_body(comm, global, {pass / 2, false, nullptr}, sh);
    });
    std::vector<double> medians;
    for (const rank_samples& r : sh.ranks) medians.push_back(median(r.step_ms));
    untraced = medians[0];
    imbalance = *std::max_element(medians.begin(), medians.end()) /
                *std::min_element(medians.begin(), medians.end());
  }

  span_log log(obs::domain::swm);
  loop_shared sh;
  mpisim::world w(ranks, mpisim::tofud_params{}, shm());
  obs::start(trace_ring_events);
  w.run([&](mpisim::communicator& comm) {
    rank_body(comm, global, {pass / 2, false, &log}, sh);
  });
  obs::stop();
  std::vector<obs::event> events = obs::collect();
  for (const double ms : sh.ranks[0].step_ms) out.ops.ok(ms);

  // Ping-pong probe between ranks 0 and 1 of the same world, untraced.
  std::vector<double> pp8, pp64k;
  w.run([&](mpisim::communicator& comm) {
    if (comm.rank() > 1) return;
    for (const std::size_t bytes : {std::size_t{8}, std::size_t{65536}}) {
      std::vector<std::byte> buf(bytes);
      std::vector<double>& us = bytes == 8 ? pp8 : pp64k;
      for (int i = 0; i < 1100; ++i) {
        if (comm.rank() == 0) {
          const double t0 = now_s();
          comm.send_bytes(buf, 1, 7);
          comm.recv_bytes(buf, 1, 7);
          if (i >= 100) us.push_back((now_s() - t0) / 2 * 1e6);
        } else {
          comm.recv_bytes(buf, 0, 7);
          comm.send_bytes(buf, 0, 7);
        }
      }
    }
  });

  // Exact counters: the measured halo traffic equals predict_halo, and
  // the virtual step time is rank 0's swm.step span on its own clock.
  const swm::halo_cost predicted =
      swm::predict_halo(mpisim::tofud_params{}, nx, sizeof(double), ranks,
                        swm::halo_mode::aggregated_overlap);
  std::uint64_t bytes = 0, messages = 0;
  bool bytes_exact = true, messages_exact = true;
  std::vector<double> virtual_us;
  double opened = 0;
  for (const obs::event& e : events) {
    const std::string_view name(e.name);
    if (e.what == obs::kind::counter && name == "swm.halo_bytes") {
      bytes = e.a;
      bytes_exact = bytes_exact && e.a == predicted.bytes;
    } else if (e.what == obs::kind::counter && name == "swm.halo_messages") {
      messages = e.a;
      messages_exact = messages_exact && e.a == predicted.messages;
    } else if (e.dom == obs::domain::swm && e.track == 0 && name == "swm.step") {
      if (e.what == obs::kind::begin) opened = e.ts;
      if (e.what == obs::kind::end) virtual_us.push_back((e.ts - opened) * 1e6);
    }
  }
  out.oracles.check("swm.halo_bytes: every step equals predict_halo",
                    predicted.bytes, bytes_exact ? bytes : ~bytes);
  out.oracles.check("swm.halo_messages: every step equals predict_halo",
                    predicted.messages, messages_exact ? messages : ~messages);

  out.layers.add("mpisim.world_setup_ms", median(world_ms), "ms");
  out.layers.add("mpisim.run_spawn_ms", median(spawn_ms), "ms");
  out.layers.add("mpisim.rank_imbalance", imbalance, "ratio");
  out.layers.add("mpisim.allreduce_us.p50", median(sh.ranks[0].allreduce_us), "us");
  out.layers.add("mpisim.pingpong_us.8b", median(pp8), "us");
  out.layers.add("mpisim.pingpong_us.64k", median(pp64k), "us");
  out.layers.add("swm.ckpt_commit_ms.p50", median(sh.ranks[0].commit_ms), "ms");
  out.layers.add("swm.halo_messages", static_cast<double>(messages), "count");
  out.layers.add("swm.halo_bytes", static_cast<double>(bytes), "B");
  out.layers.add("swm.virtual_step_us", median(virtual_us), "virtual_us");
  out.notes.push_back("dist-halo: predict_halo " +
                      std::to_string(predicted.seconds * 1e6) +
                      " virtual us per step (uncontended alpha-beta bound)");
  report_layers(out, "dist-halo", log, median(sh.ranks[0].step_ms), untraced);
  write_trace(out, cfg, "dist-halo", std::move(events), log);
}

}  // namespace perfbench
