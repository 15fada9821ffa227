/// swm-serial: the fused model<double> step at 512x256 on a pool of 1.
/// About 25 MB of state: past the L2, inside the LLC. The step is nearly
/// all swm RHS, kernels sweeps and core::thread_pool; no ensemble,
/// mpisim or soft-float code runs. The traced ledger also runs it on a
/// pool of 2 (core.pool_efficiency).

#include <algorithm>
#include <memory>
#include <string_view>

#include "arch/a64fx.hpp"
#include "core/threadpool.hpp"
#include "kernels/stream.hpp"
#include "obs/trace.hpp"
#include "swm/model.hpp"
#include "swm/perfmodel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int nx = 512;
constexpr int ny = 256;
constexpr double cells = double(nx) * double(ny);
constexpr int setups = 8;
/// Timed steps after which the pool-of-2 oracle compares state; the
/// replay stays short.
constexpr int oracle_steps = 16;

using model_t = swm::model<double>;

/// One set-up: the pool, allocation, seeding and the warm step. The
/// model is declared after the pool it points to, so it dies first.
struct instance {
  std::unique_ptr<thread_pool> pool;
  std::unique_ptr<model_t> model;

  void release() {
    model.reset();
    pool.reset();
  }
};

instance make_instance(std::uint64_t seed, int threads) {
  instance in;
  in.pool = std::make_unique<thread_pool>(threads);
  swm::swm_params p;
  p.nx = nx;
  p.ny = ny;
  in.model = std::make_unique<model_t>(p);
  in.model->attach_pool(in.pool.get());
  in.model->seed_random_eddies(seed, 0.5);
  in.model->step();
  return in;
}

std::uint64_t state_hash(const model_t& m) {
  std::uint64_t h = fnv_offset;
  for (const auto* s : {&m.prognostic(), &m.compensation()}) {
    h = fnv1a_of(s->u.flat(), h);
    h = fnv1a_of(s->v.flat(), h);
    h = fnv1a_of(s->eta.flat(), h);
  }
  return h;
}

/// Untraced step() timings (ms) for `seconds`, at least `min_steps`.
std::vector<double> time_steps(model_t& m, double seconds, int min_steps) {
  std::vector<double> ms;
  const double start = now_s();
  while (now_s() - start < seconds || static_cast<int>(ms.size()) < min_steps) {
    const double t0 = now_s();
    m.step();
    ms.push_back((now_s() - t0) * 1e3);
  }
  return ms;
}

}  // namespace

run_outcome run_swm_serial(const run_config& cfg) {
  run_outcome out;
  // Each set-up serves an equal share of the timed window, so the
  // fastest steps do not hang on where one allocation's pages land, and
  // runs on the next CPU. Every segment replays the same seeded
  // trajectory. One thread: two threads run at the fast speed only
  // when both their CPUs are free of other guests at once, which in
  // busy hours no step of a run did.
  std::vector<double> ms;
  std::vector<std::uint64_t> got;
  cpu_rotation rotation;
  for (int i = 0; i < setups; ++i) {
    rotation.next(1);
    const double t0 = now_s();
    instance in = make_instance(cfg.seed, 1);
    out.e2e.setup_s.push_back(now_s() - t0);
    const double start = now_s();
    for (int k = 1; k <= oracle_steps || now_s() - start < cfg.seconds / setups;
         ++k) {
      const double s0 = now_s();
      in.model->step();
      ms.push_back((now_s() - s0) * 1e3);
      out.ops.ok(ms.back());
      if (k == oracle_steps) got.push_back(state_hash(*in.model));
    }
  }
  out.e2e.peak_rss_mb = peak_rss_mb();

  // Oracle: every segment's state after 16 timed steps is bit-identical
  // to a pool-of-2 run.
  instance two = make_instance(cfg.seed, 2);
  for (int s = 0; s < oracle_steps; ++s) two.model->step();
  const std::uint64_t want = state_hash(*two.model);
  for (const std::uint64_t h : got) {
    out.oracles.check("swm-serial: pool of 1 vs pool of 2 after 16 steps",
                      want, h);
  }

  out.e2e.parts_ms = {std::move(ms)};
  out.e2e.work_per_unit = cells;
  return out;
}

void trace_swm_serial(const run_config& cfg, run_outcome& out) {
  const double pass = cfg.seconds / 2;
  instance in = make_instance(cfg.seed, 1);
  model_t& m = *in.model;
  const double untraced = median(time_steps(m, pass, 10));

  span_log log(obs::domain::swm);
  std::vector<double> rhs_ms, apply_ms, step_ms;
  obs::start(trace_ring_events);
  const double start = now_s();
  for (std::uint64_t k = 0; now_s() - start < pass || k < 10; ++k) {
    const double t0 = obs::host_now();
    m.step_stages();
    const double t1 = obs::host_now();
    m.step_apply();
    const double t2 = obs::host_now();
    m.finish_step();
    const double t3 = obs::host_now();
    const auto root = log.add("swm.step", k, t0, t3, -1, 100);
    log.add("swm.rhs", k, t0, t1, root);
    log.add("swm.apply", k, t1, t2, root);
    rhs_ms.push_back((t1 - t0) * 1e3);
    apply_ms.push_back((t2 - t1) * 1e3);
    step_ms.push_back((t3 - t0) * 1e3);
    out.ops.ok(step_ms.back());
  }
  // One library step(): it emits the swm.update_bytes counter sample
  // (measured bytes, predicted bytes).
  m.step();
  obs::stop();
  auto events = obs::collect();

  const std::uint64_t predicted =
      swm::predict_step(arch::fugaku_node, nx, ny, swm::config_float64())
          .update_bytes;
  std::uint64_t measured = 0;
  for (const obs::event& e : events) {
    if (e.what != obs::kind::counter ||
        std::string_view(e.name) != "swm.update_bytes") {
      continue;
    }
    measured = e.a;
    out.oracles.check("swm.update_bytes counter: measured vs its prediction",
                      e.b, e.a);
  }
  out.oracles.check("swm.update_bytes: measured vs predict_step", predicted,
                    measured);

  // Roofline reference: a triad whose arrays are each 4x the LLC.
  const std::size_t llc = llc_bytes() > 0 ? llc_bytes() : std::size_t{64} << 20;
  const std::size_t n = 4 * llc / sizeof(double);
  double triad_gbs = 0;
  {
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    std::vector<double> gbs;
    for (int r = 0; r < 5; ++r) {
      const double t0 = now_s();
      kernels::stream_triad<double>(3.0, b, c, a);
      gbs.push_back(3.0 * static_cast<double>(n) * sizeof(double) /
                    (now_s() - t0) / 1e9);
    }
    triad_gbs = median(gbs);
  }

  // The same problem on a pool of 2, against the single thread above.
  in.release();
  instance two = make_instance(cfg.seed, 2);
  const double pair = median(time_steps(*two.model, pass / 2, 10));

  // Computed apply traffic: 3 fields x (prog + k1..k4 read, prog
  // written) x 8 B per cell; cache misses are not counted.
  const double apply_gbs =
      3.0 * 6.0 * 8.0 * cells / (median(apply_ms) * 1e-3) / 1e9;
  out.layers.add("swm.rhs_ms.p50", median(rhs_ms), "ms");
  out.layers.add("swm.apply_ms.p50", median(apply_ms), "ms");
  out.layers.add("kernels.apply_gbs", apply_gbs, "GB/s");
  out.layers.add("kernels.triad_gbs", triad_gbs, "GB/s");
  out.layers.add("kernels.apply_roofline_frac", apply_gbs / triad_gbs, "ratio");
  out.layers.add("core.pool_efficiency", untraced / (2.0 * pair), "ratio");
  out.layers.add("swm.update_bytes", static_cast<double>(measured), "B");
  out.notes.push_back("swm-serial: triad arrays " +
                      std::to_string(n * sizeof(double) >> 20) +
                      " MiB each (LLC " + std::to_string(llc >> 20) +
                      " MiB), one thread; apply runs on a pool of 1");
  report_layers(out, "swm-serial", log, median(step_ms), untraced);
  write_trace(out, cfg, "swm-serial", std::move(events), log);
}

}  // namespace perfbench
