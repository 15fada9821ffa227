// Ablation: what the observability plane costs the hot loop.
//
// Three regimes of the fused RK4 step (tests/obs_overhead_test pins
// the allocation-freeness; this bench puts numbers on the time):
//  * off    - the plane is compiled in but runtime-disabled; every
//             instrumentation site is one relaxed load and a branch.
//             This is the regime production runs pay by default.
//  * active - tracing on, every step recording spans, stage spans and
//             the traffic counter into the per-thread rings.
//  * drain  - tracing on with a deliberately tiny ring, so the steady
//             state exercises the drop-and-count path.
//
// The contract (ROADMAP: observability): `off` stays within noise of a
// TFX_OBS=OFF build - the JSON records the compiled flag so a CI run of
// both builds can diff the medians directly.
//
// Results also go to a machine-readable JSON file (--json, default
// BENCH_obs.json) for the CI trend line.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/threadpool.hpp"
#include "core/timer.hpp"
#include "core/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/model.hpp"

using namespace tfx;
using namespace tfx::swm;

namespace {

struct regime_result {
  std::string regime;
  double median_step_s = 0;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;

  [[nodiscard]] double overhead_vs(const regime_result& base) const {
    return median_step_s / base.median_step_s - 1.0;
  }
};

/// Median per-step time of `steps` fused RK4 steps, best behaviour of
/// `reps` repetitions (median-of-medians keeps the figure stable under
/// machine noise, same instrument discipline as ablation_fusion).
double median_step_seconds(swm_params p, thread_pool* pool, int steps,
                           int reps) {
  std::vector<double> medians;
  for (int rep = 0; rep < reps; ++rep) {
    model<double> m(p);
    if (pool != nullptr) m.attach_pool(pool);
    m.seed_random_eddies(11, 0.4);
    m.step();  // warm: faults the arrays, registers rings, spins pool up
    std::vector<double> per_step;
    per_step.reserve(static_cast<std::size_t>(steps));
    for (int s = 0; s < steps; ++s) {
      stopwatch sw;
      m.step();
      per_step.push_back(sw.seconds());
    }
    std::nth_element(per_step.begin(),
                     per_step.begin() + per_step.size() / 2, per_step.end());
    medians.push_back(per_step[per_step.size() / 2]);
  }
  return *std::min_element(medians.begin(), medians.end());
}

regime_result measure(const std::string& regime, swm_params p,
                      thread_pool* pool, int steps, int reps) {
  regime_result r;
  r.regime = regime;
  if (regime == "off") {
    r.median_step_s = median_step_seconds(p, pool, steps, reps);
    return r;
  }
  obs::metrics_registry::instance().clear();
  // "drain" uses a ring small enough that steady state is all drops, so
  // the measured cost includes the overflow path, not just the append.
  obs::start(regime == "drain" ? 64 : (1u << 20));
  r.median_step_s = median_step_seconds(p, pool, steps, reps);
  obs::stop();
  r.events = obs::collect().size();
  r.dropped = obs::dropped();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"nx", "grid width (default 1024)"},
            {"ny", "grid height (default 512)"},
            {"steps", "RK4 steps per repetition (default 24)"},
            {"reps", "repetitions per regime (default 3)"},
            {"threads", "thread-pool size (default: hardware concurrency)"},
            {"serial", "skip the thread pool (single-thread hot loop)"},
            {"json", "output path (default BENCH_obs.json)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  swm_params p;
  p.nx = static_cast<int>(args.get_int("nx", 1024));
  p.ny = static_cast<int>(args.get_int("ny", 512));
  const int steps = static_cast<int>(args.get_int("steps", 24));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = static_cast<int>(args.get_int("threads", hw));
  const std::string json = args.get_string("json", "BENCH_obs.json");

  std::printf("Ablation: observability-plane cost on the fused RK4 step.\n");
  std::printf("Plane compiled %s; trajectories are unperturbed either way\n",
              obs::compiled ? "IN (TFX_OBS=ON)" : "OUT (TFX_OBS=OFF)");
  std::puts("(tests/obs_overhead_test pins bit-identity and zero allocs).");

  std::vector<regime_result> results;
  {
    thread_pool pool(threads);
    thread_pool* use = args.has("serial") ? nullptr : &pool;
    for (const char* regime : {"off", "active", "drain"}) {
      results.push_back(measure(regime, p, use, steps, reps));
    }
  }

  std::printf("\n== Fused step, %dx%d, %d threads, %d steps x %d reps ==\n",
              p.nx, p.ny, args.has("serial") ? 1 : threads, steps, reps);
  table t({"regime", "median step", "overhead", "events", "dropped"});
  for (const auto& r : results) {
    t.add_row({r.regime, format_seconds(r.median_step_s),
               format_fixed(100.0 * r.overhead_vs(results[0]), 2) + "%",
               std::to_string(r.events), std::to_string(r.dropped)});
  }
  t.print(std::cout);

  std::puts("\n== Metrics registry after the active regimes ==");
  obs::metrics_registry::instance().to_table().print(std::cout);

  std::vector<bench_json::value> regimes;
  for (const auto& r : results) {
    regimes.push_back(bench_json::object(
        {{"regime", bench_json::string(r.regime)},
         {"median_step_seconds", bench_json::sci(r.median_step_s)},
         {"overhead_vs_off", bench_json::fixed(r.overhead_vs(results[0]), 6)},
         {"events", bench_json::integer(r.events)},
         {"dropped", bench_json::integer(r.dropped)}}));
  }
  bench_json::document doc;
  doc.member("bench", bench_json::string("ablation_obs"))
      .member("obs_compiled", bench_json::boolean(obs::compiled))
      .member("threads", bench_json::integer(args.has("serial") ? 1 : threads))
      .member("nx", bench_json::integer(p.nx))
      .member("ny", bench_json::integer(p.ny))
      .member("steps", bench_json::integer(steps))
      .rows("regimes", regimes);
  return doc.write(json) ? 0 : 1;
}
