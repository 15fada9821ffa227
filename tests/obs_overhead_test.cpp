// Zero-overhead contract of the observability plane (src/obs).
//
// The contract under test: instrumentation must be free when it is
// off and cheap when it is on. Concretely - with tracing disabled at
// runtime, the fused SWM step loop allocates nothing and advances the
// exact same bits as it would with the plane compiled out; with
// tracing *enabled*, the hot loop allocates nothing after the first
// (warm-up) step - ring registration and metric creation are one-time
// costs - and tracing never perturbs the physics: a traced trajectory
// is bit-identical to an untraced one.

// The replacement operator new/delete below route through malloc/free;
// GCC's heuristic cannot see that the pair matches and warns at every
// inlined delete site in this translation unit.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "core/threadpool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/model.hpp"

using namespace tfx;
using namespace tfx::swm;

// ---------------------------------------------------------------------------
// Global allocation counter (the mpisim_fault_test idiom): every
// operator new in the process bumps it, so a window of zero proves the
// hot loop touched no heap at all.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

swm_params test_params() {
  swm_params p;
  p.nx = 32;
  p.ny = 16;
  return p;
}

/// The prognostic state's raw bits, for bitwise trajectory comparison.
std::vector<double> state_bits(const model<double>& m) {
  const auto& s = m.prognostic();
  std::vector<double> out;
  const auto append = [&out](std::span<const double> f) {
    out.insert(out.end(), f.begin(), f.end());
  };
  append(s.u.flat());
  append(s.v.flat());
  append(s.eta.flat());
  return out;
}

std::uint64_t allocs_during(const auto& fn) {
  const std::uint64_t before = g_allocs.load();
  fn();
  return g_allocs.load() - before;
}

}  // namespace

// ---------------------------------------------------------------------------
// Disabled plane: the fused step loop is allocation-free, serial and
// pooled alike. (The TFX_OBS=OFF build strips the instrumentation
// textually; this pins the runtime-disabled path, whose only residue
// is one relaxed load and a branch per site.)
// ---------------------------------------------------------------------------

TEST(ZeroOverhead, DisabledSerialStepsAllocationFree) {
  ASSERT_FALSE(obs::active());
  model<double> m(test_params());
  m.seed_random_eddies(3, 0.5);
  m.run(2);  // steady state: lazy one-time setup out of the window
  EXPECT_EQ(allocs_during([&] { m.run(4); }), 0u);
}

TEST(ZeroOverhead, DisabledPooledStepsAllocationFree) {
  ASSERT_FALSE(obs::active());
  thread_pool pool(3);
  model<double> m(test_params());
  ASSERT_TRUE(test_params().ny >= 2 * pool.size())
      << "grid too small to engage the pool";
  m.attach_pool(&pool);
  m.seed_random_eddies(3, 0.5);
  m.run(2);
  EXPECT_EQ(allocs_during([&] { m.run(4); }), 0u);
}

// ---------------------------------------------------------------------------
// Enabled plane: after one warm-up step (thread-ring registration,
// metric-name creation) the instrumented hot loop is heap-free too.
// ---------------------------------------------------------------------------

TEST(ZeroOverhead, EnabledSerialStepsAllocationFreeAfterWarmup) {
  if (!obs::compiled) GTEST_SKIP() << "TFX_OBS=OFF";
  obs::metrics_registry::instance().clear();
  obs::start();
  model<double> m(test_params());
  m.seed_random_eddies(3, 0.5);
  m.run(2);  // warm-up: ring + metric registrations happen here
  EXPECT_EQ(allocs_during([&] { m.run(4); }), 0u);
  obs::stop();
  EXPECT_EQ(obs::dropped(), 0u);
  EXPECT_EQ(
      obs::metrics_registry::instance().get_counter("swm.steps").value(), 6u);
}

TEST(ZeroOverhead, EnabledPooledStepsAllocationFreeAfterWarmup) {
  if (!obs::compiled) GTEST_SKIP() << "TFX_OBS=OFF";
  obs::metrics_registry::instance().clear();
  obs::start();
  {
    thread_pool pool(3);
    model<double> m(test_params());
    m.attach_pool(&pool);
    m.seed_random_eddies(3, 0.5);
    m.run(2);  // warm-up: every worker's ring registers here
    EXPECT_EQ(allocs_during([&] { m.run(4); }), 0u);
    obs::stop();
  }
  const auto events = obs::collect();
  EXPECT_EQ(obs::dropped(), 0u);
  // The pool's occupancy instrumentation recorded alongside the SWM
  // spans: both domains present, from multiple tracks.
  bool saw_pool = false, saw_swm = false;
  for (const auto& e : events) {
    saw_pool = saw_pool || e.dom == obs::domain::pool;
    saw_swm = saw_swm || e.dom == obs::domain::swm;
  }
  EXPECT_TRUE(saw_pool);
  EXPECT_TRUE(saw_swm);
}

// ---------------------------------------------------------------------------
// Tracing is an observer: a traced trajectory advances bit-for-bit the
// same state as an untraced one, standard and compensated.
// ---------------------------------------------------------------------------

TEST(ZeroOverhead, TracedTrajectoryBitIdenticalToUntraced) {
  for (const auto scheme :
       {integration_scheme::standard, integration_scheme::compensated}) {
    model<double> plain(test_params(), scheme);
    plain.seed_random_eddies(11, 0.5);
    plain.run(6);
    const auto want = state_bits(plain);

    obs::metrics_registry::instance().clear();
    obs::start();
    model<double> traced(test_params(), scheme);
    traced.seed_random_eddies(11, 0.5);
    traced.run(6);
    obs::stop();
    const auto got = state_bits(traced);

    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(double)))
        << "tracing perturbed the trajectory";

    // The trace really recorded the steps it watched: 6 step spans,
    // each nesting 4 rk4.stage spans and one rk4.apply, plus the
    // measured-vs-predicted traffic counter. (Bit-identity above is
    // meaningful either way; the event census needs the plane in.)
    if (!obs::compiled) continue;
    const auto events = obs::collect();
    std::size_t steps = 0, stages = 0, applies = 0, counters = 0;
    for (const auto& e : events) {
      if (e.dom != obs::domain::swm) continue;
      if (e.what == obs::kind::begin &&
          std::strcmp(e.name, "swm.step") == 0) {
        ++steps;
      }
      if (e.what == obs::kind::begin &&
          std::strcmp(e.name, "rk4.stage") == 0) {
        ++stages;
      }
      if (e.what == obs::kind::begin &&
          std::strcmp(e.name, "rk4.apply") == 0) {
        ++applies;
      }
      if (e.what == obs::kind::counter &&
          std::strcmp(e.name, "swm.update_bytes") == 0) {
        ++counters;
        // The model's own sweep accounting agrees with the
        // perfmodel's source-derived prediction exactly.
        EXPECT_EQ(e.a, e.b) << "measured != predicted update bytes";
      }
    }
    EXPECT_EQ(steps, 6u);
    EXPECT_EQ(stages, 24u);
    EXPECT_EQ(applies, 6u);
    EXPECT_EQ(counters, 6u);
  }
}
