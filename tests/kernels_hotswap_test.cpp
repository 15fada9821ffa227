// Hot-swap safety of the kernel dispatch layer: retargeting the
// trampoline (blas_registry::set_current) and the SIMD width policy
// (set_simd_width) while worker threads stream dispatched kernels must
// be race-free (run under TFX_SANITIZE=thread via the `threads` ctest
// label) and must never produce a wrong result — every backend and
// every width computes the same bits for the exact-arithmetic inputs
// used here. Also pins the allocation-freedom of the batched steady
// state: after warm-up, batched dispatch touches no heap.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "kernels/batched.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/registry.hpp"

using namespace tfx;

// ---------------------------------------------------------------------------
// Global allocation counter (the obs_overhead_test idiom): every
// operator new in the process bumps it, so a window of zero proves the
// steady state touched no heap at all.
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

namespace {
// Out of line: inlined into a delete site, free() would take a pointer
// from operator new there, which -Wmismatched-new-delete reports.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace {

std::uint64_t allocs_during(const auto& fn) {
  const std::uint64_t before = g_allocs.load();
  fn();
  return g_allocs.load() - before;
}

}  // namespace

TEST(HotSwap, ConcurrentSetCurrentWhileStreamingAxpy) {
  auto& reg = kernels::blas_registry::instance();
  ASSERT_TRUE(reg.set_current("Julia"));

  // Exactly representable values: a*x + y = 2 * 1.5 + 1 = 4 in every
  // backend's loop shape, fused or not, at any width. Any wrong result
  // under concurrency is a real bug, not rounding.
  const std::size_t n = 4096;
  const std::vector<double> x(n, 1.5);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sweeps{0};
  std::atomic<int> wrong{0};

  std::vector<std::thread> workers;
  const unsigned worker_count = 4;
  workers.reserve(worker_count);
  for (unsigned w = 0; w < worker_count; ++w) {
    workers.emplace_back([&] {
      std::vector<double> y(n);
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& v : y) v = 1.0;
        kernels::axpy_dispatch(2.0, std::span<const double>(x),
                               std::span<double>(y));
        for (const double v : y) {
          if (v != 4.0) {
            wrong.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        sweeps.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The swapper: retarget the trampoline across the five paper
  // backends' loop shapes, as fast as possible.
  const char* const targets[] = {"Julia", "BLIS", "OpenBLAS", "FujitsuBLAS",
                                 "ARMPL"};
  std::thread swapper([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(reg.set_current(targets[i % std::size(targets)]));
      ++i;
    }
  });

  // Run until every worker has streamed through a healthy number of
  // swaps (bounded by wall clock as a safety net).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sweeps.load() < 2000 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  swapper.join();
  for (auto& t : workers) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(sweeps.load(), 0u);
  ASSERT_TRUE(reg.set_current("Julia"));
}

TEST(HotSwap, ConcurrentWidthPolicySwapWhileStreamingBatched) {
  const std::size_t count = 64, len = 31;
  const std::vector<double> a(count, 2.0);
  const std::vector<double> x(count * len, 1.5);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sweeps{0};
  std::atomic<int> wrong{0};

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < 3; ++w) {
    workers.emplace_back([&] {
      std::vector<double> y(count * len);
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& v : y) v = 1.0;
        kernels::axpy_batched_dispatch<double>(a, x, y, len);
        for (const double v : y) {
          if (v != 4.0) {
            wrong.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        sweeps.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread swapper([&] {
    const std::size_t widths[] = {0, 128, 256, 512};
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(kernels::set_simd_width(widths[i % std::size(widths)]));
      ++i;
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sweeps.load() < 1000 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  swapper.join();
  for (auto& t : workers) t.join();

  EXPECT_EQ(wrong.load(), 0);
  kernels::reset_simd_width();
}

TEST(BatchedAllocation, SteadyStateIsAllocationFree) {
  ASSERT_TRUE(kernels::set_simd_width(512));

  const kernels::gemm_batch_shape s{16, 8, 8, 8};
  const std::vector<double> ga = [&] {
    std::vector<double> v(s.count * s.a_elems());
    for (auto& e : v) e = 1.0;
    return v;
  }();
  const std::vector<double> gb = ga;
  std::vector<double> gc(s.count * s.c_elems(), 0.0);

  const std::size_t count = 32, len = 24;
  const std::vector<double> a(count, 0.5);
  const std::vector<double> x(count * len, 2.0);
  std::vector<double> y(count * len, 1.0);
  std::vector<double> dots(count, 0.0);

  // Warm-up: registry init, lazy statics, anything first-call.
  kernels::axpy_batched_dispatch<double>(a, x, y, len);
  kernels::dot_batched_dispatch<double>(x, x, dots, len);
  kernels::gemm_batched_dispatch<double>(s, 1.0, ga, gb, 0.0, gc);
  kernels::axpy_dispatch(0.5, std::span<const double>(x),
                         std::span<double>(y));

  // Steady state: repeated batched calls with preallocated buffers
  // must perform ZERO heap allocations (the whole point of the batched
  // path is that per-problem overhead — dispatch, spans, loop setup —
  // vanishes; an allocation would dwarf the arithmetic at these sizes).
  const std::uint64_t allocs = allocs_during([&] {
    for (int rep = 0; rep < 50; ++rep) {
      kernels::axpy_batched_dispatch<double>(a, x, y, len);
      kernels::dot_batched_dispatch<double>(x, x, dots, len);
      kernels::gemm_batched_dispatch<double>(s, 1.0, ga, gb, 0.0, gc);
    }
  });
  EXPECT_EQ(allocs, 0u);

  // The single-call trampoline stays allocation-free too.
  const std::uint64_t single = allocs_during([&] {
    for (int rep = 0; rep < 50; ++rep) {
      kernels::axpy_dispatch(0.5, std::span<const double>(x),
                             std::span<double>(y));
    }
  });
  EXPECT_EQ(single, 0u);

  kernels::reset_simd_width();
}
