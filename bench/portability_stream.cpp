// § IV-A / ref [20] (Lin & McIntosh-Smith, PMBS'21): BabelStream-style
// kernels comparing Julia against C/C++ on A64FX. Reproduced claims:
//
//   * "Julia could achieve on this platform performance close to that
//     of equivalent code written in C/C++";
//   * "the performance improved sensibly when moving from Julia v1.6
//     (LLVM 11) to Julia v1.7 (LLVM 12)".
//
// Modeled sustained bandwidth for the five kernels under the three
// code-generation personalities, at BabelStream's canonical array size
// (2^25 doubles = 256 MiB, firmly in HBM), plus a host wall-clock
// column for the actual generic C++ templates as a shape check.
//
// A second section scales STREAM triad and axpy across 1..12 cores of
// one A64FX CMG (modeled), next to the host thread-pool wall-clock of
// the real parallel triad. The modeled curve shows the A64FX signature
// the co-design papers report: near-linear compute scaling but memory
// bandwidth saturating at the CMG aggregate around 4-6 cores - the
// reason the Fig. 5 performance model charges a 1/12 L2 share per core.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "arch/roofline.hpp"
#include "core/table.hpp"
#include "core/threadpool.hpp"
#include "core/timer.hpp"
#include "core/units.hpp"
#include "kernels/parallel.hpp"
#include "kernels/stream.hpp"

using namespace tfx;
using namespace tfx::kernels;

namespace {

double host_gbs(stream_kernel k, std::size_t n) {
  std::vector<double> a(n, 1.0), b(n, 2.0), c(n, 0.5);
  const double s = 0.4;
  volatile double sink = 0;
  auto run = [&] {
    switch (k) {
      case stream_kernel::copy:
        stream_copy<double>(a, c);
        break;
      case stream_kernel::mul:
        stream_mul<double>(s, c, b);
        break;
      case stream_kernel::add:
        stream_add<double>(a, b, c);
        break;
      case stream_kernel::triad:
        stream_triad<double>(s, b, c, a);
        break;
      case stream_kernel::dot:
        sink = stream_dot<double>(a, b);
        break;
    }
  };
  (void)sink;
  const auto t = measure(run, 5, 5e-3);
  const auto res = stream_kernel_resources(k);
  return (res.loads + res.stores) * static_cast<double>(n) * 8.0 / t.min() /
         1e9;
}

double host_triad_gbs(int threads, std::size_t n) {
  thread_pool pool(threads);
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  const auto t = measure(
      [&] {
        triad_parallel(pool, 0.5, std::span<const double>(b),
                       std::span<const double>(c), std::span<double>(a));
      },
      5, 5e-3);
  return 3.0 * static_cast<double>(n) * 8.0 / t.min() / 1e9;
}

void cmg_scaling() {
  std::puts("\nCMG core scaling: modeled A64FX STREAM triad vs core count.");
  const std::size_t n = 1 << 24;  // 128-MiB arrays: HBM regime
  table t({"cores", "triad GB/s (model)", "scaling", "axpy GFLOPS (model)"});
  double base = 0;
  for (const int cores : {1, 2, 4, 6, 8, 12}) {
    const auto machine = arch::cmg_view(arch::fugaku_node, cores);
    const double gbs = modeled_stream_gbs(machine, stream_kernel::triad,
                                          stream_cxx, n, 8);
    if (cores == 1) base = gbs;
    arch::kernel_profile axpy;  // default = axpy shape
    const auto m = arch::predict(machine, axpy, n, 8, 2 * n * 8);
    t.add_row({std::to_string(cores), format_fixed(gbs, 1),
               format_fixed(gbs / base, 2), format_fixed(m.gflops, 1)});
  }
  t.print(std::cout);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("\nHost thread-pool triad (for reference, %u hw threads):\n",
              hw);
  table h({"threads", "triad GB/s (host)"});
  for (unsigned threads = 1; threads <= std::min(hw, 4u); threads *= 2) {
    h.add_row({std::to_string(threads),
               format_fixed(host_triad_gbs(static_cast<int>(threads),
                                           1 << 22), 1)});
  }
  h.print(std::cout);

  std::puts("\nBandwidth saturates near the CMG aggregate while compute");
  std::puts("keeps scaling - the same imbalance that makes reduced");
  std::puts("precision (fewer bytes per value) the lever of Fig. 5.");
}

}  // namespace

int main() {
  std::puts("BabelStream-style kernels on the modeled A64FX (ref [20]).");
  std::puts("Expected: Julia v1.7 within a few % of C/C++; Julia v1.6");
  std::puts("(LLVM 11, no full SVE) clearly behind.\n");

  const std::size_t n = std::size_t{1} << 25;  // 256 MiB arrays: HBM regime
  const std::size_t n_host = std::size_t{1} << 23;  // gentler on the host

  table t({"kernel", "C/C++ GB/s", "Julia v1.7 GB/s", "v1.7/C",
           "Julia v1.6 GB/s", "v1.6/C", "host C++ GB/s"});
  for (const auto k : {stream_kernel::copy, stream_kernel::mul,
                       stream_kernel::add, stream_kernel::triad,
                       stream_kernel::dot}) {
    const double cxx = modeled_stream_gbs(arch::fugaku_node, k, stream_cxx,
                                          n, sizeof(double));
    const double j17 = modeled_stream_gbs(arch::fugaku_node, k,
                                          stream_julia17, n, sizeof(double));
    const double j16 = modeled_stream_gbs(arch::fugaku_node, k,
                                          stream_julia16, n, sizeof(double));
    t.add_row({std::string(stream_kernel_name(k)), format_fixed(cxx, 1),
               format_fixed(j17, 1), format_fixed(j17 / cxx, 3),
               format_fixed(j16, 1), format_fixed(j16 / cxx, 3),
               format_fixed(host_gbs(k, n_host), 1)});
  }
  t.print(std::cout);

  std::puts("\nIn-cache comparison (64 KiB working set), where codegen");
  std::puts("quality rather than HBM bandwidth decides:");
  table t2({"kernel", "C/C++ GB/s", "Julia v1.7 GB/s", "Julia v1.6 GB/s"});
  const std::size_t n_small = 2048;
  for (const auto k : {stream_kernel::copy, stream_kernel::triad,
                       stream_kernel::dot}) {
    t2.add_row({std::string(stream_kernel_name(k)),
                format_fixed(modeled_stream_gbs(arch::fugaku_node, k,
                                                stream_cxx, n_small, 8), 1),
                format_fixed(modeled_stream_gbs(arch::fugaku_node, k,
                                                stream_julia17, n_small, 8), 1),
                format_fixed(modeled_stream_gbs(arch::fugaku_node, k,
                                                stream_julia16, n_small, 8),
                             1)});
  }
  t2.print(std::cout);

  cmg_scaling();
  return 0;
}
