// Figure 1: axpy GFLOPS vs vector length for Float16/Float32/Float64,
// Julia's generic kernel vs Fujitsu BLAS, BLIS, OpenBLAS and ARMPL on
// one A64FX core.
//
// Two instruments, as everywhere in this repo:
//  * the modeled machine (arch::) supplies the A64FX numbers for every
//    backend personality (the paper's figure);
//  * host wall-clock times the generic kernel next to every modeled
//    panel (Float16 included: the soft-float cost the model corrects
//    for) and sweeps the real backends on the build machine —
//    including a genuinely scalar (vectorization-disabled) reference,
//    the explicit fixed-width kernel (kernels/simd.hpp) at each width
//    of the runtime policy, and the libblastrampoline-style trampoline
//    (§ III-A.1) — plus the dispatch overhead, the batched
//    small-GEMM/axpy path vs looped single calls, and a host
//    memory-roofline consistency check
//    (docs/KERNELS.md#roofline-tolerance).
//
// Results go to a machine-readable JSON file (--json, default
// BENCH_kernels.json) for the CI trend line.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "arch/features.hpp"
#include "arch/roofline.hpp"
#include "bench_json.hpp"
#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "core/units.hpp"
#include "fp/float16.hpp"
#include "fp/traits.hpp"
#include "kernels/batched.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/generic.hpp"
#include "kernels/registry.hpp"
#include "kernels/simd.hpp"
#include "kernels/stream.hpp"

using namespace tfx;
using tfx::fp::float16;

namespace {

// ---------------------------------------------------------------------------
// Host instruments
// ---------------------------------------------------------------------------

/// A genuinely scalar axpy: vectorization disabled, so this is what
/// "one element per instruction" costs on the host — the baseline the
/// vectorized kernels must beat.
template <typename T>
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize,no-tree-slp-vectorize")))
#endif
void axpy_scalar_ref(T a, const T* x, T* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a * x[i] + y[i];
}

/// The explicit fixed-width axpy at `bits`, on the host's ISA for that
/// width (kernels::with_simd_width).
template <typename T>
void simd_axpy(std::size_t bits, T a, std::span<const T> x, std::span<T> y) {
  kernels::with_simd_width(
      bits, [&](auto w) { kernels::simd::axpy_fixed<w()>(a, x, y); });
}

/// Host wall-clock GFLOPS of `fn` performing one axpy pass of length n.
template <typename Fn>
double host_axpy_gflops(std::size_t n, Fn&& fn) {
  const auto t = measure(fn);
  return gflops(2.0 * static_cast<double>(n), t.min());
}

struct host_point {
  std::string backend;
  std::string type;
  std::size_t n = 0;
  double host_gflops = 0;
  double modeled_gflops = 0;  ///< A64FX prediction for the same backend
};

/// Sweep the real backends (plus the scalar reference, the explicit
/// kernel at each width and the trampoline forwarding to Julia) at type
/// T over fig1-style sizes; returns the measured+modeled points.
template <typename T>
std::vector<host_point> host_sweep(const std::vector<std::size_t>& sizes) {
  auto& reg = kernels::blas_registry::instance();
  reg.set_current("Julia");
  const auto& machine = arch::fugaku_node;
  std::vector<host_point> out;
  const char* const backends[] = {"Julia", "FujitsuBLAS"};

  for (const std::size_t n : sizes) {
    std::vector<T> x(n, T(1.5)), y(n, T(0.25));
    const T a = T(0.999);

    host_point scalar;
    scalar.backend = "scalar";
    scalar.type = std::string(fp::precision_traits<T>::name);
    scalar.n = n;
    scalar.host_gflops = host_axpy_gflops(
        n, [&] { axpy_scalar_ref(a, x.data(), y.data(), n); });
    scalar.modeled_gflops = 0;  // no personality models a scalar loop
    out.push_back(scalar);

    for (const char* name : backends) {
      const auto backend = reg.find(name);
      host_point p;
      p.backend = name;
      p.type = scalar.type;
      p.n = n;
      p.host_gflops = host_axpy_gflops(n, [&] {
        backend->axpy(a, std::span<const T>(x), std::span<T>(y));
      });
      const auto profile = backend->axpy_profile(sizeof(T));
      p.modeled_gflops =
          arch::predict(machine, profile, n, sizeof(T), 2 * n * sizeof(T))
              .gflops;
      out.push_back(p);
    }

    // The explicit kernel is a host instrument, not one of the paper's
    // libraries, so no personality models it.
    for (const std::size_t bits :
         {std::size_t{128}, std::size_t{256}, std::size_t{512}}) {
      host_point p = scalar;
      p.backend = "simd w" + std::to_string(bits);
      p.host_gflops = host_axpy_gflops(n, [&] {
        simd_axpy(bits, a, std::span<const T>(x), std::span<T>(y));
      });
      out.push_back(p);
    }

    // The registry's forwarding hop (atomic load, shared_ptr copy,
    // virtual call) in front of the Julia row's kernel. The model
    // prices kernels, not the call into them.
    host_point tramp = scalar;
    tramp.backend = "trampoline";
    tramp.host_gflops = host_axpy_gflops(n, [&] {
      kernels::axpy_dispatch(a, std::span<const T>(x), std::span<T>(y));
    });
    out.push_back(tramp);
  }
  return out;
}

void print_host_sweep(const char* type_name,
                      const std::vector<host_point>& points) {
  table t({"backend", "n", "host GF/s", "modeled A64FX GF/s"});
  for (const auto& p : points) {
    t.add_row({p.backend, std::to_string(p.n), format_fixed(p.host_gflops, 2),
               p.modeled_gflops > 0 ? format_fixed(p.modeled_gflops, 2)
                                    : std::string("-")});
  }
  std::printf("\n== Host wall-clock sweep: %s axpy per backend ==\n",
              type_name);
  t.print(std::cout);
}

/// Forwarding cost of the trampoline: dispatched vs direct call at a
/// size where the loop itself is trivial.
double dispatch_overhead_ns() {
  kernels::blas_registry::instance().set_current("Julia");
  const std::size_t n = 16;
  std::vector<double> x(n, 1.5), y(n, 0.25);
  const auto direct = measure([&] {
    kernels::axpy(0.999, std::span<const double>(x), std::span<double>(y));
  });
  const auto dispatched = measure([&] {
    kernels::axpy_dispatch(0.999, std::span<const double>(x),
                           std::span<double>(y));
  });
  return (dispatched.min() - direct.min()) * 1e9;
}

// ---------------------------------------------------------------------------
// Batched small problems vs looped single calls
// ---------------------------------------------------------------------------

struct batched_result {
  double batched_gflops = 0;
  double looped_gflops = 0;
  [[nodiscard]] double speedup() const {
    return batched_gflops / looped_gflops;
  }
};

/// 512 problems of m = n = k = `mnk`.
batched_result bench_batched_gemm(std::size_t mnk) {
  const kernels::gemm_batch_shape s{512, mnk, mnk, mnk};
  std::vector<double> a(s.count * s.a_elems(), 1.01);
  std::vector<double> b(s.count * s.b_elems(), 0.99);
  std::vector<double> c(s.count * s.c_elems(), 0.5);
  const double flops = 2.0 * static_cast<double>(s.count) *
                       static_cast<double>(s.m * s.n * s.k);

  batched_result r;
  const auto tb = measure([&] {
    kernels::gemm_batched_dispatch<double>(s, 1.0, a, b, 0.0, c);
  });
  r.batched_gflops = gflops(flops, tb.min());

  // Looped single calls: one trampoline hop and one shape per problem.
  const kernels::gemm_batch_shape one{1, s.m, s.n, s.k};
  const auto tl = measure([&] {
    for (std::size_t p = 0; p < s.count; ++p) {
      kernels::gemm_batched_dispatch<double>(
          one, 1.0,
          std::span<const double>(a).subspan(p * s.a_elems(), s.a_elems()),
          std::span<const double>(b).subspan(p * s.b_elems(), s.b_elems()),
          0.0, std::span<double>(c).subspan(p * s.c_elems(), s.c_elems()));
    }
  });
  r.looped_gflops = gflops(flops, tl.min());
  return r;
}

/// 512 problems of length `len`.
batched_result bench_batched_axpy(std::size_t len) {
  const std::size_t count = 512;
  std::vector<double> a(count, 0.999);
  std::vector<double> x(count * len, 1.5), y(count * len, 0.25);
  const double flops = 2.0 * static_cast<double>(count * len);

  batched_result r;
  const auto tb = measure([&] {
    kernels::axpy_batched_dispatch<double>(a, x, y, len);
  });
  r.batched_gflops = gflops(flops, tb.min());

  const auto tl = measure([&] {
    for (std::size_t p = 0; p < count; ++p) {
      kernels::axpy_dispatch(a[p],
                             std::span<const double>(x).subspan(p * len, len),
                             std::span<double>(y).subspan(p * len, len));
    }
  });
  r.looped_gflops = gflops(flops, tl.min());
  return r;
}

// ---------------------------------------------------------------------------
// Host memory-roofline consistency (docs/KERNELS.md#roofline-tolerance)
// ---------------------------------------------------------------------------

struct roofline_check {
  double triad_gbs = 0;        ///< host triad bandwidth (3 streams)
  double scalar_gbs = 0;       ///< bandwidth implied by the scalar axpy
  double bound_gflops = 0;     ///< axpy roofline from the best probe
  double measured_gflops = 0;  ///< explicit kernel at the DRAM-resident size
  double ratio = 0;
  bool within = false;
};

/// At DRAM-resident sizes axpy is bandwidth-bound (2 flops per 24
/// bytes of traffic), so the explicit kernel at the default width must
/// land on the memory roofline — no higher, and not below it either,
/// or the vector path is leaving bandwidth unused. The bound is
/// derived from two probes with the identical traffic pattern — the
/// scalar reference axpy and stream triad — taking the larger (either
/// can be depressed by page placement on a shared host). Documented
/// tolerance band: ratio in [0.5, 1.3] (docs/KERNELS.md).
roofline_check host_roofline() {
  const std::size_t n = std::size_t{1} << 23;  // 64 MiB/array: DRAM
  roofline_check r;
  {
    std::vector<double> a(n, 0.1), b(n, 0.2), c(n, 0.3);
    const auto t = measure(
        [&] {
          kernels::stream_triad(0.999, std::span<const double>(b),
                                std::span<const double>(c),
                                std::span<double>(a));
        },
        5);
    r.triad_gbs = static_cast<double>(3 * sizeof(double) * n) / t.min() / 1e9;
  }
  std::vector<double> x(n, 1.5), y(n, 0.25);
  {
    const auto t = measure(
        [&] { axpy_scalar_ref(0.999, x.data(), y.data(), n); }, 5);
    r.scalar_gbs = static_cast<double>(3 * sizeof(double) * n) / t.min() / 1e9;
  }
  const double bw = r.triad_gbs > r.scalar_gbs ? r.triad_gbs : r.scalar_gbs;
  r.bound_gflops = bw / 12.0;  // 2 flops per 24 bytes
  {
    const std::size_t bits = kernels::default_simd_width();
    const auto t = measure(
        [&] {
          simd_axpy(bits, 0.999, std::span<const double>(x),
                    std::span<double>(y));
        },
        5);
    r.measured_gflops = gflops(2.0 * static_cast<double>(n), t.min());
  }
  r.ratio = r.measured_gflops / r.bound_gflops;
  r.within = r.ratio >= 0.5 && r.ratio <= 1.3;
  return r;
}

// ---------------------------------------------------------------------------
// Modeled Fig. 1 panels
// ---------------------------------------------------------------------------

/// Host wall-clock GFLOPS of the generic axpy at type T.
template <typename T>
double host_gflops(std::size_t n) {
  std::vector<T> x(n, T(1.5)), y(n, T(0.25));
  const T a = T(0.999);
  const auto t = measure([&] {
    kernels::axpy(a, std::span<const T>(x), std::span<T>(y));
  });
  return gflops(2.0 * static_cast<double>(n), t.min());
}

template <typename T>
void panel(std::size_t max_log2) {
  const auto& machine = arch::fugaku_node;
  auto& reg = kernels::blas_registry::instance();
  const auto names = reg.names();

  std::vector<std::string> header{"n", "bytes"};
  for (const auto& name : names) header.emplace_back(name);
  header.emplace_back("host(Julia)");
  table t(header);

  for (std::size_t e = 4; e <= max_log2; e += 1) {
    const std::size_t n = std::size_t{1} << e;
    std::vector<std::string> row{std::to_string(n),
                                 format_bytes(n * sizeof(T))};
    for (const auto& name : names) {
      const auto backend = reg.find(name);
      if constexpr (std::is_same_v<T, float16>) {
        if (!backend->supports_float16()) {
          // "half-precision implementations of axpy are not available
          // for the other binary libraries" (Fig. 1 caption).
          row.emplace_back("n/a");
          continue;
        }
      }
      const auto profile = backend->axpy_profile(sizeof(T));
      const auto m = arch::predict(machine, profile, n, sizeof(T),
                                   2 * n * sizeof(T));
      row.push_back(format_fixed(m.gflops, 2));
    }
    row.push_back(format_fixed(host_gflops<T>(n), 2));
    t.add_row(std::move(row));
  }
  std::printf("\n== Fig. 1 panel: %s axpy, modeled A64FX GFLOPS ==\n",
              std::string(fp::precision_traits<T>::name).c_str());
  if constexpr (std::is_same_v<T, float16>) {
    std::printf("host(Julia) converts Float16 through %s\n",
                fp::hardware_f16_conversion()
                    ? "F16C (vcvtph2ps/vcvtps2ph)"
                    : "software rounding (rounding.hpp)");
  }
  t.print(std::cout);
}

bench_json::value to_json(const host_point& p) {
  using namespace bench_json;
  return object({{"backend", string(p.backend)}, {"type", string(p.type)},
                 {"n", integer(p.n)},
                 {"host_gflops", fixed(p.host_gflops, 3)},
                 {"modeled_a64fx_gflops", fixed(p.modeled_gflops, 3)}});
}

/// {"count": 512, <shape>, "batched_gflops": ..., "speedup": ...}
bench_json::value to_json(const batched_result& r,
                          std::vector<bench_json::field> fields) {
  using namespace bench_json;
  fields.insert(fields.begin(), {"count", integer(512)});
  fields.push_back({"batched_gflops", fixed(r.batched_gflops, 3)});
  fields.push_back({"looped_gflops", fixed(r.looped_gflops, 3)});
  fields.push_back({"speedup", fixed(r.speedup(), 3)});
  return object(fields);
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"max-log2", "largest vector length exponent (default 22)"},
            {"json", "output path (default BENCH_kernels.json)"},
            {"no-sweep", "skip the host backend sweep + batched/roofline"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  const auto max_log2 =
      static_cast<std::size_t>(args.get_int("max-log2", 22));
  const std::string json = args.get_string("json", "BENCH_kernels.json");

  std::puts("Reproduction of Fig. 1 (axpy on one A64FX core).");
  std::puts("Expected shape: Julia best peak everywhere; Fujitsu BLAS");
  std::puts("competitive; BLIS behind; OpenBLAS/ARMPL (NEON path) last;");
  std::puts("Float16 only exists for Julia; cache cliffs at L1/L2.");
  std::puts("The Float16 host column times the host's emulated half");
  std::puts("precision (every op widens to float and rounds back), far below");
  std::puts("float: the cost the model corrects for (DESIGN.md § 2).");
  std::printf("Host: %s, default SIMD width %zu bits.\n",
              std::string(arch::host_features().isa).c_str(),
              kernels::default_simd_width());

  panel<float16>(max_log2);
  panel<float>(max_log2);
  panel<double>(max_log2);

  // The headline ratios the paper's text quotes.
  const auto& machine = arch::fugaku_node;
  auto julia16 = arch::predict(
      machine,
      kernels::blas_registry::instance().find("Julia")->axpy_profile(2),
      1 << 12, 2, 2 * (1 << 12) * 2);
  auto julia64 = arch::predict(
      machine,
      kernels::blas_registry::instance().find("Julia")->axpy_profile(8),
      1 << 12, 8, 2 * (1 << 12) * 8);
  std::printf("\nIn-cache Float16/Float64 throughput ratio (Julia): %.2fx\n",
              julia16.gflops / julia64.gflops);

  if (args.has("no-sweep")) return 0;

  // ---- host backend sweep, dispatch overhead, batched, roofline ----
  const std::vector<std::size_t> sizes{1u << 6, 1u << 10, 1u << 14, 1u << 18,
                                       1u << 21};
  auto points64 = host_sweep<double>(sizes);
  auto points32 = host_sweep<float>(sizes);
  print_host_sweep("Float64", points64);
  print_host_sweep("Float32", points32);

  const double overhead = dispatch_overhead_ns();
  std::printf("\ntrampoline dispatch overhead: %.1f ns/call\n", overhead);

  table bt({"512 problems", "batched GF/s", "looped GF/s", "speedup"});
  const auto add_row = [&](std::string label, const batched_result& r) {
    bt.add_row({std::move(label), format_fixed(r.batched_gflops, 2),
                format_fixed(r.looped_gflops, 2),
                format_fixed(r.speedup(), 2)});
  };
  std::vector<batched_result> gemm, axpy;
  for (const std::size_t mnk : {4, 8, 12, 16}) {
    gemm.push_back(bench_batched_gemm(mnk));
    const std::string d = std::to_string(mnk);
    add_row("gemm " + d + "x" + d + "x" + d, gemm.back());
  }
  for (const std::size_t len : {8, 32, 128}) {
    axpy.push_back(bench_batched_axpy(len));
    add_row("axpy len " + std::to_string(len), axpy.back());
  }
  std::puts("\n== Batched small problems vs looped dispatched calls ==");
  bt.print(std::cout);

  const auto roof = host_roofline();
  std::printf(
      "\nhost roofline: triad %.1f GB/s, scalar axpy %.1f GB/s -> bound "
      "%.2f GF/s, measured %.2f GF/s (ratio %.2f, %s)\n",
      roof.triad_gbs, roof.scalar_gbs, roof.bound_gflops,
      roof.measured_gflops, roof.ratio,
      roof.within ? "within tolerance" : "OUT OF TOLERANCE");

  std::vector<bench_json::value> points;
  for (const auto* sweep : {&points64, &points32}) {
    for (const host_point& p : *sweep) points.push_back(to_json(p));
  }
  using namespace bench_json;
  document doc;
  doc.member("bench", string("kernels"))
      .member("host_isa", string(arch::host_features().isa))
      .member("default_simd_width", integer(kernels::default_simd_width()))
      .member("dispatch_overhead_ns", fixed(overhead, 2))
      .rows("axpy", points)
      .member("batched_gemm_4x4x4", to_json(gemm[0], {}))
      .member("batched_gemm_8x8x8", to_json(gemm[1], {}))
      .member("batched_axpy", to_json(axpy[1], {{"len", integer(32)}}))
      .member("roofline",
              object({{"host_triad_gbs", fixed(roof.triad_gbs, 2)},
                      {"host_scalar_axpy_gbs", fixed(roof.scalar_gbs, 2)},
                      {"axpy_bound_gflops", fixed(roof.bound_gflops, 3)},
                      {"measured_gflops", fixed(roof.measured_gflops, 3)},
                      {"ratio", fixed(roof.ratio, 3)},
                      {"tolerance", list({fixed(0.5, 1), fixed(1.3, 1)})},
                      {"within_tolerance", boolean(roof.within)}}));
  return doc.write(json) ? 0 : 1;
}
