#include <cstddef>

#include "core/contracts.hpp"
#include "kernels/backend.hpp"
#include "kernels/batched.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/generic.hpp"
#include "kernels/simd.hpp"

namespace tfx::kernels {

namespace {

/// Shared plumbing: each personality supplies profiles + an inner-loop
/// shape; correctness is common (all are real axpy implementations).
class backend_base : public blas_backend {
 public:
  void axpy(fp::float16 a, std::span<const fp::float16> x,
            std::span<fp::float16> y) const override {
    if (!supports_float16()) {
      throw unsupported_routine(std::string(name()) +
                                ": no half-precision axpy (Float16 axpy is "
                                "not available in Fujitsu BLAS, BLIS, "
                                "OpenBLAS, or ARMPL)");
    }
    kernels::axpy(a, x, y);
  }
};

/// The generic type-flexible kernel ("Julia" in the figures): the same
/// template instantiates for every element type, and LLVM-style codegen
/// reaches full-width SVE. Best peak in all three precisions (Fig. 1).
class generic_backend final : public backend_base {
 public:
  [[nodiscard]] std::string_view name() const override { return "Julia"; }
  [[nodiscard]] bool supports_float16() const override { return true; }

  [[nodiscard]] arch::kernel_profile axpy_profile(
      std::size_t /*elem_bytes*/) const override {
    arch::kernel_profile p;
    p.name = "axpy/generic";
    p.vector_bits = 512;       // @simd + -aarch64-sve-vector-bits-min=512
    p.simd_efficiency = 0.95;  // plain unrolled loop, near-ideal schedule
    p.loop_overhead_cycles = 0.25;
    p.call_overhead_ns = 6.0;  // direct call, no library entry glue
    return p;
  }

  void axpy(double a, std::span<const double> x,
            std::span<double> y) const override {
    kernels::axpy(a, x, y);
  }
  void axpy(float a, std::span<const float> x,
            std::span<float> y) const override {
    kernels::axpy(a, x, y);
  }
  using backend_base::axpy;
};

/// Fujitsu BLAS (libfjlapackexsve): fully SVE-optimized by the vendor,
/// competitive with the generic kernel across all sizes, but a heavier
/// library entry sequence (ILP64 argument checks, dispatch).
class fujitsu_backend final : public backend_base {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "FujitsuBLAS";
  }
  [[nodiscard]] bool supports_float16() const override { return false; }

  [[nodiscard]] arch::kernel_profile axpy_profile(
      std::size_t /*elem_bytes*/) const override {
    arch::kernel_profile p;
    p.name = "axpy/fujitsu";
    p.vector_bits = 512;
    p.simd_efficiency = 0.93;
    p.loop_overhead_cycles = 0.25;
    p.call_overhead_ns = 28.0;
    return p;
  }

  // Software-pipelined 4x unrolled loop with separate remainder, the
  // classic vendor-kernel structure.
  void axpy(double a, std::span<const double> x,
            std::span<double> y) const override {
    unrolled(a, x, y);
  }
  void axpy(float a, std::span<const float> x,
            std::span<float> y) const override {
    unrolled(a, x, y);
  }
  using backend_base::axpy;

 private:
  template <typename T>
  static void unrolled(T a, std::span<const T> x, std::span<T> y) {
    TFX_EXPECTS(x.size() == y.size());
    const std::size_t n = x.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      y[i] = a * x[i] + y[i];
      y[i + 1] = a * x[i + 1] + y[i + 1];
      y[i + 2] = a * x[i + 2] + y[i + 2];
      y[i + 3] = a * x[i + 3] + y[i + 3];
    }
    for (; i < n; ++i) y[i] = a * x[i] + y[i];
  }
};

/// BLIS 0.9.0: has SVE kernels but a less aggressively tuned axpyv
/// schedule; trails Julia/Fujitsu but clearly beats the NEON-only
/// libraries.
class blis_backend final : public backend_base {
 public:
  [[nodiscard]] std::string_view name() const override { return "BLIS"; }
  [[nodiscard]] bool supports_float16() const override { return false; }

  [[nodiscard]] arch::kernel_profile axpy_profile(
      std::size_t /*elem_bytes*/) const override {
    arch::kernel_profile p;
    p.name = "axpy/blis";
    p.vector_bits = 512;
    p.simd_efficiency = 0.72;
    p.loop_overhead_cycles = 0.5;
    p.call_overhead_ns = 22.0;
    return p;
  }

  void axpy(double a, std::span<const double> x,
            std::span<double> y) const override {
    twoway(a, x, y);
  }
  void axpy(float a, std::span<const float> x,
            std::span<float> y) const override {
    twoway(a, x, y);
  }
  using backend_base::axpy;

 private:
  // 2-way unroll, fused-expression form (BLIS axpyv microkernel shape).
  template <typename T>
  static void twoway(T a, std::span<const T> x, std::span<T> y) {
    TFX_EXPECTS(x.size() == y.size());
    const std::size_t n = x.size();
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      y[i] += a * x[i];
      y[i + 1] += a * x[i + 1];
    }
    for (; i < n; ++i) y[i] += a * x[i];
  }
};

/// OpenBLAS 0.3.20: its ARMv8 axpy kernel at the time used the generic
/// NEON (128-bit) path on A64FX - "poor performance for this routine,
/// likely because it is not taking full advantage of A64FX vectorization
/// capabilities" (§ III-A.1).
class openblas_backend final : public backend_base {
 public:
  [[nodiscard]] std::string_view name() const override { return "OpenBLAS"; }
  [[nodiscard]] bool supports_float16() const override { return false; }

  [[nodiscard]] arch::kernel_profile axpy_profile(
      std::size_t /*elem_bytes*/) const override {
    arch::kernel_profile p;
    p.name = "axpy/openblas";
    p.vector_bits = 128;  // NEON-only code path
    p.simd_efficiency = 0.85;
    p.loop_overhead_cycles = 0.5;
    p.call_overhead_ns = 16.0;
    return p;
  }

  void axpy(double a, std::span<const double> x,
            std::span<double> y) const override {
    plain(a, x, y);
  }
  void axpy(float a, std::span<const float> x,
            std::span<float> y) const override {
    plain(a, x, y);
  }
  using backend_base::axpy;

 private:
  template <typename T>
  static void plain(T a, std::span<const T> x, std::span<T> y) {
    TFX_EXPECTS(x.size() == y.size());
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
  }
};

/// ARM Performance Libraries 22.0.2: also lands on a NEON code path for
/// this routine on A64FX, with a slightly different schedule.
class armpl_backend final : public backend_base {
 public:
  [[nodiscard]] std::string_view name() const override { return "ARMPL"; }
  [[nodiscard]] bool supports_float16() const override { return false; }

  [[nodiscard]] arch::kernel_profile axpy_profile(
      std::size_t /*elem_bytes*/) const override {
    arch::kernel_profile p;
    p.name = "axpy/armpl";
    p.vector_bits = 128;
    p.simd_efficiency = 0.78;
    p.loop_overhead_cycles = 0.5;
    p.call_overhead_ns = 18.0;
    return p;
  }

  void axpy(double a, std::span<const double> x,
            std::span<double> y) const override {
    backward(a, x, y);
  }
  void axpy(float a, std::span<const float> x,
            std::span<float> y) const override {
    backward(a, x, y);
  }
  using backend_base::axpy;

 private:
  // Pointer-walking loop (a distinct code shape for the tests).
  template <typename T>
  static void backward(T a, std::span<const T> x, std::span<T> y) {
    TFX_EXPECTS(x.size() == y.size());
    const T* px = x.data();
    T* py = y.data();
    for (std::size_t left = x.size(); left != 0; --left, ++px, ++py) {
      *py = a * *px + *py;
    }
  }
};

/// The explicitly vectorized backend at compile-time width Bits
/// (kernels/simd.hpp): what the paper's generic-Julia story looks like
/// when the full lane width is guaranteed by construction instead of
/// left to the autovectorizer. Supports Float16 through the widened
/// lane path, and overrides the batched routines with the fixed-width
/// implementations. Every kernel runs through with_simd_width(Bits),
/// so its packs run on the host's ISA for Bits (kernels/dispatch.hpp).
template <std::size_t Bits>
class vec_backend final : public blas_backend {
 public:
  [[nodiscard]] std::string_view name() const override {
    if constexpr (Bits == 512) {
      return "Vec512";
    } else if constexpr (Bits == 256) {
      return "Vec256";
    } else {
      return "Vec128";
    }
  }
  [[nodiscard]] bool supports_float16() const override { return true; }
  [[nodiscard]] std::size_t vector_bits() const override { return Bits; }

  [[nodiscard]] arch::kernel_profile axpy_profile(
      std::size_t /*elem_bytes*/) const override {
    arch::kernel_profile p;
    p.name = Bits == 512   ? "axpy/vec512"
             : Bits == 256 ? "axpy/vec256"
                           : "axpy/vec128";
    // Hand-blocked fixed-width loop: the lanes are guaranteed, the
    // 4x unroll hides the FMA latency, and there is no library entry
    // glue — marginally better schedule than the autovectorized
    // generic kernel, at the width the template pins.
    p.vector_bits = static_cast<std::size_t>(Bits);
    p.simd_efficiency = 0.97;
    p.loop_overhead_cycles = 0.25;
    p.call_overhead_ns = 6.0;
    return p;
  }

  void axpy(double a, std::span<const double> x,
            std::span<double> y) const override {
    with_simd_width(Bits, [&](auto bits) {
      simd::axpy_fixed<bits()>(a, x, y);
    });
  }
  void axpy(float a, std::span<const float> x,
            std::span<float> y) const override {
    with_simd_width(Bits, [&](auto bits) {
      simd::axpy_fixed<bits()>(a, x, y);
    });
  }
  void axpy(fp::float16 a, std::span<const fp::float16> x,
            std::span<fp::float16> y) const override {
    with_simd_width(Bits, [&](auto bits) {
      simd::axpy_widened<bits()>(a, x, y);
    });
  }

  void axpy_batched(std::span<const double> a, std::span<const double> x,
                    std::span<double> y, std::size_t n) const override {
    with_simd_width(Bits, [&](auto bits) {
      simd::axpy_batched_fixed<bits()>(a, x, y, n);
    });
  }
  void axpy_batched(std::span<const float> a, std::span<const float> x,
                    std::span<float> y, std::size_t n) const override {
    with_simd_width(Bits, [&](auto bits) {
      simd::axpy_batched_fixed<bits()>(a, x, y, n);
    });
  }
  void dot_batched(std::span<const double> x, std::span<const double> y,
                   std::span<double> out, std::size_t n) const override {
    with_simd_width(Bits, [&](auto bits) {
      simd::dot_batched_fixed<bits()>(x, y, out, n);
    });
  }
  void dot_batched(std::span<const float> x, std::span<const float> y,
                   std::span<float> out, std::size_t n) const override {
    with_simd_width(Bits, [&](auto bits) {
      simd::dot_batched_fixed<bits()>(x, y, out, n);
    });
  }
  void gemm_batched(const gemm_batch_shape& s, double alpha,
                    std::span<const double> a, std::span<const double> b,
                    double beta, std::span<double> c) const override {
    with_simd_width(Bits, [&](auto bits) {
      simd::gemm_batched_fixed<bits()>(s, alpha, a, b, beta, c);
    });
  }
  void gemm_batched(const gemm_batch_shape& s, float alpha,
                    std::span<const float> a, std::span<const float> b,
                    float beta, std::span<float> c) const override {
    with_simd_width(Bits, [&](auto bits) {
      simd::gemm_batched_fixed<bits()>(s, alpha, a, b, beta, c);
    });
  }
};

}  // namespace

std::unique_ptr<blas_backend> make_generic_backend() {
  return std::make_unique<generic_backend>();
}
std::unique_ptr<blas_backend> make_fujitsu_backend() {
  return std::make_unique<fujitsu_backend>();
}
std::unique_ptr<blas_backend> make_blis_backend() {
  return std::make_unique<blis_backend>();
}
std::unique_ptr<blas_backend> make_openblas_backend() {
  return std::make_unique<openblas_backend>();
}
std::unique_ptr<blas_backend> make_armpl_backend() {
  return std::make_unique<armpl_backend>();
}

std::unique_ptr<blas_backend> make_vec_backend(std::size_t bits) {
  TFX_EXPECTS(simd::valid_width(bits));
  if (bits == 512) return std::make_unique<vec_backend<512>>();
  if (bits == 256) return std::make_unique<vec_backend<256>>();
  return std::make_unique<vec_backend<128>>();
}

std::vector<std::unique_ptr<blas_backend>> make_all_backends() {
  std::vector<std::unique_ptr<blas_backend>> all;
  all.push_back(make_generic_backend());
  all.push_back(make_fujitsu_backend());
  all.push_back(make_blis_backend());
  all.push_back(make_openblas_backend());
  all.push_back(make_armpl_backend());
  for (const std::size_t bits : simd::width_list) {
    all.push_back(make_vec_backend(bits));
  }
  return all;
}

}  // namespace tfx::kernels
