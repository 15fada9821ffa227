#include <cstddef>

#include "core/contracts.hpp"
#include "kernels/backend.hpp"
#include "kernels/generic.hpp"

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

}  // namespace

std::vector<std::shared_ptr<const blas_backend>> make_all_backends() {
  return {std::make_shared<generic_backend>(),
          std::make_shared<fujitsu_backend>(),
          std::make_shared<blis_backend>(),
          std::make_shared<openblas_backend>(),
          std::make_shared<armpl_backend>()};
}

}  // namespace tfx::kernels
