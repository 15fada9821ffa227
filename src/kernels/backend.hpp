#pragma once

/// \file backend.hpp
/// BLAS backend abstraction.
///
/// The paper compares one generic Julia kernel against four binary
/// libraries (Fujitsu BLAS, BLIS, OpenBLAS, ARMPL), swapped at runtime
/// through libblastrampoline. A `blas_backend` bundles what
/// distinguishes those libraries for a Level-1 routine:
///
///  * a concrete host implementation (used for correctness tests and
///    host wall-clock sanity numbers), and
///  * a `kernel_profile` describing the code generation the library
///    achieves on A64FX (full-width SVE vs NEON-only, scheduling
///    quality, entry overhead), which drives the machine model.
///
/// Only the generic backend provides Float16: "there are no
/// implementations of axpy for half-precision floating-point numbers in
/// Fujitsu BLAS, BLIS, OpenBLAS, and ARMPL, whereas Julia is able to
/// generate code for the type-generic function axpy! with
/// half-precision Float16 numbers" (§ III-A.1).

#include <cstddef>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/roofline.hpp"
#include "fp/float16.hpp"

namespace tfx::kernels {

/// Thrown when a backend is asked for a routine/precision it does not
/// implement (e.g. Float16 axpy on any of the binary libraries).
class unsupported_routine : public std::exception {
 public:
  explicit unsupported_routine(std::string message)
      : message_(std::move(message)) {}
  [[nodiscard]] const char* what() const noexcept override {
    return message_.c_str();
  }

 private:
  std::string message_;
};

class blas_backend {
 public:
  virtual ~blas_backend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether the library ships a half-precision axpy at all.
  [[nodiscard]] virtual bool supports_float16() const = 0;

  /// The A64FX code-generation profile of this library's axpy for a
  /// given element size (feeds arch::predict).
  [[nodiscard]] virtual arch::kernel_profile axpy_profile(
      std::size_t elem_bytes) const = 0;

  /// Host implementations (must be numerically correct; they differ in
  /// loop structure, which the tests exercise independently).
  virtual void axpy(double a, std::span<const double> x,
                    std::span<double> y) const = 0;
  virtual void axpy(float a, std::span<const float> x,
                    std::span<float> y) const = 0;
  /// Throws unsupported_routine unless supports_float16().
  virtual void axpy(fp::float16 a, std::span<const fp::float16> x,
                    std::span<fp::float16> y) const = 0;
};

/// The five personalities of the paper's Fig. 1, in the order its
/// legend lists them: "Julia" (the generic kernel), "FujitsuBLAS"
/// (SSL2), "BLIS" (0.9.0), "OpenBLAS" (0.3.20) and "ARMPL" (22.0.2).
std::vector<std::shared_ptr<const blas_backend>> make_all_backends();

}  // namespace tfx::kernels
