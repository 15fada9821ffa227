#pragma once

/// \file registry.hpp
/// Runtime-swappable BLAS dispatch - the libblastrampoline analogue.
///
/// The paper's benchmarks use libblastrampoline, "a library which uses
/// PLT trampolines to forward BLAS calls to a chosen library at runtime
/// with near-zero overhead [...], without having to recompile an
/// application to link to a different BLAS library" (§ III-A.1).
/// `blas_registry` provides the same contract: the five Fig. 1
/// libraries are built once with the registry, `set_current` points
/// the trampoline at one of them by name, and every call through the
/// forwarding functions lands in the selected library. The table never
/// changes after construction, so lookups read it without a lock, and
/// the current selection is a plain `std::atomic<const blas_backend*>`:
/// the forwarding cost is one atomic pointer load + one virtual call,
/// genuinely lock-free, and retargeting under load
/// (tests/kernels_hotswap_test runs it under TSan) never stalls the
/// hot path; `bench/fig1_axpy`'s trampoline row measures that it is
/// negligible against the routine itself.
///
/// The registry picks a library, not a vector width: the runtime width
/// policy (kernels/dispatch.hpp) is the one width control.

#include <atomic>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "kernels/backend.hpp"

namespace tfx::kernels {

class blas_registry {
 public:
  /// The process-wide registry, holding the five paper backends and
  /// defaulting to the generic one.
  static blas_registry& instance();

  /// Select the forwarding target by name; false if unknown.
  bool set_current(std::string_view name);

  /// The currently selected backend (never null). Lock-free: one
  /// atomic pointer load. The returned shared_ptr is non-owning
  /// (aliased to the registry, which keeps every backend alive for its
  /// whole lifetime).
  [[nodiscard]] std::shared_ptr<const blas_backend> current() const;

  /// Look a backend up by name without selecting it; null if unknown.
  [[nodiscard]] std::shared_ptr<const blas_backend> find(
      std::string_view name) const;

  /// Names in the order the paper's legend lists them.
  [[nodiscard]] std::vector<std::string_view> names() const;

 private:
  blas_registry();

  const std::vector<std::shared_ptr<const blas_backend>> backends_;
  std::atomic<const blas_backend*> current_;
};

/// Forwarding entry points ("the trampoline"): call whatever backend is
/// currently selected.
template <typename T>
void axpy_dispatch(T a, std::span<const T> x, std::span<T> y) {
  blas_registry::instance().current()->axpy(a, x, y);
}

}  // namespace tfx::kernels
