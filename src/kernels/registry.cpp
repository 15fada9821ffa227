#include "kernels/registry.hpp"

namespace tfx::kernels {

// The paper's default is the generic kernel ("Julia"), first in the
// table.
blas_registry::blas_registry()
    : backends_(make_all_backends()), current_(backends_.front().get()) {}

blas_registry& blas_registry::instance() {
  static blas_registry registry;
  return registry;
}

bool blas_registry::set_current(std::string_view name) {
  for (const auto& backend : backends_) {
    if (backend->name() == name) {
      current_.store(backend.get(), std::memory_order_release);
      return true;
    }
  }
  return false;
}

std::shared_ptr<const blas_backend> blas_registry::current() const {
  // Non-owning alias: backends_ never changes, so the raw pointer is
  // valid for the registry's lifetime and the hot path stays a single
  // lock-free atomic load (std::atomic<shared_ptr> would be the
  // natural fit, but libstdc++'s implementation is a spinlock protocol
  // TSan cannot see through).
  return {std::shared_ptr<const blas_backend>{},
          current_.load(std::memory_order_acquire)};
}

std::shared_ptr<const blas_backend> blas_registry::find(
    std::string_view name) const {
  for (const auto& backend : backends_) {
    if (backend->name() == name) return backend;
  }
  return nullptr;
}

std::vector<std::string_view> blas_registry::names() const {
  std::vector<std::string_view> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) out.push_back(backend->name());
  return out;
}

}  // namespace tfx::kernels
