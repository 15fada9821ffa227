#include "kernels/dispatch.hpp"

namespace tfx::kernels {

#if TFX_KERNELS_ISA_COPIES
namespace detail {
const bool host_avx2 = arch::host_features().avx2;
const bool host_avx512f = arch::host_features().avx512f;
}  // namespace detail
#endif

namespace {

std::atomic<std::size_t>& width_policy() {
  static std::atomic<std::size_t> width{default_simd_width()};
  return width;
}

}  // namespace

std::size_t default_simd_width() { return arch::preferred_vector_bits(); }

std::size_t simd_width() {
  return width_policy().load(std::memory_order_relaxed);
}

bool set_simd_width(std::size_t bits) {
  if (bits != 0 && !simd::valid_width(bits)) return false;
  width_policy().store(bits, std::memory_order_relaxed);
  return true;
}

void reset_simd_width() {
  width_policy().store(default_simd_width(), std::memory_order_relaxed);
}

}  // namespace tfx::kernels
