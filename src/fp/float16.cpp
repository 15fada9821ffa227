#include "fp/float16.hpp"

#include <ostream>

#include "fp/bfloat16.hpp"

#if TFX_FP_F16C_ASM
#include <cpuid.h>
#endif

namespace tfx::fp {

bool hardware_f16_conversion() noexcept {
  static const bool usable = [] {
#if TFX_FP_F16C_ASM
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    // F16C instructions are VEX-encoded: they need the CPU's AVX and
    // the OS's consent to AVX state (OSXSAVE, then XCR0 bits 1 and 2).
    constexpr unsigned needed = bit_OSXSAVE | bit_AVX | bit_F16C;
    if ((ecx & needed) != needed) return false;
    unsigned xcr0 = 0, xcr0_high = 0;
    asm volatile("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
    return (xcr0 & 0x6u) == 0x6u;
#else
    return false;
#endif
  }();
  return usable;
}

namespace detail {
const bool f16c_enabled = hardware_f16_conversion();
}  // namespace detail

std::ostream& operator<<(std::ostream& os, float16 h) {
  return os << static_cast<float>(h);
}

namespace {

/// Map the sign-magnitude bit pattern onto a signed integer line where
/// consecutive representable values differ by 1 (the standard ordered
/// encoding trick for IEEE formats).
std::int32_t ordered(float16 x) {
  const std::uint16_t b = x.bits();
  return (b & 0x8000u) ? -static_cast<std::int32_t>(b & 0x7fffu)
                       : static_cast<std::int32_t>(b & 0x7fffu);
}

float16 from_ordered(std::int32_t o) {
  const std::uint16_t b =
      o < 0 ? static_cast<std::uint16_t>(0x8000u |
                                         static_cast<std::uint16_t>(-o))
            : static_cast<std::uint16_t>(o);
  return float16::from_bits(b);
}

}  // namespace

float16 nextafter(float16 x, float16 dir) {
  if (x.isnan() || dir.isnan()) {
    return std::numeric_limits<float16>::quiet_NaN();
  }
  if (x == dir) return dir;
  std::int32_t o = ordered(x);
  // Step toward dir on the ordered line; +0 and -0 share position 0,
  // so stepping off zero lands on the smallest subnormal directly.
  if (x.iszero()) {
    return dir.signbit() ? float16::from_bits(0x8001)
                         : float16::from_bits(0x0001);
  }
  o += (x < dir) ? 1 : -1;
  return from_ordered(o);
}

std::int64_t ulp_distance(float16 a, float16 b) {
  if (a.isnan() || b.isnan()) {
    return std::numeric_limits<std::int64_t>::max();
  }
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

std::ostream& operator<<(std::ostream& os, bfloat16 b) {
  return os << static_cast<float>(b);
}

}  // namespace tfx::fp
