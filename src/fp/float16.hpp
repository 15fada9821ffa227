#pragma once

/// \file float16.hpp
/// IEEE-754 binary16 with Julia's operational semantics.
///
/// Every arithmetic operation extends the operands to binary32 (exact),
/// computes there, and rounds the result back to binary16 — the exact
/// `fpext` / `fptrunc` scheme Julia emits for software Float16 (paper
/// § II and § IV-C). For + - * / and sqrt this is bit-identical to
/// native binary16 hardware (2p+2 theorem), so numerical results match
/// what the paper measured on A64FX.
///
/// The two conversions run on one of two paths, chosen once per
/// process (`hardware_f16_conversion()`):
///
///  * on x86-64 hosts whose CPU has F16C and whose OS has enabled AVX
///    state, through the F16C instructions, inlined as `VCVTPH2PS`
///    (widen) and `VCVTPS2PH` (narrow) into the caller's loop;
///  * on every other CPU (aarch64 included), through the constexpr
///    routines of rounding.hpp, which also stay the tests' reference.
///
/// The two paths give the same bits for every input:
///
///  * widening is exact on both, and both quiet a signalling NaN by
///    setting the top mantissa bit and keep the payload;
///  * `VCVTPS2PH` takes its rounding mode from the immediate, and the
///    immediate 0 is round-to-nearest-even whatever MXCSR.RC says;
///  * MXCSR.FTZ does not apply to `VCVTPS2PH`, which produces binary16
///    subnormals. MXCSR.DAZ reads a binary32 subnormal input as a zero
///    of the same sign, and every binary32 subnormal rounds to that
///    zero anyway;
///  * a NaN narrows to the same sign, the quiet bit and the top ten
///    payload bits on both (rounding.hpp's NaN rule).
///
/// The result of each operation passes through `canonicalize()`, which
/// applies the thread's flush-to-zero mode and maintains the event
/// counters used by the A64FX performance model (see fpenv.hpp). It
/// runs after either path, so FTZ and the counters do not depend on
/// which one converted.

#include <bit>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <type_traits>

#include "fp/fpenv.hpp"
#include "fp/rounding.hpp"

/// 1 where the F16C path is compiled in: x86-64 with GNU inline asm.
/// The asm needs no -mf16c, so a baseline x86-64 build carries it.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TFX_FP_F16C_ASM 1
#else
#define TFX_FP_F16C_ASM 0
#endif

namespace tfx::fp {

/// True when this process converts float16 through F16C, false where it
/// runs the rounding.hpp routines. Probed once per process, on first
/// call: CPUID (F16C, AVX, OSXSAVE) and XCR0 (XMM and YMM state enabled
/// by the OS). Both paths give the same bits.
bool hardware_f16_conversion() noexcept;

namespace detail {

/// `hardware_f16_conversion()`, copied during the fp library's static
/// initialization so that the conversions below test a plain load. It
/// reads false before that, which selects the software routines and so
/// the same bits.
extern const bool f16c_enabled;

#if TFX_FP_F16C_ASM
/// binary16 -> binary32 through VCVTPH2PS. The VMOVD from a
/// general register zeroes the three unused lanes. Callers check
/// `f16c_enabled`.
inline float vcvtph2ps(std::uint16_t h) {
  float f = 0;
  asm("vmovd %1, %0\n\tvcvtph2ps %0, %0"
      : "=x"(f)
      : "r"(static_cast<std::uint32_t>(h)));
  return f;
}

/// binary32 -> binary16 through VCVTPS2PH with immediate rounding 0
/// (round-to-nearest-even, MXCSR.RC ignored). Only lane 0 is kept.
/// Callers check `f16c_enabled`.
inline std::uint16_t vcvtps2ph(float f) {
  float h = 0;
  asm("vcvtps2ph $0, %1, %0" : "=x"(h) : "x"(f));
  return static_cast<std::uint16_t>(std::bit_cast<std::uint32_t>(h));
}
#endif

inline float f16_to_f32(std::uint16_t h) {
#if TFX_FP_F16C_ASM
  if (f16c_enabled) return vcvtph2ps(h);
#endif
  return std::bit_cast<float>(f16_bits_to_f32_bits(h));
}

inline std::uint16_t f32_to_f16(float f) {
#if TFX_FP_F16C_ASM
  if (f16c_enabled) return vcvtps2ph(f);
#endif
  return f32_bits_to_f16_bits(std::bit_cast<std::uint32_t>(f));
}

}  // namespace detail

class float16 {
 public:
  /// Value-initializes to +0.0.
  constexpr float16() = default;

  /// Rounding conversions from the built-in floating types.
  explicit float16(float f) : bits_(detail::f32_to_f16(f)) { canonicalize(); }
  /// `f64_to_f16_bits` with its last step on the selected path: the
  /// round-to-odd binary32 (a NaN passes through it unchanged) rounds
  /// once to binary16.
  explicit float16(double d)
      : bits_(detail::f32_to_f16(f64_to_f32_round_to_odd(d))) {
    canonicalize();
  }

  /// Conversion from integers (exact for |i| <= 2048, rounded above).
  template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
  explicit float16(Int i) : float16(static_cast<double>(i)) {}

  /// Reconstitute from raw storage bits.
  static constexpr float16 from_bits(std::uint16_t bits) {
    float16 h;
    h.bits_ = bits;
    return h;
  }

  /// Raw storage bits (sign | exponent | mantissa).
  [[nodiscard]] constexpr std::uint16_t bits() const { return bits_; }

  /// Exact widening conversions.
  explicit operator float() const { return detail::f16_to_f32(bits_); }
  explicit operator double() const { return static_cast<float>(*this); }

  // -- classification ------------------------------------------------

  [[nodiscard]] constexpr bool isnan() const {
    return (bits_ & 0x7fffu) > 0x7c00u;
  }
  [[nodiscard]] constexpr bool isinf() const {
    return (bits_ & 0x7fffu) == 0x7c00u;
  }
  [[nodiscard]] constexpr bool isfinite() const {
    return (bits_ & 0x7c00u) != 0x7c00u;
  }
  [[nodiscard]] constexpr bool iszero() const {
    return (bits_ & 0x7fffu) == 0;
  }
  [[nodiscard]] constexpr bool is_subnormal() const {
    return (bits_ & 0x7c00u) == 0 && (bits_ & 0x3ffu) != 0;
  }
  [[nodiscard]] constexpr bool signbit() const { return (bits_ & 0x8000u) != 0; }

  // -- arithmetic (binary32 compute, binary16 round, FTZ policy) ------

  friend float16 operator+(float16 a, float16 b) {
    return float16(static_cast<float>(a) + static_cast<float>(b));
  }
  friend float16 operator-(float16 a, float16 b) {
    return float16(static_cast<float>(a) - static_cast<float>(b));
  }
  friend float16 operator*(float16 a, float16 b) {
    return float16(static_cast<float>(a) * static_cast<float>(b));
  }
  friend float16 operator/(float16 a, float16 b) {
    return float16(static_cast<float>(a) / static_cast<float>(b));
  }
  friend constexpr float16 operator-(float16 a) {
    return from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }
  friend constexpr float16 operator+(float16 a) { return a; }

  float16& operator+=(float16 o) { return *this = *this + o; }
  float16& operator-=(float16 o) { return *this = *this - o; }
  float16& operator*=(float16 o) { return *this = *this * o; }
  float16& operator/=(float16 o) { return *this = *this / o; }

  // -- comparisons (IEEE: NaN compares false, -0 == +0) ---------------

  friend bool operator==(float16 a, float16 b) {
    return static_cast<float>(a) == static_cast<float>(b);
  }
  friend bool operator!=(float16 a, float16 b) { return !(a == b); }
  friend bool operator<(float16 a, float16 b) {
    return static_cast<float>(a) < static_cast<float>(b);
  }
  friend bool operator>(float16 a, float16 b) { return b < a; }
  friend bool operator<=(float16 a, float16 b) {
    return static_cast<float>(a) <= static_cast<float>(b);
  }
  friend bool operator>=(float16 a, float16 b) { return b <= a; }

 private:
  /// Apply the thread FTZ policy and update event counters. Called on
  /// every freshly rounded result (i.e., from the converting
  /// constructors, which every arithmetic operator funnels through).
  /// A normal result, the common case, costs one test of the exponent.
  void canonicalize() {
    const unsigned exponent = bits_ & 0x7c00u;
    if (exponent - 0x0400u < 0x7800u) [[likely]] return;  // 1..30: normal
    const bool mantissa = (bits_ & 0x3ffu) != 0;
    if (exponent == 0) {
      if (!mantissa) return;  // signed zero
      auto& c = counters();
      ++c.f16_subnormal_results;
      if (current_ftz_mode() == ftz_mode::flush) {
        ++c.f16_flushed_results;
        bits_ &= 0x8000u;  // signed zero
      }
    } else if (!mantissa) {
      ++counters().f16_overflows;
    } else {
      ++counters().f16_nans;
    }
  }

  std::uint16_t bits_ = 0;
};

static_assert(sizeof(float16) == 2);
static_assert(std::is_trivially_copyable_v<float16>);

// -- math functions ---------------------------------------------------

/// Julia-semantics muladd: round after the multiply AND after the add
/// (two fptrunc steps). This is what Julia emits for software Float16
/// (the exact IR is quoted in § IV-C of the paper).
inline float16 muladd(float16 x, float16 y, float16 z) {
  const float16 prod = x * y;
  return prod + z;
}

/// Hardware-semantics fused multiply-add: a single rounding, matching
/// the A64FX FMLA instruction. Computed exactly via binary64 fma +
/// round-to-odd narrowing (correct by the 2p+2 theorem).
inline float16 fma(float16 x, float16 y, float16 z) {
  const double exact = std::fma(static_cast<double>(x),
                                static_cast<double>(y),
                                static_cast<double>(z));
  return float16(exact);
}

inline float16 abs(float16 x) {
  return float16::from_bits(static_cast<std::uint16_t>(x.bits() & 0x7fffu));
}
inline float16 sqrt(float16 x) {
  return float16(std::sqrt(static_cast<float>(x)));
}
inline float16 exp(float16 x) { return float16(std::exp(static_cast<float>(x))); }
inline float16 log(float16 x) { return float16(std::log(static_cast<float>(x))); }
inline float16 sin(float16 x) { return float16(std::sin(static_cast<float>(x))); }
inline float16 cos(float16 x) { return float16(std::cos(static_cast<float>(x))); }
inline float16 tanh(float16 x) {
  return float16(std::tanh(static_cast<float>(x)));
}
inline float16 pow(float16 x, float16 y) {
  return float16(std::pow(static_cast<float>(x), static_cast<float>(y)));
}
inline float16 min(float16 a, float16 b) { return b < a ? b : a; }
inline float16 max(float16 a, float16 b) { return a < b ? b : a; }
inline bool isnan(float16 x) { return x.isnan(); }
inline bool isinf(float16 x) { return x.isinf(); }
inline bool isfinite(float16 x) { return x.isfinite(); }
inline bool signbit(float16 x) { return x.signbit(); }

/// The next representable binary16 value after `x` toward `dir`
/// (IEEE nextafter semantics: gradual through subnormals and zero,
/// saturating into infinity).
float16 nextafter(float16 x, float16 dir);

/// Distance between two finite binary16 values in units in the last
/// place (number of representable values strictly between them, plus
/// one if distinct). Useful for tight accuracy assertions.
std::int64_t ulp_distance(float16 a, float16 b);

std::ostream& operator<<(std::ostream& os, float16 h);

}  // namespace tfx::fp

/// numeric_limits so that generic numerical code (swm, kernels, tests)
/// can query epsilon/min/max exactly as it would for float or double.
template <>
class std::numeric_limits<tfx::fp::float16> {
 public:
  static constexpr bool is_specialized = true;
  static constexpr bool is_signed = true;
  static constexpr bool is_integer = false;
  static constexpr bool is_exact = false;
  static constexpr bool has_infinity = true;
  static constexpr bool has_quiet_NaN = true;
  static constexpr bool has_denorm_loss = false;
  static constexpr bool is_iec559 = true;
  static constexpr bool is_bounded = true;
  static constexpr bool is_modulo = false;
  static constexpr int digits = 11;
  static constexpr int digits10 = 3;
  static constexpr int max_digits10 = 5;
  static constexpr int radix = 2;
  static constexpr int min_exponent = -13;
  static constexpr int min_exponent10 = -4;
  static constexpr int max_exponent = 16;
  static constexpr int max_exponent10 = 4;
  static constexpr bool traps = false;

  /// Smallest positive normal: 2^-14 ~= 6.10e-5.
  static constexpr tfx::fp::float16 min() noexcept {
    return tfx::fp::float16::from_bits(0x0400);
  }
  /// Largest finite: 65504.
  static constexpr tfx::fp::float16 max() noexcept {
    return tfx::fp::float16::from_bits(0x7bff);
  }
  static constexpr tfx::fp::float16 lowest() noexcept {
    return tfx::fp::float16::from_bits(0xfbff);
  }
  /// 2^-10 ~= 9.77e-4.
  static constexpr tfx::fp::float16 epsilon() noexcept {
    return tfx::fp::float16::from_bits(0x1400);
  }
  static constexpr tfx::fp::float16 round_error() noexcept {
    return tfx::fp::float16::from_bits(0x3800);  // 0.5
  }
  static constexpr tfx::fp::float16 infinity() noexcept {
    return tfx::fp::float16::from_bits(0x7c00);
  }
  static constexpr tfx::fp::float16 quiet_NaN() noexcept {
    return tfx::fp::float16::from_bits(0x7e00);
  }
  /// Smallest positive subnormal: 2^-24 ~= 5.96e-8.
  static constexpr tfx::fp::float16 denorm_min() noexcept {
    return tfx::fp::float16::from_bits(0x0001);
  }
};
