#pragma once

/// \file rounding.hpp
/// Bit-exact conversions between IEEE-754 binary64/binary32 and the
/// 16-bit formats (binary16, bfloat16), all in round-to-nearest-even.
///
/// Correctness notes (these are the properties the tests pin down):
///
/// * binary32 -> binary16 is implemented directly on the bit pattern
///   with a guard/sticky rounding step, including gradual underflow to
///   binary16 subnormals and rounding-induced overflow to infinity
///   (values >= 65520 round to +inf).
/// * binary64 -> binary16 cannot simply go through binary32 with two
///   round-to-nearest steps: that double rounding is wrong for values
///   that are ties at binary16 precision but not at binary32 precision.
///   We instead convert binary64 -> binary32 with *round-to-odd* (keep
///   a sticky bit in the binary32 LSB) and then round once to binary16.
///   Because binary32 carries more than 2*11+2 significand bits, this
///   composition is exactly a single correctly-rounded conversion
///   [Boldo & Melquiond, "When double rounding is odd", 2005].
/// * binary32 arithmetic on binary16 operands followed by truncation to
///   binary16 is *bit-identical* to native binary16 arithmetic for
///   + - * / and sqrt, again by the 2p+2 theorem. This is why Julia's
///   software Float16 (the fpext/fptrunc scheme quoted in § IV-C of the
///   paper) agrees with A64FX hardware, and why this library's results
///   are faithful to the machine we are simulating.
///
/// On x86-64 hosts with F16C, `float16` converts through `VCVTPH2PS`
/// and `VCVTPS2PH` instead (float16.hpp), and these routines remain the
/// path for every other CPU and the tests' reference. The two agree bit
/// for bit. The binary16 -> binary32 direction is exact on both.
/// `VCVTPS2PH` with immediate 0 rounds to nearest even whatever
/// MXCSR.RC holds, so it performs the same single rounding as
/// `f32_bits_to_f16_bits`, and the 2p+2 argument above applies to it
/// unchanged. MXCSR.DAZ turns a binary32 subnormal input into a zero of
/// its sign, which is where the routine below rounds every such input.
/// A NaN keeps its sign and top ten payload bits and gains the quiet
/// bit on both paths.

#include <bit>
#include <cstdint>

namespace tfx::fp {

/// Convert binary32 bits to binary16 bits, round-to-nearest-even.
constexpr std::uint16_t f32_bits_to_f16_bits(std::uint32_t x) {
  const auto sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  const std::uint32_t absx = x & 0x7fffffffu;

  if (absx >= 0x7f800000u) {  // infinity or NaN
    if (absx > 0x7f800000u) {
      // NaN: preserve the top payload bits, force quiet.
      const auto payload = static_cast<std::uint16_t>((absx & 0x7fffffu) >> 13);
      return static_cast<std::uint16_t>(sign | 0x7e00u | payload);
    }
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }

  const std::int32_t exp32 = static_cast<std::int32_t>(absx >> 23);
  const std::int32_t exp16 = exp32 - 127 + 15;
  const std::uint32_t man = absx & 0x7fffffu;

  if (exp16 >= 31) {  // overflows even before rounding
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }

  if (exp16 >= 1) {
    // Normal result (modulo rounding carry). Keep the top 10 mantissa
    // bits; round on the discarded 13.
    std::uint32_t base =
        (static_cast<std::uint32_t>(exp16) << 10) | (man >> 13);
    const std::uint32_t rem = man & 0x1fffu;
    base += (rem > 0x1000u) || (rem == 0x1000u && (base & 1u));
    // A carry out of the mantissa propagates into the exponent field;
    // reaching the infinity encoding is exactly rounding-to-overflow.
    if (base >= 0x7c00u) return static_cast<std::uint16_t>(sign | 0x7c00u);
    return static_cast<std::uint16_t>(sign | base);
  }

  // Subnormal or zero result. The significand (with implicit bit if the
  // input is a binary32 normal) must be shifted right by 14 - exp16
  // bits; everything shifted out feeds guard/sticky.
  if (exp32 == 0) {
    // binary32 subnormals are < 2^-126, far below the smallest binary16
    // subnormal midpoint (2^-25): they all round to signed zero.
    return sign;
  }
  // With exp16 <= 0 the result is value / 2^-24 rounded to an integer
  // count of binary16 subnormal ulps: full * 2^-shift for the 24-bit
  // significand `full` and shift = 14 - exp16 >= 14.
  const std::int32_t shift = 14 - exp16;
  if (shift > 25) return sign;  // value < 2^-26: far below the 0/ulp tie
  const std::uint64_t full = (static_cast<std::uint64_t>(man) | 0x800000u);
  std::uint64_t base = full >> shift;
  const std::uint64_t rem = full & ((1ULL << shift) - 1);
  const std::uint64_t half = 1ULL << (shift - 1);
  base += (rem > half) || (rem == half && (base & 1));
  // base may carry into the smallest normal (exponent field becomes 1):
  // that encoding is already correct.
  return static_cast<std::uint16_t>(sign | static_cast<std::uint16_t>(base));
}

/// Convert binary16 bits to binary32 bits (always exact).
constexpr std::uint32_t f16_bits_to_f32_bits(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t man = h & 0x3ffu;

  if (exp == 0x1fu) {  // infinity or NaN
    return sign | 0x7f800000u | (man << 13) | (man ? 0x400000u : 0u);
  }
  if (exp == 0) {
    if (man == 0) return sign;  // signed zero
    // Subnormal: normalize.
    int e = -1;
    std::uint32_t m = man;
    do {
      ++e;
      m <<= 1;
    } while ((m & 0x400u) == 0);
    const std::uint32_t exp32 = static_cast<std::uint32_t>(127 - 15 - e);
    return sign | (exp32 << 23) | ((m & 0x3ffu) << 13);
  }
  return sign | ((exp + 127 - 15) << 23) | (man << 13);
}

/// Convert binary32 bits to bfloat16 bits, round-to-nearest-even.
/// bfloat16 shares binary32's exponent range, so this is a pure
/// mantissa truncation with rounding; no gradual-underflow special case
/// is needed beyond what binary32 already encodes.
constexpr std::uint16_t f32_bits_to_bf16_bits(std::uint32_t x) {
  if ((x & 0x7fffffffu) > 0x7f800000u) {
    // NaN: keep sign + top payload bits, force quiet.
    return static_cast<std::uint16_t>((x >> 16) | 0x0040u);
  }
  const std::uint32_t lsb = (x >> 16) & 1u;
  const std::uint32_t rounded = x + 0x7fffu + lsb;
  return static_cast<std::uint16_t>(rounded >> 16);
}

/// Convert bfloat16 bits to binary32 bits (always exact).
constexpr std::uint32_t bf16_bits_to_f32_bits(std::uint16_t b) {
  return static_cast<std::uint32_t>(b) << 16;
}

/// binary64 -> binary32 with round-to-odd (sticky LSB). Used as the
/// inner step of the correctly-rounded binary64 -> 16-bit conversions.
inline float f64_to_f32_round_to_odd(double d) {
  float f = static_cast<float>(d);  // round-to-nearest-even
  const double back = static_cast<double>(f);
  if (back == d || f != f) return f;  // exact, or NaN
  std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
  // If RN rounded away from zero, step back to the truncated value. The
  // IEEE bit patterns of same-signed floats are ordered by magnitude,
  // so +-1 on the pattern moves one ULP. (bits cannot encode +-0 here
  // when it rounded away, since rounding away from zero from a nonzero
  // value never lands on zero.)
  const double absd = d < 0 ? -d : d;
  double absf = back < 0 ? -back : back;
  if (absf > absd) {
    --bits;
  }
  bits |= 1u;  // sticky: make the result odd
  return std::bit_cast<float>(bits);
}

/// Correctly rounded binary64 -> binary16 (round-to-nearest-even).
inline std::uint16_t f64_to_f16_bits(double d) {
  if (d != d) {  // NaN: route through the binary32 payload logic
    return f32_bits_to_f16_bits(
        std::bit_cast<std::uint32_t>(static_cast<float>(d)));
  }
  const float odd = f64_to_f32_round_to_odd(d);
  return f32_bits_to_f16_bits(std::bit_cast<std::uint32_t>(odd));
}

/// Correctly rounded binary64 -> bfloat16 (round-to-nearest-even).
inline std::uint16_t f64_to_bf16_bits(double d) {
  if (d != d) {
    return f32_bits_to_bf16_bits(
        std::bit_cast<std::uint32_t>(static_cast<float>(d)));
  }
  const float odd = f64_to_f32_round_to_odd(d);
  return f32_bits_to_bf16_bits(std::bit_cast<std::uint32_t>(odd));
}

}  // namespace tfx::fp
