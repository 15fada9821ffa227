// Microbenchmarks of Float16 itself: conversion and arithmetic cost on
// the host, in ns per op (core/timer's measure(): calibrated batches,
// the fastest of seven). Each row times the float16 operation on the
// conversion path this process selected (fp::hardware_f16_conversion():
// F16C, or rounding.hpp's routines) next to the same operation built
// directly on rounding.hpp's routines, so the software cost is measured
// on every host. These numbers quantify why the performance figures use
// the machine model rather than host wall-clock for Float16 (DESIGN.md
// § 2): each half op costs several float ops here, while A64FX executes
// it in one SIMD lane.

#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/rng.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "core/units.hpp"
#include "fp/float16.hpp"
#include "fp/rounding.hpp"

using namespace tfx;
using tfx::fp::float16;

namespace {

constexpr std::size_t kOperands = 4096;

template <typename T>
std::vector<T> random_values(std::uint64_t seed, double lo, double hi) {
  xoshiro256 rng(seed);
  std::vector<T> v(kOperands);
  for (auto& x : v) x = static_cast<T>(rng.uniform(lo, hi));
  return v;
}

/// Nanoseconds per `op(k)`, cycling k over the operand arrays. Every
/// result passes through an empty asm statement that claims to read
/// it, so the compiler must compute it and cannot fold the loop away.
template <typename Op>
double ns_per_op(Op op) {
  std::size_t i = 0;
  const auto t = measure([&] {
    const auto r = op(i++ & (kOperands - 1));
    asm volatile("" : : "r,m"(r) : "memory");
  });
  return t.min() * 1e9;
}

/// The software twin of a float16 operation: widen and round with the
/// rounding.hpp routines. It leaves out float16's FTZ/counter step, one
/// exponent test on a normal result.
float widen(float16 h) {
  return std::bit_cast<float>(fp::f16_bits_to_f32_bits(h.bits()));
}
std::uint16_t narrow(float f) {
  return fp::f32_bits_to_f16_bits(std::bit_cast<std::uint32_t>(f));
}
float16 narrow16(float f) { return float16::from_bits(narrow(f)); }

}  // namespace

int main() {
  std::printf("Float16 on the host: ns per operation. Conversions: %s.\n",
              fp::hardware_f16_conversion()
                  ? "F16C (vcvtph2ps/vcvtps2ph), selected at startup"
                  : "software (rounding.hpp), no F16C on this host");

  const auto f32 = random_values<float>(1, -1e4, 1e4);
  const auto f64 = random_values<double>(2, -1e4, 1e4);
  const auto half = [](std::uint64_t seed) {
    return random_values<float16>(seed, 0.1, 4.0);
  };
  const auto add_a = half(3), add_b = half(4);
  const auto mul_a = half(5), mul_b = half(6);
  const auto mad_a = half(7), mad_b = half(8);
  const auto fma_a = half(9), fma_b = half(10);
  const auto fa = random_values<float>(11, 0.1, 4.0);
  const auto fb = random_values<float>(12, 0.1, 4.0);

  const double base =
      ns_per_op([&](std::size_t k) { return fa[k] + fb[k]; });
  const struct {
    const char* name;
    double ns;
    double software_ns;
  } rows[] = {
      {"f16 -> f32",
       ns_per_op([&](std::size_t k) { return static_cast<float>(add_a[k]); }),
       ns_per_op([&](std::size_t k) { return widen(add_a[k]); })},
      {"f32 -> f16",
       ns_per_op([&](std::size_t k) { return float16(f32[k]).bits(); }),
       ns_per_op([&](std::size_t k) { return narrow(f32[k]); })},
      {"f64 -> f16",
       ns_per_op([&](std::size_t k) { return float16(f64[k]).bits(); }),
       ns_per_op([&](std::size_t k) { return fp::f64_to_f16_bits(f64[k]); })},
      {"f16 add",
       ns_per_op([&](std::size_t k) { return (add_a[k] + add_b[k]).bits(); }),
       ns_per_op([&](std::size_t k) {
         return narrow(widen(add_a[k]) + widen(add_b[k]));
       })},
      {"f16 mul",
       ns_per_op([&](std::size_t k) { return (mul_a[k] * mul_b[k]).bits(); }),
       ns_per_op([&](std::size_t k) {
         return narrow(widen(mul_a[k]) * widen(mul_b[k]));
       })},
      {"f16 muladd",
       ns_per_op([&](std::size_t k) {
         return muladd(mad_a[k], mad_b[k], mad_a[k]).bits();
       }),
       ns_per_op([&](std::size_t k) {
         const float16 prod = narrow16(widen(mad_a[k]) * widen(mad_b[k]));
         return narrow(widen(prod) + widen(mad_a[k]));
       })},
      {"f16 fma (exact)",
       ns_per_op([&](std::size_t k) {
         return fma(fma_a[k], fma_b[k], fma_a[k]).bits();
       }),
       ns_per_op([&](std::size_t k) {
         const double a = widen(fma_a[k]), b = widen(fma_b[k]);
         return fp::f64_to_f16_bits(std::fma(a, b, a));
       })},
  };

  table t({"operation", "float16 ns/op", "x float add", "software ns/op",
           "x float add"});
  for (const auto& r : rows) {
    t.add_row({r.name, format_fixed(r.ns, 2), format_fixed(r.ns / base, 1),
               format_fixed(r.software_ns, 2),
               format_fixed(r.software_ns / base, 1)});
  }
  t.add_row({"float add (baseline)", format_fixed(base, 2), "1.0", "", ""});
  t.print(std::cout);
  return 0;
}
