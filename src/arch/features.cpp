#include "arch/features.hpp"

#include "fp/float16.hpp"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_SVE
#define HWCAP_SVE (1 << 22)
#endif
#endif

namespace tfx::arch {

namespace {

cpu_features detect() {
  cpu_features f;
  f.f16c = fp::hardware_f16_conversion();  // the probe fp selected with
#if defined(__x86_64__) || defined(_M_X64)
  f.sse2 = true;  // x86-64 baseline
  f.max_vector_bits = 128;
  f.isa = "sse2";
#if defined(__GNUC__) || defined(__clang__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    f.avx2 = true;
    f.max_vector_bits = 256;
    f.isa = "avx2";
  }
  if (__builtin_cpu_supports("avx512f")) {
    f.avx512f = true;
    f.max_vector_bits = 512;
    f.isa = "avx512f";
  }
#endif
#elif defined(__aarch64__)
  f.neon = true;  // AArch64 baseline ASIMD
  f.max_vector_bits = 128;
  f.isa = "neon";
#if defined(__linux__)
  if ((getauxval(AT_HWCAP) & HWCAP_SVE) != 0) {
    f.sve = true;
    // The granule actually implemented varies (A64FX: 512); without a
    // prctl probe we credit the A64FX width only when compiled for it.
#if defined(__ARM_FEATURE_SVE_BITS) && __ARM_FEATURE_SVE_BITS >= 512
    f.max_vector_bits = 512;
#else
    f.max_vector_bits = 256;
#endif
    f.isa = "sve";
  }
#endif
#else
  f.max_vector_bits = 128;
  f.isa = "portable";
#endif
  return f;
}

}  // namespace

const cpu_features& host_features() {
  static const cpu_features cached = detect();
  return cached;
}

std::size_t preferred_vector_bits() {
  const std::size_t bits = host_features().max_vector_bits;
  if (bits >= 512) return 512;
  if (bits >= 256) return 256;
  return 128;
}

}  // namespace tfx::arch
