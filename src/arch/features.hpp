#pragma once

/// \file features.hpp
/// Runtime CPU-feature detection for the kernel dispatcher.
///
/// The paper's performance story needs two width notions kept apart:
///
///  * the *modeled* width — the A64FX's 512-bit SVE lanes that
///    arch::a64fx_params and the roofline charge for (what the paper's
///    Fig. 1 measures), and
///  * the *host* width — whatever the build machine actually executes,
///    which decides the width the fixed-width kernels
///    (kernels/simd.hpp) run at for wall-clock numbers.
///
/// This header answers the second question. Detection is done once
/// (first call), is thread-safe, and degrades gracefully: on an
/// unrecognized architecture the answer is the portable 128-bit
/// minimum. Every fixed-width kernel stays executable at every width:
/// kernels::with_simd_width (kernels/dispatch.hpp) runs a width on the
/// host's own ISA for it where `avx2` / `avx512f` below say there is
/// one, and above the host's widest vectors the compiler synthesizes
/// the wide operations from narrower ones.

#include <cstddef>
#include <string_view>

namespace tfx::arch {

/// What the host CPU advertises, reduced to the decisions the kernel
/// layer actually takes.
struct cpu_features {
  bool sse2 = false;     ///< x86-64 baseline (always true there)
  bool avx2 = false;     ///< 256-bit integer+FP vectors
  bool avx512f = false;  ///< 512-bit vectors
  bool neon = false;     ///< AArch64 baseline ASIMD
  bool sve = false;      ///< scalable vectors (the A64FX's ISA)
  /// float16 converts through F16C (x86-64; `fp::hardware_f16_conversion`).
  bool f16c = false;

  /// Widest vector width (bits) the host can execute natively. One of
  /// 128 / 256 / 512. The fixed-width kernels remain *runnable* above
  /// this (synthesized from narrower ops); up to it, with_simd_width
  /// runs them on the host's AVX2 / AVX-512F copies on x86-64.
  std::size_t max_vector_bits = 128;

  /// Short human-readable ISA summary ("avx512f", "avx2", "neon", ...).
  std::string_view isa = "portable";
};

/// The host's features, detected once and cached (thread-safe).
const cpu_features& host_features();

/// The widest kernel width worth running on this host, and so the width
/// policy's default: host_features().max_vector_bits clamped to the
/// widths the simd layer instantiates (128/256/512).
std::size_t preferred_vector_bits();

}  // namespace tfx::arch
