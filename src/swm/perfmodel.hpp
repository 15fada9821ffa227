#pragma once

/// \file perfmodel.hpp
/// Modeled A64FX runtime of one shallow-water time step at each
/// precision configuration - the instrument behind Figs. 4 and 5.
///
/// The model is memory-traffic driven because ShallowWaters is a
/// memory-bound application ("it benefits from Float16 on A64FX even
/// without vectorization and approaches 4x speedups over Float64 for
/// large problems", § III-B): per step we account every array sweep of
/// the RK4 loop (4 RHS evaluations, stage combinations, the increment
/// reduction, the prognostic update and, when enabled, the Kahan
/// compensation arrays and the mixed-precision down-casts), convert
/// sweeps to bytes using the *actual element sizes involved*, and
/// divide by the bandwidth of the hierarchy level the working set
/// streams from. A vectorized-compute term and a fixed per-step
/// overhead bound the small-grid end, where speedups collapse toward
/// 1x exactly as in Fig. 5.

#include <cstddef>
#include <cstdint>

#include "arch/a64fx.hpp"
#include "mpisim/network.hpp"

namespace tfx::swm {

/// Precision configuration of a run (mirrors model<T, Tprog>).
struct precision_config {
  std::size_t elem_bytes = 8;       ///< sizeof(T): RHS computation type
  std::size_t prog_elem_bytes = 8;  ///< sizeof(Tprog): integration type
  bool compensated = false;         ///< Kahan arrays carried per field
  const char* name = "Float64";

  [[nodiscard]] bool mixed() const { return elem_bytes != prog_elem_bytes; }
};

/// The four configurations of Fig. 5.
precision_config config_float64();
precision_config config_float32();
precision_config config_float16();       ///< compensated, as in the paper
precision_config config_float16_32();    ///< mixed: F16 RHS, F32 integration

/// Cost breakdown of one model step on the modeled machine.
struct step_cost {
  double seconds = 0;
  double memory_seconds = 0;
  double compute_seconds = 0;
  double overhead_seconds = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t working_set_bytes = 0;
  /// Element-wise update loops launched per step outside the RHS
  /// (stage combines, mixed-precision down-casts, the fused
  /// increment+apply): 4 same-precision, 8 mixed (docs/MODEL.md
  /// tabulates).
  std::uint64_t update_sweeps = 0;
  /// Bytes those update loops move per step (subset of bytes_moved).
  std::uint64_t update_bytes = 0;
};

/// Predict one RK4 step of an nx x ny model under `config`.
step_cost predict_step(const arch::a64fx_params& machine, int nx, int ny,
                       const precision_config& config);

/// Convenience: modeled speedup of `config` over Float64 at a size.
double speedup_vs_float64(const arch::a64fx_params& machine, int nx, int ny,
                          const precision_config& config);

/// Halo-exchange schemes predict_halo can price (docs/COMM.md). The
/// distributed model runs aggregated_overlap; the other two are retired
/// engines, priced only, as the baselines it is measured against.
enum class halo_mode : std::uint8_t {
  per_field,           ///< 7 blocking one-row exchanges per RHS eval
  aggregated,          ///< packed 3 prognostic + 4 derived row phases
  aggregated_overlap,  ///< one packed 2+2+1-row exchange per RHS eval,
                       ///< interior compute under it (the engine)
};

/// Alpha-beta prediction of one rank's halo communication per RK4
/// step. `messages` and `bytes` are exact mirrors of what the model
/// sends (the obs counters swm.halo_messages / swm.halo_bytes measure
/// the same quantities and the comm tests assert equality); `seconds`
/// is the uncontended Hockney bound - per message one
/// o_send + o_recv + alpha + per-hop latency (ring neighbours sit one
/// torus hop apart on the default line placement, plus the rendezvous
/// surcharge past the eager threshold) plus bytes over the link
/// bandwidth - ignoring port contention and cross-message pipelining.
struct halo_cost {
  std::uint64_t messages = 0;  ///< sends this rank posts per step
  std::uint64_t bytes = 0;     ///< payload bytes this rank sends per step
  double seconds = 0;          ///< uncontended alpha-beta time per step

  // -- comm-aware extension (docs/TOPOLOGY.md) -----------------------
  // Placement-aware overload only; the placement-free overload models
  // an uncontended fabric, so there contended_seconds == seconds.
  double contended_seconds = 0;   ///< + store-and-forward + link queueing
  double link_wait_seconds = 0;   ///< the queueing term alone
  /// Largest number of halo flows (rank, direction pairs) sharing any
  /// directed torus link this rank's messages route over; 1 means this
  /// rank's halo traffic is congestion-free. Under the block placement
  /// the ring halo keeps this at 1 - neighbouring ranks either share a
  /// node or sit on adjacent nodes with disjoint dimension-ordered
  /// routes - which is why Fig. 3-style collectives, not halos, are
  /// where contention bites.
  std::uint64_t max_link_flows = 0;
};

/// Predict one rank's per-step halo traffic for an nx-wide slab of
/// sizeof-`elem_bytes` elements split over `ranks` ranks under `mode`
/// (by default the engine the distributed model runs).
halo_cost predict_halo(const mpisim::tofud_params& net, int nx,
                       std::size_t elem_bytes, int ranks,
                       halo_mode mode = halo_mode::aggregated_overlap);

/// Placement-aware overload: `rank`'s ring neighbours are located on
/// the torus, intra-node messages are priced at shared-memory
/// latency/bandwidth, inter-node ones at their true dimension-ordered
/// hop count, and the contended fields are filled from a per-link flow
/// census of every rank's halo messages (the analytic twin of the
/// DES's fabric_mode::contended). `messages` and `bytes` stay exactly
/// what the obs counters swm.halo_messages / swm.halo_bytes record -
/// the placement changes *costs*, never traffic.
halo_cost predict_halo(const mpisim::tofud_params& net,
                       const mpisim::torus_placement& place, int rank,
                       int nx, std::size_t elem_bytes, int ranks,
                       halo_mode mode = halo_mode::aggregated_overlap);

/// Modeled wall seconds to integrate `steps` RK4 steps of one nx x ny
/// member at `config` — the admission-control price of an ensemble job
/// (src/ensemble prices its backlog bound with this). For ranks > 1
/// the per-step packed-overlapped halo term from predict_halo is added
/// on top of the compute/memory step cost, so distributed members are
/// priced with the same comm model the halo engine validates against
/// obs counters.
double predict_time(const arch::a64fx_params& machine, int nx, int ny,
                    const precision_config& config, int steps, int ranks = 1,
                    const mpisim::tofud_params& net = mpisim::tofud_params{});

}  // namespace tfx::swm
