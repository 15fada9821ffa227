#pragma once

/// \file distributed.hpp
/// Domain-decomposed shallow-water model over the simulated MPI.
///
/// The paper's § III-A measures MPI overheads and § III-B a
/// single-node application; a production weather model combines them.
/// This header does exactly that on the library's own substrates: the
/// grid is split into y-slabs across mpisim ranks, and each rank runs
/// the serial model's own physics on its slab - the five row-range
/// passes of rhs_evaluator<T, slab<T>> and the fused stage-combine and
/// RK4 sweeps of timestep.hpp. The only code here is the decomposition:
/// which rows a rank owns, and the two halo exchanges per RHS
/// evaluation (the prognostic u,v,eta before the vorticity/KE and
/// Laplacian passes, the derived zeta/KE/Laplacian fields before the
/// tendency passes, which read them at j±1). tests/swm_distributed_test
/// pins the trajectories bit-for-bit against the serial model.
///
/// Halos move through the packed halo_exchanger (swm/halo.hpp): one
/// message per neighbour per phase, with the halo-independent interior
/// rows computed while the payloads are in flight and the boundary
/// rows after finish(). docs/COMM.md has the full story.
///
/// Restrictions: every rank's slab must be at least 2 rows tall
/// (ny / ranks >= 2; uneven decompositions spread the remainder over
/// the first ny % ranks ranks); periodic boundaries and square cells
/// (rhs_evaluator checks dx == dy); standard or compensated
/// integration (mixed precision is a single-rank feature).

#include <vector>

#include "core/contracts.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/diagnostics.hpp"
#include "swm/field.hpp"
#include "swm/halo.hpp"
#include "swm/health.hpp"
#include "swm/params.hpp"
#include "swm/perfmodel.hpp"
#include "swm/rhs.hpp"
#include "swm/timestep.hpp"

namespace tfx::swm {

/// Rows of the y-slab owned by `rank` when `ny` rows are split over
/// `p` ranks: ny/p everywhere, plus one extra row on each of the first
/// ny % p ranks.
[[nodiscard]] constexpr int slab_rows(int ny, int p, int rank) {
  return ny / p + (rank < ny % p ? 1 : 0);
}

/// Global index of the first row of `rank`'s slab (prefix sum of
/// slab_rows).
[[nodiscard]] constexpr int slab_offset(int ny, int p, int rank) {
  const int rem = ny % p;
  return rank * (ny / p) + (rank < rem ? rank : rem);
}

/// The distributed model: same template discipline as swm::model, with
/// an mpisim::communicator driving the halo exchanges.
template <typename T>
class distributed_model {
 public:
  distributed_model(mpisim::communicator& comm, swm_params params,
                    integration_scheme scheme = integration_scheme::standard)
      : comm_(comm), params_(checked(params, comm.size())), scheme_(scheme),
        local_ny_(slab_rows(params.ny, comm.size(), comm.rank())),
        j0_(slab_offset(params.ny, comm.size(), comm.rank())),
        rhs_(params, j0_, local_ny_),
        halo_(comm, params.nx),
        prog_(params.nx, local_ny_),
        comp_(params.nx, local_ny_),
        stage_(params.nx, local_ny_),
        k1_(params.nx, local_ny_),
        k2_(params.nx, local_ny_),
        k3_(params.nx, local_ny_),
        k4_(params.nx, local_ny_) {
    prog_.fill(T{});
    comp_.fill(T{});
  }

  [[nodiscard]] int local_ny() const { return local_ny_; }
  [[nodiscard]] int global_j0() const { return j0_; }
  [[nodiscard]] const swm_params& params() const { return params_; }

  /// Charge `seconds` of modeled compute per RHS evaluation onto the
  /// rank's virtual clock, split across the two exchange windows by
  /// split_rhs_compute. 0 (the default) keeps the step loop's virtual
  /// time comm-only. With a charge set, the interior share is paid
  /// while the halo payloads are in flight - which is what makes
  /// overlap visible in virtual time (bench/ablation_halo prices it).
  void set_modeled_rhs_seconds(double seconds) {
    rhs_split_ = split_rhs_compute(seconds, local_ny_);
  }

  /// Adopt the rank's slab of a global state (e.g. produced by the
  /// serial model's seeding, for reproducible comparisons).
  void set_from_global(const state<T>& global) {
    TFX_EXPECTS(global.nx() == params_.nx && global.ny() == params_.ny);
    for (int j = 0; j < local_ny_; ++j) {
      for (int i = 0; i < params_.nx; ++i) {
        prog_.u(i, j) = global.u(i, j0_ + j);
        prog_.v(i, j) = global.v(i, j0_ + j);
        prog_.eta(i, j) = global.eta(i, j0_ + j);
      }
    }
    comp_.fill(T{});
  }

  /// Gather the full state to every rank: the historical ring
  /// allgather when the decomposition is uniform (preserving that
  /// path's virtual clocks bit-for-bit), gatherv to rank 0 plus a
  /// bcast when slab heights differ.
  [[nodiscard]] state<T> gather_global() {
    state<T> out(params_.nx, params_.ny);
    const int p = comm_.size();
    const std::size_t chunk = static_cast<std::size_t>(params_.nx) *
                              static_cast<std::size_t>(local_ny_);
    std::vector<T> mine(chunk);
    const bool uniform = params_.ny % p == 0;
    std::vector<std::size_t> counts;
    if (!uniform) {
      counts.resize(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        counts[static_cast<std::size_t>(r)] =
            static_cast<std::size_t>(params_.nx) *
            static_cast<std::size_t>(slab_rows(params_.ny, p, r));
      }
    }
    auto pack = [&](slab<T>& s, field2d<T>& dst) {
      std::copy(s.interior().begin(), s.interior().end(), mine.begin());
      std::vector<T> all(static_cast<std::size_t>(params_.nx) *
                         static_cast<std::size_t>(params_.ny));
      if (uniform) {
        mpisim::allgather(comm_, std::span<const T>(mine), std::span<T>(all));
      } else {
        mpisim::gatherv(comm_, std::span<const T>(mine),
                        std::span<const std::size_t>(counts),
                        std::span<T>(all), 0);
        mpisim::bcast(comm_, std::span<T>(all), 0);
      }
      std::copy(all.begin(), all.end(), dst.flat().begin());
    };
    pack(prog_.u, out.u);
    pack(prog_.v, out.v);
    pack(prog_.eta, out.eta);
    return out;
  }

  /// One RK4 step (collective: every rank must call it). Traced as a
  /// swm.step span on the rank's *virtual* clock (track = rank), so a
  /// threaded run and its DES twin produce identical step timelines;
  /// the span closes during unwinding too, keeping B/E pairs balanced
  /// when a fault plane kills the step mid-exchange.
  void step() {
    const std::uint64_t msgs0 = halo_.messages_sent();
    const std::uint64_t bytes0 = halo_.bytes_sent();
    const obs::scoped_vspan span(
        obs::domain::swm, static_cast<std::uint16_t>(comm_.rank()),
        "swm.step", [this] { return comm_.now(); },
        static_cast<std::uint64_t>(steps_));
    const std::size_t cells = prog_.eta.interior().size();
    const T half = T(0.5);
    const T one = T(1);
    eval_rhs(prog_, k1_);
    fused_stage_combine_range(stage_, prog_, k1_, half, 0, cells);
    eval_rhs(stage_, k2_);
    fused_stage_combine_range(stage_, prog_, k2_, half, 0, cells);
    eval_rhs(stage_, k3_);
    fused_stage_combine_range(stage_, prog_, k3_, one, 0, cells);
    eval_rhs(stage_, k4_);
    fused_rk4_apply_range(prog_, comp_, k1_, k2_, k3_, k4_, scheme_, 0,
                          cells);
    ++steps_;
    if (health_every_ > 0 && steps_ % health_every_ == 0) check_health();
    emit_step_obs(halo_.messages_sent() - msgs0, halo_.bytes_sent() - bytes0);
  }

  void run(int steps) {
    for (int s = 0; s < steps; ++s) step();
  }

  [[nodiscard]] int steps_taken() const { return steps_; }

  /// Scan the surface height every `every` steps inside step() and
  /// raise numerical_error on the first non-finite value; 0 disables
  /// the sentinel (the default - the branch costs one integer modulo
  /// and no allocation, keeping the disabled step loop bit-identical).
  void set_health_interval(int every) { health_every_ = every; }

  /// The sentinel scan itself (swm/health.hpp); callable directly by
  /// the resilience layer, which orders it *before* checkpoint commits
  /// so a poisoned state can never enter a prepared checkpoint.
  void check_health() const {
    require_finite(prog_.eta.interior(), "eta", steps_, comm_.rank());
  }

  // -- checkpoint/rollback surface (swm/resilience.hpp) ---------------

  /// Elements in `rank`'s packed state image (slab heights differ
  /// under an uneven decomposition, so snapshot buffers must be sized
  /// by the image's *owner*, not the receiving rank).
  [[nodiscard]] std::size_t packed_size_of(int rank) const {
    return 6ull * static_cast<std::size_t>(params_.nx) *
           static_cast<std::size_t>(slab_rows(params_.ny, comm_.size(), rank));
  }

  /// Elements in this rank's packed state image: prognostic u,v,eta
  /// plus the Kahan compensation slabs, interiors only (halos are
  /// re-exchanged).
  [[nodiscard]] std::size_t packed_size() const {
    return packed_size_of(comm_.rank());
  }

  /// Serialize this rank's full integration state into `out`
  /// (packed_size() elements): the exact bits needed to resume
  /// bit-identically, including the compensation residuals.
  void pack_state(std::span<T> out) const {
    TFX_EXPECTS(out.size() == packed_size());
    std::size_t at = 0;
    for (const slab<T>* s : {&prog_.u, &prog_.v, &prog_.eta, &comp_.u,
                             &comp_.v, &comp_.eta}) {
      const auto src = s->interior();
      std::copy(src.begin(), src.end(), out.begin() + at);
      at += src.size();
    }
  }

  /// Inverse of pack_state: adopt a packed image and step counter.
  void restore_packed(std::span<const T> in, int steps) {
    TFX_EXPECTS(in.size() == packed_size());
    std::size_t at = 0;
    for (slab<T>* s : {&prog_.u, &prog_.v, &prog_.eta, &comp_.u, &comp_.v,
                       &comp_.eta}) {
      auto dst = s->interior();
      std::copy(in.begin() + at, in.begin() + at + dst.size(), dst.begin());
      at += dst.size();
    }
    steps_ = steps;
  }

  /// Direct access for recovery bookkeeping and fault injection.
  [[nodiscard]] slab_state<T>& prognostic_slabs() { return prog_; }
  [[nodiscard]] const slab_state<T>& prognostic_slabs() const {
    return prog_;
  }
  [[nodiscard]] slab_state<T>& compensation_slabs() { return comp_; }

  /// Global maximum speed via allreduce (a CFL monitor every rank
  /// obtains collectively).
  [[nodiscard]] double global_max_speed() {
    double local = 0;
    for (int j = 0; j < local_ny_; ++j) {
      for (int i = 0; i < params_.nx; ++i) {
        local = std::max({local,
                          std::abs(static_cast<double>(prog_.u(i, j))),
                          std::abs(static_cast<double>(prog_.v(i, j)))});
      }
    }
    local /= rhs_.coeffs().scale;
    std::vector<double> in{local}, out{0.0};
    mpisim::allreduce(comm_, std::span<const double>(in),
                      std::span<double>(out), mpisim::ops::max{},
                      mpisim::coll_algorithm::recursive_doubling);
    return out[0];
  }

 private:
  using engine_phase = typename halo_exchanger<T>::phase;

  static const swm_params& checked(const swm_params& p, int ranks) {
    TFX_EXPECTS(p.bc == boundary::periodic &&
                "distributed_model supports periodic boundaries");
    TFX_EXPECTS(p.ny / ranks >= 2 &&
                "every rank needs a slab at least 2 rows tall");
    return p;
  }

  /// rhs_evaluator::operator()'s five passes on the slab, around the
  /// two halo phases: each pass group runs its interior rows
  /// (1..local_ny-2, which read no halo) while the packed halos are in
  /// flight and its boundary rows (0 and local_ny-1) after finish().
  /// Per-point arithmetic and inputs are unchanged, so the reordering
  /// is bit-invisible.
  void eval_rhs(slab_state<T>& st, tendencies<T>& out) {
    const int nyl = local_ny_;
    auto prognostic_passes = [&](int jb, int je) {
      rhs_.pass_vorticity_ke(st, jb, je);
      rhs_.pass_laplacians(st, jb, je);
    };
    // The continuity pass needs only prognostic halos, but runs with
    // the tendencies to keep the serial pass order.
    auto tendency_passes = [&](int jb, int je) {
      rhs_.pass_u_momentum(st, out, jb, je);
      rhs_.pass_v_momentum(st, out, jb, je);
      rhs_.pass_continuity(st, out, jb, je);
    };

    halo_.start(engine_phase::prognostic, {&st.u, &st.v, &st.eta});
    prognostic_passes(1, nyl - 1);
    charge(rhs_split_.interior_prognostic);
    halo_.finish();
    prognostic_passes(0, 1);
    prognostic_passes(nyl - 1, nyl);
    charge(rhs_split_.boundary_prognostic);

    const auto [zeta, ke, lap_u, lap_v] = rhs_.derived_fields();
    halo_.start(engine_phase::derived, {zeta, ke, lap_u, lap_v});
    tendency_passes(1, nyl - 1);
    charge(rhs_split_.interior_derived);
    halo_.finish();
    tendency_passes(0, 1);
    tendency_passes(nyl - 1, nyl);
    charge(rhs_split_.boundary_derived);
  }

  /// Modeled compute charge (set_modeled_rhs_seconds); mirrors the
  /// DES program's `if (s > 0)` guard so the engines stay pinned.
  void charge(double seconds) {
    if (seconds > 0) comm_.advance(seconds);
  }

  /// Per-step halo-traffic samples: value = what this rank's halo
  /// engine sent this step, aux = the perfmodel prediction
  /// (predict_halo) - the distributed counterpart of the serial
  /// model's swm.update_bytes counter. Measured and predicted agree
  /// exactly; tests/swm_halo_test pins it.
  void emit_step_obs(std::uint64_t messages, std::uint64_t bytes) {
    if (!obs::active()) return;
    const halo_cost predicted =
        predict_halo(comm_.net(), params_.nx, sizeof(T), comm_.size());
    obs::counter_at(obs::domain::swm, static_cast<std::uint16_t>(comm_.rank()),
                    "swm.halo_bytes", comm_.now(), bytes, predicted.bytes);
    obs::counter_at(obs::domain::swm, static_cast<std::uint16_t>(comm_.rank()),
                    "swm.halo_messages", comm_.now(), messages,
                    predicted.messages);
    obs::metric_add("swm.halo_bytes", bytes);
    obs::metric_add("swm.halo_messages", messages);
    obs::metric_add("swm.dist_steps");
  }

  mpisim::communicator& comm_;
  swm_params params_;
  integration_scheme scheme_;
  int local_ny_ = 0;
  int j0_ = 0;
  int steps_ = 0;
  int health_every_ = 0;  ///< 0: sentinel off (default)
  rhs_compute_split rhs_split_{};  ///< all zero: virtual time is comm-only

  rhs_evaluator<T, slab<T>> rhs_;
  halo_exchanger<T> halo_;
  slab_state<T> prog_, comp_, stage_;
  tendencies<T> k1_, k2_, k3_, k4_;
};

}  // namespace tfx::swm
