#pragma once

/// \file halo.hpp
/// The halo engine of the distributed shallow-water model: the
/// aggregated, overlappable halo_exchanger over slab<T> (swm/field.hpp).
///
/// The paper's § III-A (Figs. 2-3) shows per-message overhead only
/// vanishing once payloads reach the ≳1-2 KiB regime; shipping each
/// halo row of each field as its own message would pay 7 alpha terms
/// per direction per RHS evaluation where 2 do. The engine packs all
/// fields of a phase (3 prognostic / 4 derived) into one contiguous
/// buffer per neighbour direction - 8 sends per neighbour per RK4
/// step - and exposes start()/finish() so the caller can compute
/// halo-independent interior rows while the messages are in flight.
/// docs/COMM.md describes the packing layout, the overlap window, and
/// the virtual-time accounting.
///
/// Fault-plane compatibility is inherited wholesale: packed channels
/// go through the same send_bytes/recv_bytes paths as any message, so
/// they carry sequence numbers and checksums, retry with backoff, and
/// surface crashes as comm_error - which the engine re-annotates with
/// the phase name. Abandoning a phase mid-exchange (a comm_error
/// during a faulted run) leaves no runtime state behind, because
/// pending receive requests are lazy matchers; recovery replay simply
/// re-arms the engine on the next start().

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "mpisim/patterns.hpp"
#include "mpisim/runtime.hpp"
#include "obs/trace.hpp"
#include "swm/field.hpp"
#include "swm/tags.hpp"

namespace tfx::swm {

/// Persistent aggregated halo engine: one packed message per neighbour
/// direction per phase, receives posted up front, completion split
/// into start()/finish() so interior computation can run while the
/// payloads are in flight.
///
/// Packing layout (field-major): the up-going buffer holds
/// [field0 top row | field1 top row | ...] and the down-going buffer
/// the bottom rows in the same order; the receive buffers mirror this,
/// so unpack offsets are a pure function of (field index, nx) for any
/// field count 1..max_fields. All four buffers are sized for the
/// widest phase at construction - start()/finish() never allocate.
template <typename T>
class halo_exchanger {
 public:
  /// Which of the two eval_rhs exchange phases a start() serves.
  enum class phase : std::uint8_t { prognostic = 0, derived = 1 };

  /// Widest phase the engine must carry (the derived fields).
  static constexpr std::size_t max_fields = 4;

  halo_exchanger() = default;
  halo_exchanger(mpisim::communicator& comm, int nx)
      : comm_(&comm), nx_(nx) {
    TFX_EXPECTS(nx > 0);
    const std::size_t cap = static_cast<std::size_t>(nx) * max_fields;
    send_up_.resize(cap);
    send_down_.resize(cap);
    recv_down_.resize(cap);
    recv_up_.resize(cap);
    fields_.reserve(max_fields);
  }

  /// Pack the top/bottom rows of `fields`, post both receives, then
  /// both sends (eager: never blocks). On a single rank this is a
  /// deferred periodic wrap (applied at finish(), after the caller's
  /// interior pass). Re-arming over a phase abandoned by a comm_error
  /// is safe: pending requests hold no mailbox state.
  void start(phase ph, std::initializer_list<slab<T>*> fields) {
    TFX_EXPECTS(fields.size() >= 1 && fields.size() <= max_fields);
    fields_.assign(fields.begin(), fields.end());
    phase_ = ph;
    in_flight_ = true;
    const int p = comm_->size();
    if (p == 1) return;
    const int r = comm_->rank();
    const int up = (r + 1) % p;
    const int down = (r - 1 + p) % p;
    const int tag = tag_of(ph);
    const std::size_t n =
        fields_.size() * static_cast<std::size_t>(nx_);
    const obs::scoped_vspan pack_span(
        obs::domain::swm, static_cast<std::uint16_t>(r), "halo.pack",
        [this] { return comm_->now(); },
        static_cast<std::uint64_t>(phase_), n * sizeof(T));
    // Receives first: from this instant the in-flight payloads can
    // land while the caller computes interior rows.
    rx_[0] = comm_->irecv(std::span<T>(recv_down_.data(), n), down, tag);
    rx_[1] = comm_->irecv(std::span<T>(recv_up_.data(), n), up, tag + 1);
    std::size_t at = 0;
    for (slab<T>* f : fields_) {
      const auto top = f->row(f->ny() - 1);
      const auto bottom = f->row(0);
      std::copy(top.begin(), top.end(), send_up_.begin() + at);
      std::copy(bottom.begin(), bottom.end(), send_down_.begin() + at);
      at += static_cast<std::size_t>(nx_);
    }
    try {
      comm_->send(std::span<const T>(send_up_.data(), n), up, tag);
      comm_->send(std::span<const T>(send_down_.data(), n), down, tag + 1);
    } catch (const mpisim::comm_error& e) {
      in_flight_ = false;
      throw annotated(e);
    }
    messages_ += 2;
    bytes_ += 2 * n * sizeof(T);
  }

  /// Complete the phase: wait for both packed payloads (down first,
  /// then up - the DES twin in make_halo_program mirrors this order)
  /// and scatter them into the halo rows of every field.
  void finish() {
    TFX_EXPECTS(in_flight_);
    const int p = comm_->size();
    if (p == 1) {  // periodic in y on one rank: the halos wrap locally
      for (slab<T>* f : fields_) {
        for (int i = 0; i < nx_; ++i) {
          (*f)(i, -1) = (*f)(i, f->ny() - 1);
          (*f)(i, f->ny()) = (*f)(i, 0);
        }
      }
      in_flight_ = false;
      return;
    }
    {
      const obs::scoped_vspan wait_span(
          obs::domain::swm, static_cast<std::uint16_t>(comm_->rank()),
          "halo.wait", [this] { return comm_->now(); },
          static_cast<std::uint64_t>(phase_));
      try {
        comm_->wait_all(std::span<mpisim::request>(rx_));
      } catch (const mpisim::comm_error& e) {
        in_flight_ = false;
        throw annotated(e);
      }
    }
    std::size_t at = 0;
    for (slab<T>* f : fields_) {
      for (int i = 0; i < nx_; ++i) {
        (*f)(i, -1) = recv_down_[at + static_cast<std::size_t>(i)];
        (*f)(i, f->ny()) = recv_up_[at + static_cast<std::size_t>(i)];
      }
      at += static_cast<std::size_t>(nx_);
    }
    in_flight_ = false;
  }

  [[nodiscard]] bool in_flight() const { return in_flight_; }

  /// Cumulative sends posted / payload bytes shipped by this engine.
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }

  [[nodiscard]] static int tag_of(phase ph) {
    return ph == phase::prognostic ? tags::halo_packed_prognostic
                                   : tags::halo_packed_derived;
  }
  [[nodiscard]] static const char* name_of(phase ph) {
    return ph == phase::prognostic ? "prognostic" : "derived";
  }

 private:
  [[nodiscard]] mpisim::comm_error annotated(
      const mpisim::comm_error& e) const {
    return mpisim::comm_error(
        e.why(), e.peer(),
        "halo exchange (rank " + std::to_string(comm_->rank()) +
            ", packed " + name_of(phase_) + " phase): " + e.what());
  }

  mpisim::communicator* comm_ = nullptr;
  int nx_ = 0;
  phase phase_ = phase::prognostic;
  bool in_flight_ = false;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<slab<T>*> fields_;
  std::vector<T> send_up_, send_down_, recv_down_, recv_up_;
  std::array<mpisim::request, 2> rx_;
};

/// Deterministic split of one RHS evaluation's modeled compute across
/// the two overlap windows: 2 of the 5 stencil passes (vorticity/KE
/// and the Laplacians) run inside the prognostic window, 3 (the
/// tendencies) inside the derived one, and each window's charge splits
/// into an interior part (rows 1..local_ny-2, charged while messages
/// fly) and a boundary part (rows 0 and local_ny-1, charged after
/// finish()). Shared by distributed_model and make_halo_program so the
/// DES cross-pin compares bit-identical doubles.
struct rhs_compute_split {
  double interior_prognostic = 0;
  double boundary_prognostic = 0;
  double interior_derived = 0;
  double boundary_derived = 0;
};
rhs_compute_split split_rhs_compute(double seconds_per_eval, int local_ny);

/// The distributed model's halo traffic restated by hand as a DES
/// event program, operation for operation. Unlike the collectives
/// (mpisim/patterns.hpp), the engine cannot be captured: it posts
/// requests on the concrete communicator and charges compute from
/// model state. Per RK4 stage, a 3-field prognostic phase then a
/// 4-field derived phase, with the modeled compute charges placed
/// exactly where distributed_model places its advance() calls. tests/swm_halo_test
/// pins the threaded model's virtual clocks against simulate() of this
/// program. Requires a uniform decomposition (every rank `local_ny`
/// rows).
mpisim::sim_program make_halo_program(int p, int nx, std::size_t elem_bytes,
                                      int steps, double rhs_seconds_per_eval,
                                      int local_ny);

}  // namespace tfx::swm
