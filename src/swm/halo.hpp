#pragma once

/// \file halo.hpp
/// The halo engine of the distributed shallow-water model: the packed,
/// overlappable halo_exchanger over slab_state<T> (swm/field.hpp).
///
/// The paper's § III-A (Figs. 2-3) shows per-message overhead only
/// vanishing once payloads reach the ≳1-2 KiB regime, and a halo row
/// is a small payload. The engine therefore ships everything one RHS
/// evaluation reads across a slab boundary as one packed message per
/// neighbour direction: two rows of u and v and one row of eta
/// (halo_layout). Each rank computes the vorticity, kinetic energy and
/// Laplacians of its own halo rows, so no derived field crosses the
/// wire - 8 sends per rank per RK4 step. start()/finish() let the
/// caller compute halo-independent interior rows while the messages
/// are in flight. docs/COMM.md describes the packing layout, the
/// overlap window, and the virtual-time accounting.
///
/// Fault-plane compatibility is inherited wholesale: packed channels
/// go through the same send_bytes/recv_bytes paths as any message, so
/// they carry sequence numbers and checksums, retry with backoff, and
/// surface crashes as comm_error - which the engine re-annotates with
/// its rank. Abandoning an exchange mid-flight (a comm_error during a
/// faulted run) leaves no runtime state behind, because pending
/// receive requests are lazy matchers; recovery replay simply re-arms
/// the engine on the next start().

#include <algorithm>
#include <array>
#include <cstdint>
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

/// Rows of u, v and eta one halo message carries per direction, in
/// packing order. The vorticity/KE and Laplacian passes run over rows
/// -1..n and read u and v at j ± 1, so u and v need two halo rows; the
/// tendency passes run over rows 0..n-1 and read eta at j ± 1, so eta
/// needs one.
inline constexpr std::array<int, 3> halo_layout = {2, 2, 1};

/// Rows per packed halo message: 2 + 2 + 1.
inline constexpr int halo_message_rows =
    halo_layout[0] + halo_layout[1] + halo_layout[2];

/// Persistent packed halo engine: one message per neighbour direction
/// per RHS evaluation, receives posted up front, completion split into
/// start()/finish() so interior computation can run while the payloads
/// are in flight.
///
/// Packing layout (field-major, halo_layout): the up-going buffer holds
/// [u rows n-2, n-1 | v rows n-2, n-1 | eta row n-1] and the down-going
/// buffer [u rows 0, 1 | v rows 0, 1 | eta row 0]. What arrives from
/// below fills rows -2, -1 (eta: -1), what arrives from above rows n,
/// n+1 (eta: n). The buffers are sized at construction -
/// start()/finish() never allocate.
template <typename T>
class halo_exchanger {
  static_assert(std::ranges::max(halo_layout) <= slab<T>::halo);

 public:
  halo_exchanger(mpisim::communicator& comm, int nx)
      : comm_(&comm), nx_(nx) {
    TFX_EXPECTS(nx > 0);
    const std::size_t n = static_cast<std::size_t>(nx) * halo_message_rows;
    send_up_.resize(n);
    send_down_.resize(n);
    recv_down_.resize(n);
    recv_up_.resize(n);
  }

  /// Post both receives, pack the boundary rows of `st`, then post
  /// both sends (eager: never blocks). On a single rank this is a
  /// deferred periodic wrap (applied at finish(), after the caller's
  /// interior rows). Re-arming over an exchange abandoned by a
  /// comm_error is safe: pending requests hold no mailbox state.
  void start(slab_state<T>& st) {
    st_ = &st;
    in_flight_ = true;
    const int p = comm_->size();
    if (p == 1) return;
    const int r = comm_->rank();
    const int up = (r + 1) % p;
    const int down = (r - 1 + p) % p;
    const obs::scoped_vspan pack_span(
        obs::domain::swm, static_cast<std::uint16_t>(r), "halo.pack",
        [this] { return comm_->now(); }, halo_message_rows, message_bytes());
    // Receives first: from this instant the in-flight payloads can
    // land while the caller computes interior rows.
    rx_[0] = comm_->irecv(std::span<T>(recv_down_), down, tags::halo);
    rx_[1] = comm_->irecv(std::span<T>(recv_up_), up, tags::halo + 1);
    for_each_row([this](slab<T>& f, int lo, int hi, std::size_t at) {
      std::ranges::copy(f.row(hi), send_up_.begin() + at);
      std::ranges::copy(f.row(lo), send_down_.begin() + at);
    });
    try {
      comm_->send(std::span<const T>(send_up_), up, tags::halo);
      comm_->send(std::span<const T>(send_down_), down, tags::halo + 1);
    } catch (const mpisim::comm_error& e) {
      in_flight_ = false;
      throw annotated(e);
    }
    messages_ += 2;
    bytes_ += 2 * message_bytes();
  }

  /// Complete the exchange: wait for both packed payloads (down first,
  /// then up - the DES twin in make_halo_program mirrors this order)
  /// and scatter them into the halo rows.
  void finish() {
    TFX_EXPECTS(in_flight_);
    in_flight_ = false;
    if (comm_->size() == 1) {  // periodic in y on one rank: a local wrap
      for_each_row([](slab<T>& f, int lo, int hi, std::size_t) {
        std::ranges::copy(f.row(hi), f.row(hi - f.ny()).begin());
        std::ranges::copy(f.row(lo), f.row(lo + f.ny()).begin());
      });
      return;
    }
    {
      const obs::scoped_vspan wait_span(
          obs::domain::swm, static_cast<std::uint16_t>(comm_->rank()),
          "halo.wait", [this] { return comm_->now(); }, halo_message_rows,
          message_bytes());
      try {
        comm_->wait_all(std::span<mpisim::request>(rx_));
      } catch (const mpisim::comm_error& e) {
        throw annotated(e);
      }
    }
    for_each_row([this](slab<T>& f, int lo, int hi, std::size_t at) {
      std::copy_n(recv_down_.begin() + at, nx_, f.row(hi - f.ny()).begin());
      std::copy_n(recv_up_.begin() + at, nx_, f.row(lo + f.ny()).begin());
    });
  }

  [[nodiscard]] bool in_flight() const { return in_flight_; }

  /// Cumulative sends posted / payload bytes shipped by this engine.
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }

 private:
  [[nodiscard]] std::size_t message_bytes() const {
    return send_up_.size() * sizeof(T);
  }

  /// Visit every row a message carries, in packing order: the field,
  /// the row's index `lo` counted from the slab's bottom (0, 1, ...),
  /// the matching row `hi` counted from its top, and the row's offset
  /// in the packed buffers. Row `hi` of the rank below lands in halo
  /// row hi - ny; row `lo` of the rank above in halo row lo + ny.
  template <typename Fn>
  void for_each_row(const Fn& fn) {
    slab<T>* const fields[] = {&st_->u, &st_->v, &st_->eta};
    std::size_t at = 0;
    for (std::size_t f = 0; f < halo_layout.size(); ++f) {
      for (int lo = 0; lo < halo_layout[f]; ++lo) {
        fn(*fields[f], lo, fields[f]->ny() - halo_layout[f] + lo, at);
        at += static_cast<std::size_t>(nx_);
      }
    }
  }

  [[nodiscard]] mpisim::comm_error annotated(
      const mpisim::comm_error& e) const {
    return mpisim::comm_error(
        e.why(), e.peer(),
        "halo exchange (rank " + std::to_string(comm_->rank()) +
            ", packed u,v,eta rows): " + e.what());
  }

  mpisim::communicator* comm_ = nullptr;
  int nx_ = 0;
  bool in_flight_ = false;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  slab_state<T>* st_ = nullptr;
  std::vector<T> send_up_, send_down_, recv_down_, recv_up_;
  std::array<mpisim::request, 2> rx_;
};

/// Deterministic split of one RHS evaluation's modeled compute around
/// the exchange, by pass-rows. `seconds_per_eval` prices the serial
/// evaluation of the slab's own rows, 5 * local_ny pass-rows; every
/// pass-row costs the same. The vorticity/KE and Laplacian passes run
/// on local_ny + 2 rows, so an evaluation charges
/// seconds_per_eval * (5 * local_ny + 4) / (5 * local_ny): the
/// recomputed halo rows are paid for. The interior share is the
/// pass-rows that read no halo (passes 1-2 on rows 1..local_ny-2,
/// passes 3-5 on rows 2..local_ny-3), charged while the messages fly;
/// the boundary share is charged after finish(). A 2-row slab has no
/// interior share. Shared by distributed_model and make_halo_program
/// so the DES cross-pin compares bit-identical doubles.
struct rhs_compute_split {
  double interior = 0;
  double boundary = 0;
};
rhs_compute_split split_rhs_compute(double seconds_per_eval, int local_ny);

/// The distributed model's halo traffic restated by hand as a DES
/// event program, operation for operation. Unlike the collectives
/// (mpisim/patterns.hpp), the engine cannot be captured: it posts
/// requests on the concrete communicator and charges compute from
/// model state. Per RK4 stage, one packed exchange of
/// halo_message_rows rows each way, with the modeled compute charges
/// placed exactly where distributed_model places its advance() calls.
/// tests/swm_halo_test pins the threaded model's virtual clocks
/// against simulate() of this program. Requires a uniform
/// decomposition (every rank `local_ny` rows).
mpisim::sim_program make_halo_program(int p, int nx, std::size_t elem_bytes,
                                      int steps, double rhs_seconds_per_eval,
                                      int local_ny);

}  // namespace tfx::swm
