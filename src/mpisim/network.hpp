#pragma once

/// \file network.hpp
/// Network performance model: Tofu Interconnect D as seen by MPI.
///
/// Fugaku's nodes are connected by TofuD, a 6-D torus [paper ref 4];
/// job allocations are requested as 3-D torus shapes (the paper's
/// Fig. 3 runs used `node=4x6x16:torus`). We model the allocation as a
/// 3-D torus of nodes with a Hockney (alpha-beta) cost per message plus
/// a per-hop term, with distinct intra-node parameters and a
/// rendezvous-handshake surcharge for large messages. The constants are
/// calibrated so a 2-node ping-pong lands on the R-CCS numbers quoted
/// in the paper (sub-microsecond small-message latency, ~6.8 GB/s peak
/// throughput; Fig. 2).

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/contracts.hpp"

namespace tfx::mpisim {

/// Calibration constants of the modeled interconnect.
struct tofud_params {
  // -- inter-node (TofuD link) --
  double alpha_s = 0.70e-6;        ///< base one-way latency, seconds
  double per_hop_s = 0.04e-6;      ///< added latency per torus hop
  double link_bandwidth_Bps = 6.8e9;  ///< sustained injection bandwidth

  // -- intra-node (shared memory) --
  double intra_alpha_s = 0.25e-6;
  double intra_bandwidth_Bps = 18.0e9;

  // -- protocol --
  /// Eager/rendezvous switchover. 64 KiB, matching the A64FX L1 size
  /// the paper identifies as the end of the harness-dependent regime.
  std::size_t eager_threshold = 64 * 1024;
  double rendezvous_extra_s = 1.0e-6;       ///< RTS/CTS handshake cost

  // -- software (MPI library) per-call costs, charged by the runtime --
  double send_overhead_s = 0.10e-6;  ///< o_send in LogP terms
  double recv_overhead_s = 0.10e-6;  ///< o_recv

  // -- reduction compute cost (per byte combined at a rank) --
  double reduce_compute_s_per_byte = 0.012e-9;  ///< ~80 GB/s combine rate
};

/// One directed torus link: the exit of `node` along dimension `dim`
/// in direction `dir` (+1 or -1). Every node owns 6 directed links
/// (degenerate 1-wide dimensions included, for a dense id space); the
/// contention-aware DES tracks occupancy per link id.
struct torus_link {
  int node = 0;  ///< source node of the directed link
  int dim = 0;   ///< 0, 1 or 2
  int dir = 0;   ///< +1 or -1

  bool operator==(const torus_link&) const = default;
};

/// A 3-D torus allocation of nodes, with ranks block-assigned to nodes.
class torus_placement {
 public:
  /// `shape` = nodes per dimension (e.g. {4, 6, 16} for Fig. 3);
  /// `ranks_per_node` = MPI processes per node (paper: 4).
  torus_placement(std::array<int, 3> shape, int ranks_per_node);

  /// Convenience: a linear chain of `nodes` nodes, 1 rank each
  /// (Fig. 2's 2-node ping-pong uses {2, 1, 1} x 1).
  static torus_placement line(int nodes, int ranks_per_node = 1);

  [[nodiscard]] int node_count() const { return shape_[0] * shape_[1] * shape_[2]; }
  [[nodiscard]] int rank_count() const { return node_count() * ranks_per_node_; }
  [[nodiscard]] int ranks_per_node() const { return ranks_per_node_; }
  [[nodiscard]] const std::array<int, 3>& shape() const { return shape_; }

  /// Node index hosting a rank (block distribution).
  [[nodiscard]] int node_of(int rank) const { return rank / ranks_per_node_; }

  /// Torus coordinates of a node.
  [[nodiscard]] std::array<int, 3> coords_of(int node) const;

  /// Inverse of coords_of: the node at the given torus coordinates.
  [[nodiscard]] int node_at(const std::array<int, 3>& coords) const {
    for (int d = 0; d < 3; ++d) {
      TFX_EXPECTS(coords[static_cast<std::size_t>(d)] >= 0 &&
                  coords[static_cast<std::size_t>(d)] < shape_[static_cast<std::size_t>(d)]);
    }
    return node_index(coords);
  }

  /// Minimal hop count between two nodes (per-dimension wraparound
  /// Manhattan distance).
  [[nodiscard]] int hops(int node_a, int node_b) const;

  // -- dimension-ordered routing (docs/TOPOLOGY.md) -------------------

  /// Number of directed links in the torus (6 per node).
  [[nodiscard]] int link_count() const { return node_count() * 6; }

  /// Dense id in [0, link_count()) of the directed link leaving `node`
  /// along `dim` towards `dir`.
  [[nodiscard]] int link_id(int node, int dim, int dir) const {
    return node * 6 + dim * 2 + (dir > 0 ? 0 : 1);
  }

  /// Inverse of link_id.
  [[nodiscard]] torus_link link_at(int id) const {
    TFX_EXPECTS(id >= 0 && id < link_count());
    return {id / 6, (id % 6) / 2, (id % 6) % 2 == 0 ? +1 : -1};
  }

  /// Neighbour of `node` one hop along `dim`,`dir` (with wraparound).
  [[nodiscard]] int neighbor_of(int node, int dim, int dir) const;

  /// Dimension-ordered minimal route between two nodes as the ordered
  /// sequence of directed link ids: all x hops first, then y, then z.
  /// Each dimension travels the shorter way around; on a tie (distance
  /// exactly half an even-sized dimension) the POSITIVE direction wins,
  /// so the route - and therefore the contention charge - is
  /// deterministic. route_of(a, b).size() == hops(a, b) always, and
  /// route_of(b, a) is NOT generally the reverse (tie-broken hops use
  /// +1 both ways).
  [[nodiscard]] std::vector<int> route_of(int node_a, int node_b) const;

  /// Allocation-free route walk for the DES hot path: calls
  /// `fn(link_id)` for every directed link of route_of(a, b) in order.
  /// The endpoints' coordinates are computed once; each hop wraps with
  /// a compare, so the walk does no division.
  template <typename Fn>
  void for_each_route_link(int node_a, int node_b, Fn&& fn) const {
    const auto a = coords_of(node_a);
    const auto b = coords_of(node_b);
    std::array<int, 3> cur = a;
    for (int d = 0; d < 3; ++d) {
      const int n = shape_[d];
      int fwd = b[d] - a[d];                  // steps going +1
      if (fwd < 0) fwd += n;
      const int back = n - fwd;               // steps going -1
      const int dir = fwd <= back ? +1 : -1;  // tie -> positive
      const int steps = fwd <= back ? fwd : back;
      for (int s = 0; s < steps; ++s) {
        fn(link_id(node_index(cur), d, dir));
        cur[d] += dir;
        if (cur[d] == n) cur[d] = 0;
        if (cur[d] < 0) cur[d] = n - 1;
      }
    }
  }

 private:
  [[nodiscard]] int node_index(const std::array<int, 3>& c) const {
    return c[0] + shape_[0] * (c[1] + shape_[1] * c[2]);
  }

  std::array<int, 3> shape_;
  int ranks_per_node_;
};

/// Transit time of one message from rank `src` to rank `dst` (not
/// including sender/receiver software overheads, which the runtime
/// charges to the per-rank clocks). Equal to
/// transfer_latency_seconds + serialization_seconds: the uncontended
/// end-to-end time.
double transfer_seconds(const tofud_params& net, const torus_placement& place,
                        int src, int dst, std::size_t bytes);

/// The latency part only: time until the first byte reaches the
/// destination (alpha + hop terms + rendezvous handshake).
double transfer_latency_seconds(const tofud_params& net,
                                const torus_placement& place, int src,
                                int dst, std::size_t bytes);

/// The bandwidth part only: time one endpoint's port is occupied
/// streaming the payload (bytes / link or intra-node bandwidth). The
/// runtime serializes concurrent messages through each rank's port
/// with this figure (LogGP's G*k term) - that is what makes a
/// 1536-rank Gatherv root take ~1535 serialization times, not one.
double serialization_seconds(const tofud_params& net,
                             const torus_placement& place, int src, int dst,
                             std::size_t bytes);

/// Time to combine `bytes` of reduction input at one rank.
double reduce_compute_seconds(const tofud_params& net, std::size_t bytes);

/// Retransmission timeout after `attempt` prior failures of the same
/// message: timeout_s * factor^attempt (exponential backoff). Part of
/// the network-timing layer so the threaded runtime and the
/// discrete-event engine charge bit-identical retry delays
/// (faultplane.hpp drives both).
double backoff_delay_seconds(double timeout_s, double factor, int attempt);

}  // namespace tfx::mpisim
