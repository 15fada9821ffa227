#pragma once

/// \file patterns.hpp
/// Collectives captured as per-rank event programs.
///
/// Running 1536 real threads (the paper's Fig. 3 configuration) is not
/// feasible, so the large-scale benchmarks time the collectives with a
/// discrete-event walk (des.hpp) over these programs. Each builder runs
/// the collective's own template from collectives.hpp or
/// hierarchical.hpp once per rank, against a recording communicator
/// that appends a send, receive or compute op where the runtime would
/// move a message or charge a combine, and never blocks. So a program
/// is, by construction, the schedule the threaded runtime executes;
/// tests/mpisim_des_test checks the two engines' virtual clocks agree
/// and pins every builder's op lists with golden hashes.
///
/// Capture moves no payload: elements are `elem_bytes`-sized blanks
/// whose copies and combines compile to nothing, and buffers are
/// allocated but never touched. `elem_bytes` must be 1, 2, 4 or 8.

#include <cstddef>
#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/network.hpp"

namespace tfx::mpisim {

/// One step of a rank's program.
struct sim_op {
  enum class kind { send, recv, compute };
  kind what = kind::compute;
  int peer = 0;           ///< destination (send) or source (recv)
  std::size_t bytes = 0;  ///< payload size
  double seconds = 0;     ///< compute duration (kind::compute only)

  static sim_op send_to(int dst, std::size_t bytes) {
    return {kind::send, dst, bytes, 0.0};
  }
  static sim_op recv_from(int src, std::size_t bytes) {
    return {kind::recv, src, bytes, 0.0};
  }
  static sim_op compute_for(double seconds) {
    return {kind::compute, 0, 0, seconds};
  }
};

/// A complete collective: one ordered op list per rank.
struct sim_program {
  std::vector<std::vector<sim_op>> ranks;

  explicit sim_program(int p) : ranks(static_cast<std::size_t>(p)) {}
  [[nodiscard]] int size() const { return static_cast<int>(ranks.size()); }
  std::vector<sim_op>& rank(int r) {
    return ranks[static_cast<std::size_t>(r)];
  }
};

/// Dissemination barrier (mpisim::barrier; 1-byte tokens).
sim_program make_barrier_program(int p);

/// Binomial bcast of count*elem_bytes from root (mpisim::bcast).
sim_program make_bcast_program(int p, std::size_t count,
                               std::size_t elem_bytes, int root);

/// Binomial reduce to root (detail::reduce_inplace, the core of
/// mpisim::reduce).
sim_program make_reduce_program(const tofud_params& net, int p,
                                std::size_t count, std::size_t elem_bytes,
                                int root);

/// Allreduce with `algo` (detail::allreduce_inplace, the dispatch
/// behind mpisim::allreduce; automatic picks by message size).
sim_program make_allreduce_program(const tofud_params& net, int p,
                                   std::size_t count, std::size_t elem_bytes,
                                   coll_algorithm algo);

/// Hierarchical (node-leader) allreduce under the block rank placement
/// (detail::hierarchical_allreduce_inplace, the body of
/// hierarchy::allreduce): binomial reduce to each node's local rank 0,
/// flat allreduce with `algo` among the leaders, binomial bcast back.
sim_program make_hierarchical_allreduce_program(
    const tofud_params& net, const torus_placement& place,
    std::size_t count, std::size_t elem_bytes,
    coll_algorithm algo = coll_algorithm::automatic);

/// Linear gatherv with uniform counts (mpisim::gatherv).
sim_program make_gatherv_program(int p, std::size_t count,
                                 std::size_t elem_bytes, int root);

/// Ring allgather of count*elem_bytes per rank (mpisim::allgather).
sim_program make_allgather_program(int p, std::size_t count,
                                   std::size_t elem_bytes);

}  // namespace tfx::mpisim
