#pragma once

/// \file hierarchical.hpp
/// CMG/node-aware collectives: route intra-node first, cross the torus
/// only between node leaders.
///
/// The paper's Fig. 3 placement puts 4 ranks on every node; a
/// production MPI exploits that by keeping (P/4 - 1) of every
/// collective's traffic off the TofuD links. The `hierarchy` handle
/// caches the two sub-communicators this needs - the node communicator
/// (split_by_node) and the leader communicator (local rank 0 of every
/// node) - so the splits' allgather rounds are paid once at
/// construction, and every collective after that is allocation-free in
/// steady state (a shared scratch arena grows to the largest payload
/// seen, then stops; tests/mpisim_hierarchy_test counts operator new).
///
/// Results are bit-identical to the flat algorithms for the
/// order-insensitive ops (min/max) and for exactly-representable sums
/// (integers, integer-valued doubles); the conformance matrix pins
/// this across all three transports. bench/ablation_hierarchy
/// quantifies when the hierarchy beats the flat algorithms on the
/// modeled fabric - with the contention-aware DES (docs/TOPOLOGY.md)
/// the leader phase's link relief finally shows up in virtual time.
///
/// Tag plan: intra-node and leader phases reuse the collective tag
/// space through each sub-communicator's tag offset; the two
/// root-handoff messages and the barrier tokens use
/// collective_tag_base + 192..195, which no flat collective occupies.

#include <cstddef>
#include <vector>

#include "mpisim/collectives.hpp"
#include "mpisim/subcomm.hpp"

namespace tfx::mpisim {

namespace detail {

/// The hierarchical allreduce of `acc` in place: binomial reduce to the
/// node's local rank 0, the leaders' flat allreduce (`algo`), binomial
/// bcast back over the node. `leaders` is used on local rank 0 only.
/// hierarchy::allreduce runs this over its cached sub-communicators;
/// make_hierarchical_allreduce_program (patterns.hpp) captures the same
/// code rank by rank for the DES.
template <typename T, typename Op, typename NodeComm, typename LeaderComm>
void hierarchical_allreduce_inplace(NodeComm& node, LeaderComm& leaders,
                                    std::span<T> acc, Op op,
                                    coll_algorithm algo,
                                    std::span<T> scratch) {
  reduce_inplace(node, acc, op, 0, scratch);
  if (node.rank() == 0) allreduce_inplace(leaders, acc, op, algo, scratch);
  bcast(node, acc, 0);
}

}  // namespace detail

class hierarchy {
 public:
  /// Collective over `comm` (two split() allgathers). All ranks must
  /// construct the hierarchy together, like MPI_Comm_split.
  explicit hierarchy(communicator& comm)
      : comm_(&comm), node_(split_by_node(comm)),
        leaders_(split(comm, node_.rank() == 0 ? 0 : undefined_color,
                       comm.rank())) {}

  /// True on the rank that represents its node on the torus (the
  /// node's lowest global rank).
  [[nodiscard]] bool leader() const { return node_.rank() == 0; }

  [[nodiscard]] const sub_communicator& node() const { return node_; }
  [[nodiscard]] const sub_communicator& leaders() const { return leaders_; }

  /// Node reduce -> leader allreduce -> node bcast
  /// (detail::hierarchical_allreduce_inplace). `algo` selects the
  /// leader-phase algorithm (automatic = same size threshold as the
  /// flat allreduce).
  template <typename T, typename Op>
  void allreduce(std::span<const T> in, std::span<T> out, Op op,
                 coll_algorithm algo = coll_algorithm::automatic) {
    TFX_EXPECTS(in.size() == out.size());
    const std::span<T> incoming = scratch<T>(in.size());
    detail::with_comm_context("hierarchical_allreduce", [&] {
      std::copy(in.begin(), in.end(), out.begin());
      detail::hierarchical_allreduce_inplace(node_, leaders_, out, op, algo,
                                             incoming);
    });
  }

  /// Node reduce -> leader reduce to the root's node -> handoff to the
  /// root if it is not its node's leader.
  template <typename T, typename Op>
  void reduce(std::span<const T> in, std::span<T> out, Op op, int root) {
    TFX_EXPECTS(in.size() == out.size());
    TFX_EXPECTS(root >= 0 && root < comm_->size());
    const std::span<T> incoming = scratch<T>(in.size());
    const int root_node = comm_->placement().node_of(root);
    const int root_leader =
        root_node * comm_->placement().ranks_per_node();
    detail::with_comm_context("hierarchical_reduce", [&] {
      std::copy(in.begin(), in.end(), out.begin());
      detail::reduce_inplace(node_, out, op, 0, incoming);
      if (leader()) {
        detail::reduce_inplace(leaders_, out, op, root_node, incoming);
      }
      if (root_leader != root) {
        const int tag = collective_tag_base + 194;
        if (comm_->rank() == root_leader) {
          comm_->send(std::span<const T>(out.data(), out.size()), root, tag);
        } else if (comm_->rank() == root) {
          comm_->recv(out, root_leader, tag);
        }
      }
    });
  }

  /// Handoff to the root's node leader -> leader bcast -> node bcast.
  template <typename T>
  void bcast(std::span<T> data, int root) {
    TFX_EXPECTS(root >= 0 && root < comm_->size());
    const int root_node = comm_->placement().node_of(root);
    const int root_leader =
        root_node * comm_->placement().ranks_per_node();
    detail::with_comm_context("hierarchical_bcast", [&] {
      if (root_leader != root) {
        const int tag = collective_tag_base + 195;
        if (comm_->rank() == root) {
          comm_->send(std::span<const T>(data.data(), data.size()),
                      root_leader, tag);
        } else if (comm_->rank() == root_leader) {
          comm_->recv(data, root, tag);
        }
      }
      if (leader()) tfx::mpisim::bcast(leaders_, data, root_node);
      tfx::mpisim::bcast(node_, data, 0);
    });
  }

  /// Gather tokens at each node leader, dissemination barrier among
  /// the leaders, release tokens back - log2(nodes) + 2 latency terms
  /// on the torus instead of log2(P).
  void barrier() {
    const int up_tag = collective_tag_base + 192;
    const int down_tag = collective_tag_base + 193;
    detail::with_comm_context("hierarchical_barrier", [&] {
      std::byte token{};
      if (leader()) {
        for (int j = 1; j < node_.size(); ++j) {
          node_.recv_bytes(std::span<std::byte>(&token, 1), j, up_tag);
        }
        tfx::mpisim::barrier(leaders_);
        for (int j = 1; j < node_.size(); ++j) {
          node_.send_bytes(std::span<const std::byte>(&token, 1), j,
                           down_tag);
        }
      } else {
        node_.send_bytes(std::span<const std::byte>(&token, 1), 0, up_tag);
        node_.recv_bytes(std::span<std::byte>(&token, 1), 0, down_tag);
      }
    });
  }

 private:
  /// Scratch arena shared by all collectives: grows to the largest
  /// payload ever used, then every later call is allocation-free.
  template <typename T>
  std::span<T> scratch(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    const std::size_t bytes = n * sizeof(T);
    if (scratch_.size() < bytes) scratch_.resize(bytes);
    return {reinterpret_cast<T*>(scratch_.data()), n};
  }

  communicator* comm_;
  sub_communicator node_;
  sub_communicator leaders_;
  std::vector<std::byte> scratch_;
};

/// One-shot composed form (constructs the hierarchy, two splits, every
/// call). Kept for ad-hoc use; steady-state code should hold a
/// `hierarchy`.
template <typename T, typename Op>
void hierarchical_allreduce(communicator& comm, std::span<const T> in,
                            std::span<T> out, Op op) {
  hierarchy h(comm);
  h.allreduce(in, out, op);
}

}  // namespace tfx::mpisim
