#pragma once

/// \file collectives.hpp
/// Collective operations implemented over the p2p runtime, using the
/// classic algorithms of production MPI libraries (MPICH/Open MPI
/// lineage - Fujitsu MPI is an Open MPI derivative, paper § III-A.2):
///
///   * Barrier    - dissemination
///   * Bcast      - binomial tree
///   * Reduce     - binomial tree (commutative ops)
///   * Allreduce  - recursive doubling (up to 8 KiB), Rabenseifner
///                  reduce-scatter + allgather (larger); ring on request
///   * Gather(v)  - linear to root (what IMB's Gatherv measures)
///   * Scatter    - linear from root
///   * Allgather  - ring
///   * Alltoall   - rotation pairwise exchange
///
/// Every implementation is a template over the element type and
/// reduction functor, mirroring how MPI.jl exposes collectives over
/// Julia types. Virtual time accrues through the same p2p rules as any
/// user code, plus a modeled per-byte combine cost for reductions.
///
/// These templates are also the discrete-event engine's schedules:
/// patterns.hpp captures a DES program by running them, rank by rank,
/// against a recording communicator that appends a send, receive or
/// compute op where a real one would move data or advance the clock.
/// The capture is exact because a collective's control flow reads only
/// rank, size, counts and root, never payload. So a change here reaches
/// the 1536-rank DES runs with no second copy to edit, and any new
/// collective the capture runs must keep that property.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "mpisim/runtime.hpp"
#include "obs/trace.hpp"

namespace tfx::mpisim {

/// Tag space reserved for collective internals (user tags stay below).
inline constexpr int collective_tag_base = 1 << 20;

/// Algorithm selector; `automatic` picks what a production library
/// would (message-size based).
enum class coll_algorithm {
  automatic,
  recursive_doubling,
  ring,
  rabenseifner,  ///< reduce-scatter (recursive halving) + allgather
};

/// Message size (bytes) at which automatic Allreduce switches from
/// recursive doubling to Rabenseifner's bandwidth-optimal algorithm
/// (reduce-scatter + allgather in log2 P rounds each). The crossover
/// sits where the halved per-round payload beats the extra round
/// count - ~8 KiB on the modeled fabric at both 64 and 1536 ranks
/// (bench/ablation_collectives), close to MPICH's production setting.
/// The plain ring remains available explicitly, but its 2(P-1) latency
/// terms make it a poor choice at Fugaku-scale rank counts.
inline constexpr std::size_t allreduce_ring_threshold = 8 * 1024;

namespace ops {
struct sum {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};
struct prod {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a * b;
  }
};
struct min {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};
struct max {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a < b ? b : a;
  }
};
}  // namespace ops

namespace detail {

/// Run a collective body, annotating any comm_error (faultplane.hpp)
/// with the collective's name - chaos-run triage needs to know *which*
/// collective hit the dead peer, not just the p2p call.
template <typename F>
decltype(auto) with_comm_context(const char* coll, F&& body) {
  try {
    return std::forward<F>(body)();
  } catch (const comm_error& e) {
    throw comm_error(e.why(), e.peer(),
                     std::string(coll) + ": " + e.what());
  }
}

/// Comm-aware variant: additionally wraps the body in a virtual-clock
/// trace span on the rank's `net` track (closed during unwinding too,
/// so B/E pairs stay balanced when a collective dies of comm_error).
/// A communicator without a clock - the DES program capture's recorder
/// (patterns.cpp) - gets no span.
template <typename Comm, typename F>
decltype(auto) with_comm_context(const char* coll, Comm& comm, F&& body) {
  if constexpr (requires { comm.now(); }) {
    const tfx::obs::scoped_vspan span(
        tfx::obs::domain::net, static_cast<std::uint16_t>(comm.rank()), coll,
        [&comm] { return comm.now(); },
        static_cast<std::uint64_t>(comm.size()));
    return with_comm_context(coll, std::forward<F>(body));
  } else {
    return with_comm_context(coll, std::forward<F>(body));
  }
}

/// Charge the modeled cost of combining `n` elements at this rank.
template <typename T, typename Comm>
void charge_combine(Comm& comm, std::size_t n) {
  comm.advance(reduce_compute_seconds(comm.net(), n * sizeof(T)));
}

template <typename T, typename Op>
void combine(std::span<T> into, std::span<const T> from, Op op) {
  TFX_EXPECTS(into.size() == from.size());
  for (std::size_t i = 0; i < into.size(); ++i) {
    into[i] = op(into[i], from[i]);
  }
}

inline int largest_pow2_below(int p) {
  int v = 1;
  while (v * 2 <= p) v *= 2;
  return v;
}

/// Binomial-tree reduction with `acc` as both contribution and (at the
/// root) result, combining into caller-provided `incoming` scratch -
/// the allocation-free core that reduce() and hierarchy wrap.
template <typename T, typename Op, typename Comm>
void reduce_inplace(Comm& comm, std::span<T> acc, Op op, int root,
                    std::span<T> incoming) {
  const int p = comm.size();
  const int r = comm.rank();
  TFX_EXPECTS(root >= 0 && root < p);
  TFX_EXPECTS(incoming.size() >= acc.size());
  const int tag = collective_tag_base + 32;
  const int vrank = (r - root + p) % p;

  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int dst = ((vrank - mask) + root) % p;
      comm.send(std::span<const T>(acc.data(), acc.size()), dst, tag);
      break;
    }
    if (vrank + mask < p) {
      const int src = ((vrank + mask) + root) % p;
      comm.recv(std::span<T>(incoming.data(), acc.size()), src, tag);
      combine(acc, std::span<const T>(incoming.data(), acc.size()), op);
      charge_combine<T>(comm, acc.size());
    }
    mask <<= 1;
  }
}

}  // namespace detail

/// Dissemination barrier: ceil(log2 P) rounds of zero-payload tokens.
/// (Like every collective here, templated over the communicator type so
/// sub-communicators - subcomm.hpp - reuse the same implementations.)
template <typename Comm>
void barrier(Comm& comm) {
  detail::with_comm_context("barrier", comm, [&] {
    const int p = comm.size();
    const int r = comm.rank();
    if (p == 1) return;
    int round = 0;
    for (int k = 1; k < p; k <<= 1, ++round) {
      const int dst = (r + k) % p;
      const int src = (r - k % p + p) % p;
      const int tag = collective_tag_base + round;
      std::byte token{};
      comm.send_bytes(std::span<const std::byte>(&token, 1), dst, tag);
      comm.recv_bytes(std::span<std::byte>(&token, 1), src, tag);
    }
  });
}

/// Binomial-tree broadcast of `data` from `root`.
template <typename T, typename Comm>
void bcast(Comm& comm, std::span<T> data, int root) {
  detail::with_comm_context("bcast", comm, [&] {
    const int p = comm.size();
    const int r = comm.rank();
    TFX_EXPECTS(root >= 0 && root < p);
    if (p == 1) return;
    const int vrank = (r - root + p) % p;
    const int tag = collective_tag_base + 16;

    int mask = 1;
    while (mask < p) {
      if (vrank & mask) {
        const int src = ((vrank - mask) + root) % p;
        comm.recv(data, src, tag);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vrank + mask < p) {
        const int dst = ((vrank + mask) + root) % p;
        comm.send(std::span<const T>(data.data(), data.size()), dst, tag);
      }
      mask >>= 1;
    }
  });
}

/// Binomial-tree reduction to `root`. Requires a commutative op (all
/// the ops:: functors are).
template <typename T, typename Op, typename Comm>
void reduce(Comm& comm, std::span<const T> in, std::span<T> out,
            Op op, int root) {
  const int p = comm.size();
  const int r = comm.rank();
  TFX_EXPECTS(in.size() == out.size());
  TFX_EXPECTS(root >= 0 && root < p);
  std::vector<T> acc(in.begin(), in.end());
  std::vector<T> incoming(in.size());
  detail::reduce_inplace(comm, std::span<T>(acc), op, root,
                         std::span<T>(incoming));
  if (r == root) std::copy(acc.begin(), acc.end(), out.begin());
}

namespace detail {

/// Recursive-doubling allreduce with the MPICH non-power-of-two
/// fold-in/fold-out phases. `scratch` is caller-provided, at least
/// acc.size() elements.
template <typename T, typename Op, typename Comm>
void allreduce_rdoubling(Comm& comm, std::span<T> acc, Op op,
                         std::span<T> scratch) {
  const int p = comm.size();
  const int r = comm.rank();
  const int tag = collective_tag_base + 48;
  const int pof2 = largest_pow2_below(p);
  const int rem = p - pof2;

  TFX_EXPECTS(scratch.size() >= acc.size());
  const std::span<T> incoming(scratch.data(), acc.size());

  // Fold-in: the first 2*rem ranks pair up so pof2 ranks remain.
  int newrank;
  if (r < 2 * rem) {
    if (r % 2 != 0) {  // odd: hand data to the left neighbour, then wait
      comm.send(std::span<const T>(acc.data(), acc.size()), r - 1, tag);
      newrank = -1;
    } else {
      comm.recv(std::span<T>(incoming), r + 1, tag);
      combine(acc, std::span<const T>(incoming), op);
      charge_combine<T>(comm, acc.size());
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }

  if (newrank != -1) {
    auto real_rank = [rem](int nr) { return nr < rem ? nr * 2 : nr + rem; };
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner = real_rank(newrank ^ mask);
      comm.send(std::span<const T>(acc.data(), acc.size()), partner, tag);
      comm.recv(std::span<T>(incoming), partner, tag);
      combine(acc, std::span<const T>(incoming), op);
      charge_combine<T>(comm, acc.size());
    }
  }

  // Fold-out: even ranks push the finished result to their odd partner.
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      comm.send(std::span<const T>(acc.data(), acc.size()), r + 1, tag);
    } else {
      comm.recv(acc, r - 1, tag);
    }
  }
}

/// Ring allreduce: reduce-scatter then allgather, P-1 rounds each,
/// moving ~2*(P-1)/P of the buffer per rank - bandwidth optimal.
template <typename T, typename Op, typename Comm>
void allreduce_ring(Comm& comm, std::span<T> acc, Op op,
                    std::span<T> scratch) {
  const int p = comm.size();
  const int r = comm.rank();
  const int tag = collective_tag_base + 64;
  if (p == 1) return;

  const std::size_t n = acc.size();
  TFX_EXPECTS(scratch.size() >= n);
  auto seg_begin = [&](int s) {
    const int seg = ((s % p) + p) % p;
    return n * static_cast<std::size_t>(seg) / static_cast<std::size_t>(p);
  };
  auto segment = [&](int s) {
    const int seg = ((s % p) + p) % p;
    const std::size_t b = seg_begin(seg);
    const std::size_t e =
        n * (static_cast<std::size_t>(seg) + 1) / static_cast<std::size_t>(p);
    return std::span<T>(acc.data() + b, e - b);
  };

  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  const std::span<T> incoming(scratch.data(), n);  // fits any segment

  // Reduce-scatter: after step k, rank r holds the partial for segment
  // r+1 (mod p) reduced over k+1 contributions.
  for (int step = 0; step < p - 1; ++step) {
    auto out_seg = segment(r - step);
    auto in_seg = segment(r - step - 1);
    comm.send(std::span<const T>(out_seg.data(), out_seg.size()), right, tag);
    comm.recv(std::span<T>(incoming.data(), in_seg.size()), left, tag);
    combine(in_seg,
            std::span<const T>(incoming.data(), in_seg.size()), op);
    charge_combine<T>(comm, in_seg.size());
  }
  // Allgather: circulate the finished segments.
  for (int step = 0; step < p - 1; ++step) {
    auto out_seg = segment(r + 1 - step);
    auto in_seg = segment(r - step);
    comm.send(std::span<const T>(out_seg.data(), out_seg.size()), right,
              tag + 1);
    comm.recv(std::span<T>(incoming.data(), in_seg.size()), left, tag + 1);
    std::copy(incoming.begin(),
              incoming.begin() + static_cast<std::ptrdiff_t>(in_seg.size()),
              in_seg.begin());
  }
}

/// Rabenseifner's allreduce: recursive-halving reduce-scatter followed
/// by a recursive-doubling allgather; 2 log2(P) rounds moving ~2 bytes
/// per element per rank. MPICH/Open MPI's long-message algorithm;
/// commutative ops only. Non-power-of-two rank counts fold the first
/// 2*rem ranks in/out exactly as in allreduce_rdoubling.
template <typename T, typename Op, typename Comm>
void allreduce_rabenseifner(Comm& comm, std::span<T> acc, Op op,
                            std::span<T> scratch) {
  const int p = comm.size();
  const int r = comm.rank();
  const int tag = collective_tag_base + 72;
  const int pof2 = largest_pow2_below(p);
  const int rem = p - pof2;
  const std::size_t n = acc.size();

  TFX_EXPECTS(scratch.size() >= n);
  const std::span<T> incoming(scratch.data(), n);

  int newrank;
  if (r < 2 * rem) {
    if (r % 2 != 0) {
      comm.send(std::span<const T>(acc.data(), n), r - 1, tag);
      newrank = -1;
    } else {
      comm.recv(std::span<T>(incoming), r + 1, tag);
      combine(acc, std::span<const T>(incoming), op);
      charge_combine<T>(comm, n);
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }

  auto real_rank = [rem](int nr) { return nr < rem ? nr * 2 : nr + rem; };
  // Block boundary of block index b (in elements).
  auto bound = [n, pof2](int b) {
    return n * static_cast<std::size_t>(b) / static_cast<std::size_t>(pof2);
  };

  if (newrank != -1) {
    // Reduce-scatter by recursive halving: the active window [lo, hi)
    // (in blocks) halves each round; the lower-newrank partner keeps
    // the lower half. After log2(pof2) rounds, newrank owns block
    // [newrank, newrank+1) fully reduced.
    int lo = 0, hi = pof2;
    for (int mask = pof2 >> 1; mask > 0; mask >>= 1) {
      const int partner = real_rank(newrank ^ mask);
      const int mid = (lo + hi) / 2;
      const std::size_t lo_b = bound(lo), mid_b = bound(mid),
                        hi_b = bound(hi);
      if (newrank < (newrank ^ mask)) {
        comm.send(std::span<const T>(acc.data() + mid_b, hi_b - mid_b),
                  partner, tag);
        comm.recv(std::span<T>(incoming.data(), mid_b - lo_b), partner, tag);
        combine(std::span<T>(acc.data() + lo_b, mid_b - lo_b),
                std::span<const T>(incoming.data(), mid_b - lo_b), op);
        charge_combine<T>(comm, mid_b - lo_b);
        hi = mid;
      } else {
        comm.send(std::span<const T>(acc.data() + lo_b, mid_b - lo_b),
                  partner, tag);
        comm.recv(std::span<T>(incoming.data(), hi_b - mid_b), partner, tag);
        combine(std::span<T>(acc.data() + mid_b, hi_b - mid_b),
                std::span<const T>(incoming.data(), hi_b - mid_b), op);
        charge_combine<T>(comm, hi_b - mid_b);
        lo = mid;
      }
    }
    // Allgather by recursive doubling: windows merge with their
    // sibling (just above for the lower partner, just below for the
    // upper) until [0, pof2) is reassembled everywhere.
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner = real_rank(newrank ^ mask);
      const int span_blocks = hi - lo;
      const std::size_t lo_b = bound(lo), hi_b = bound(hi);
      comm.send(std::span<const T>(acc.data() + lo_b, hi_b - lo_b), partner,
                tag + 1);
      if (newrank < (newrank ^ mask)) {
        const std::size_t sib_b = bound(hi + span_blocks);
        comm.recv(std::span<T>(acc.data() + hi_b, sib_b - hi_b), partner,
                  tag + 1);
        hi += span_blocks;
      } else {
        const std::size_t sib_b = bound(lo - span_blocks);
        comm.recv(std::span<T>(acc.data() + sib_b, lo_b - sib_b), partner,
                  tag + 1);
        lo -= span_blocks;
      }
    }
  }

  if (r < 2 * rem) {
    if (r % 2 == 0) {
      comm.send(std::span<const T>(acc.data(), n), r + 1, tag + 2);
    } else {
      comm.recv(acc, r - 1, tag + 2);
    }
  }
}

/// In-place allreduce on `acc` with caller-provided scratch: the one
/// algorithm dispatch behind allreduce(), hierarchy::allreduce's leader
/// phase and make_allreduce_program. `automatic` picks recursive
/// doubling up to allreduce_ring_threshold bytes, Rabenseifner above.
template <typename T, typename Op, typename Comm>
void allreduce_inplace(Comm& comm, std::span<T> acc, Op op,
                       coll_algorithm algo, std::span<T> scratch) {
  if (comm.size() == 1) return;
  if (algo == coll_algorithm::automatic) {
    algo = acc.size() * sizeof(T) <= allreduce_ring_threshold
               ? coll_algorithm::recursive_doubling
               : coll_algorithm::rabenseifner;
  }
  with_comm_context("allreduce", comm, [&] {
    if (algo == coll_algorithm::recursive_doubling) {
      allreduce_rdoubling(comm, acc, op, scratch);
    } else if (algo == coll_algorithm::ring) {
      allreduce_ring(comm, acc, op, scratch);
    } else {
      allreduce_rabenseifner(comm, acc, op, scratch);
    }
  });
}

}  // namespace detail

/// Allreduce: every rank ends with op-combined data of all ranks.
template <typename T, typename Op, typename Comm>
void allreduce(Comm& comm, std::span<const T> in, std::span<T> out,
               Op op, coll_algorithm algo = coll_algorithm::automatic) {
  TFX_EXPECTS(in.size() == out.size());
  std::copy(in.begin(), in.end(), out.begin());
  if (comm.size() == 1) return;
  std::vector<T> scratch(in.size());
  detail::allreduce_inplace(comm, out, op, algo, std::span<T>(scratch));
}

/// Crash-tolerant agreement primitive of rollback recovery
/// (swm/resilience.hpp): every member ends with the maximum of the
/// contributed values. Runs as a recursive-doubling allreduce, usually
/// over a survivors_of() sub-communicator; "tolerating further deaths"
/// means a death mid-agreement surfaces as an annotated comm_error on
/// every member, which aborts the recovery round - the round then
/// restarts with the enlarged casualty set, so no rank ever acts on a
/// half-agreed value.
template <typename Comm>
[[nodiscard]] std::uint64_t agree_max(Comm& comm, std::uint64_t value) {
  std::uint64_t acc = value;
  if (comm.size() == 1) return acc;
  std::uint64_t incoming = 0;
  detail::with_comm_context("agree", comm, [&] {
    detail::allreduce_rdoubling(comm, std::span<std::uint64_t>(&acc, 1),
                                ops::max{},
                                std::span<std::uint64_t>(&incoming, 1));
  });
  return acc;
}

/// Gather with per-rank counts (MPI_Gatherv): linear to root, matching
/// what the IMB Gatherv benchmark measures.
template <typename T, typename Comm>
void gatherv(Comm& comm, std::span<const T> in,
             std::span<const std::size_t> counts, std::span<T> out,
             int root) {
  const int p = comm.size();
  const int r = comm.rank();
  TFX_EXPECTS(root >= 0 && root < p);
  TFX_EXPECTS(static_cast<int>(counts.size()) == p);
  TFX_EXPECTS(in.size() == counts[static_cast<std::size_t>(r)]);
  const int tag = collective_tag_base + 80;

  if (r != root) {
    comm.send(in, root, tag);
    return;
  }
  std::size_t offset = 0;
  for (int src = 0; src < p; ++src) {
    const std::size_t count = counts[static_cast<std::size_t>(src)];
    TFX_EXPECTS(offset + count <= out.size());
    auto slot = std::span<T>(out.data() + offset, count);
    if (src == r) {
      std::copy(in.begin(), in.end(), slot.begin());
    } else {
      comm.recv(slot, src, tag);
    }
    offset += count;
  }
}

/// Uniform-count gather (MPI_Gather) in terms of gatherv.
template <typename T, typename Comm>
void gather(Comm& comm, std::span<const T> in, std::span<T> out,
            int root) {
  std::vector<std::size_t> counts(static_cast<std::size_t>(comm.size()),
                                  in.size());
  gatherv(comm, in, std::span<const std::size_t>(counts), out, root);
}

/// Linear scatter from root: rank i receives out.size() elements from
/// in[i*out.size() ...] at the root.
template <typename T, typename Comm>
void scatter(Comm& comm, std::span<const T> in, std::span<T> out,
             int root) {
  const int p = comm.size();
  const int r = comm.rank();
  const int tag = collective_tag_base + 96;
  const std::size_t count = out.size();
  TFX_EXPECTS(root >= 0 && root < p);

  if (r == root) {
    TFX_EXPECTS(in.size() == count * static_cast<std::size_t>(p));
    for (int dst = 0; dst < p; ++dst) {
      auto block = std::span<const T>(
          in.data() + static_cast<std::size_t>(dst) * count, count);
      if (dst == r) {
        std::copy(block.begin(), block.end(), out.begin());
      } else {
        comm.send(block, dst, tag);
      }
    }
  } else {
    comm.recv(out, root, tag);
  }
}

/// Ring allgather: P-1 rounds, each rank forwarding the block it just
/// received.
template <typename T, typename Comm>
void allgather(Comm& comm, std::span<const T> in, std::span<T> out) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t count = in.size();
  TFX_EXPECTS(out.size() == count * static_cast<std::size_t>(p));
  const int tag = collective_tag_base + 112;

  auto block = [&](int owner) {
    const int o = ((owner % p) + p) % p;
    return std::span<T>(out.data() + static_cast<std::size_t>(o) * count,
                        count);
  };
  std::copy(in.begin(), in.end(), block(r).begin());
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  detail::with_comm_context("allgather", comm, [&] {
    for (int step = 0; step < p - 1; ++step) {
      auto outgoing = block(r - step);
      comm.send(std::span<const T>(outgoing.data(), outgoing.size()), right,
                tag);
      comm.recv(block(r - step - 1), left, tag);
    }
  });
}

/// Reduce-scatter with equal block counts (MPI_Reduce_scatter_block):
/// pairwise exchange, P-1 rounds, each rank ends with the op-combined
/// block it owns. Commutative ops only.
template <typename T, typename Op, typename Comm>
void reduce_scatter_block(Comm& comm, std::span<const T> in,
                          std::span<T> out, Op op) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t count = out.size();
  TFX_EXPECTS(in.size() == count * static_cast<std::size_t>(p));
  const int tag = collective_tag_base + 144;

  auto in_block = [&](int owner) {
    return std::span<const T>(
        in.data() + static_cast<std::size_t>(owner) * count, count);
  };
  std::copy(in_block(r).begin(), in_block(r).end(), out.begin());
  std::vector<T> incoming(count);
  for (int k = 1; k < p; ++k) {
    const int dst = (r + k) % p;   // send their block
    const int src = (r - k + p) % p;
    comm.send(in_block(dst), dst, tag + k);
    comm.recv(std::span<T>(incoming), src, tag + k);
    detail::combine(out, std::span<const T>(incoming), op);
    detail::charge_combine<T>(comm, count);
  }
}

/// Inclusive prefix reduction (MPI_Scan): rank r ends with
/// op(in_0, ..., in_r). Recursive doubling, log2(P) rounds.
template <typename T, typename Op, typename Comm>
void scan(Comm& comm, std::span<const T> in, std::span<T> out,
          Op op) {
  const int p = comm.size();
  const int r = comm.rank();
  TFX_EXPECTS(in.size() == out.size());
  const int tag = collective_tag_base + 160;

  std::copy(in.begin(), in.end(), out.begin());
  // `partial` carries op(in_{r-2^k+1}, ..., in_r); what we forward.
  std::vector<T> partial(in.begin(), in.end());
  std::vector<T> incoming(in.size());
  for (int mask = 1; mask < p; mask <<= 1) {
    if (r + mask < p) {
      comm.send(std::span<const T>(partial), r + mask, tag);
    }
    if (r - mask >= 0) {
      comm.recv(std::span<T>(incoming), r - mask, tag);
      detail::combine(std::span<T>(partial), std::span<const T>(incoming),
                      op);
      detail::combine(out, std::span<const T>(incoming), op);
      detail::charge_combine<T>(comm, 2 * in.size());
    }
  }
}

/// Exclusive prefix reduction (MPI_Exscan): rank r ends with
/// op(in_0, ..., in_{r-1}); rank 0's output is left untouched, as in
/// MPI.
template <typename T, typename Op, typename Comm>
void exscan(Comm& comm, std::span<const T> in, std::span<T> out,
            Op op) {
  const int p = comm.size();
  const int r = comm.rank();
  TFX_EXPECTS(in.size() == out.size());
  const int tag = collective_tag_base + 176;

  std::vector<T> partial(in.begin(), in.end());
  std::vector<T> incoming(in.size());
  bool have_result = false;
  for (int mask = 1; mask < p; mask <<= 1) {
    if (r + mask < p) {
      comm.send(std::span<const T>(partial), r + mask, tag);
    }
    if (r - mask >= 0) {
      comm.recv(std::span<T>(incoming), r - mask, tag);
      if (have_result) {
        detail::combine(out, std::span<const T>(incoming), op);
      } else {
        std::copy(incoming.begin(), incoming.end(), out.begin());
        have_result = true;
      }
      detail::combine(std::span<T>(partial), std::span<const T>(incoming),
                      op);
      detail::charge_combine<T>(comm, 2 * in.size());
    }
  }
}

/// Rotation-pairwise all-to-all: in round k each rank sends its block
/// for (r+k) and receives from (r-k); works for any P.
template <typename T, typename Comm>
void alltoall(Comm& comm, std::span<const T> in, std::span<T> out) {
  const int p = comm.size();
  const int r = comm.rank();
  TFX_EXPECTS(in.size() == out.size());
  TFX_EXPECTS(in.size() % static_cast<std::size_t>(p) == 0);
  const std::size_t count = in.size() / static_cast<std::size_t>(p);
  const int tag = collective_tag_base + 128;

  auto in_block = [&](int peer) {
    return std::span<const T>(
        in.data() + static_cast<std::size_t>(peer) * count, count);
  };
  auto out_block = [&](int peer) {
    return std::span<T>(out.data() + static_cast<std::size_t>(peer) * count,
                        count);
  };
  std::copy(in_block(r).begin(), in_block(r).end(), out_block(r).begin());
  for (int k = 1; k < p; ++k) {
    const int dst = (r + k) % p;
    const int src = (r - k + p) % p;
    comm.send(in_block(dst), dst, tag + k);
    comm.recv(out_block(src), src, tag + k);
  }
}

}  // namespace tfx::mpisim
