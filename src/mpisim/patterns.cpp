#include "mpisim/patterns.hpp"

#include <memory>
#include <span>
#include <type_traits>

#include "core/contracts.hpp"
#include "mpisim/hierarchical.hpp"

namespace tfx::mpisim {

namespace {

/// The communicator a capture runs a collective against. It offers the
/// surface the templates in collectives.hpp use, but moves no data:
/// each send or receive appends an op of the message's size, each
/// advance() a compute op, and nothing blocks, so the ranks of a
/// program are captured one after another. Peers are checked as
/// communicator::send_bytes/recv_bytes check them (a receive must also
/// name its source: a program has no wildcard) and recorded as the
/// global rank `base + stride * peer`, so a rank's node and leader
/// views (hierarchical.hpp) append to one op list. It has no clock, so
/// the collectives open no trace span for it.
class recorder {
 public:
  recorder(std::vector<sim_op>& ops, const tofud_params& net, int rank,
           int size, int base = 0, int stride = 1)
      : ops_(&ops), net_(&net), rank_(rank), size_(size), base_(base),
        stride_(stride) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] const tofud_params& net() const { return *net_; }
  void advance(double seconds) {
    ops_->push_back(sim_op::compute_for(seconds));
  }

  void send_bytes(std::span<const std::byte> data, int dst, int tag) {
    TFX_EXPECTS(dst >= 0 && dst < size_);
    TFX_EXPECTS(tag >= 0);
    ops_->push_back(sim_op::send_to(base_ + stride_ * dst, data.size()));
  }
  recv_status recv_bytes(std::span<std::byte> out, int src, int tag) {
    TFX_EXPECTS(src >= 0 && src < size_);
    ops_->push_back(sim_op::recv_from(base_ + stride_ * src, out.size()));
    return recv_status{src, tag, out.size(), 0.0};
  }
  template <typename T>
  void send(std::span<const T> data, int dst, int tag = 0) {
    send_bytes(std::as_bytes(data), dst, tag);
  }
  template <typename T>
  recv_status recv(std::span<T> out, int src, int tag = 0) {
    return recv_bytes(std::as_writable_bytes(out), src, tag);
  }

 private:
  std::vector<sim_op>* ops_;
  const tofud_params* net_;
  int rank_, size_, base_, stride_;
};

/// An element of N bytes that carries no value: assigning one does
/// nothing, so the collectives' own copies compile away and a capture
/// never touches its buffers.
template <std::size_t N>
struct blank {
  std::byte bytes[N];
  blank& operator=(const blank&) { return *this; }
};

/// The capture's reduction: keeps the accumulator, so combine() is a
/// run of no-op self-assignments the compiler drops.
struct keep {
  template <typename T>
  const T& operator()(const T& acc, const T&) const {
    return acc;
  }
};

/// `n` elements of storage, allocated but never initialised or read.
template <typename T>
struct buffer {
  explicit buffer(std::size_t n)
      : data(std::make_unique_for_overwrite<T[]>(n)), size(n) {}
  [[nodiscard]] std::span<T> span() const { return {data.get(), size}; }
  std::unique_ptr<T[]> data;
  std::size_t size;
};

/// Runs `body(std::type_identity<T>{})` with T the blank element of
/// `elem_bytes` bytes, so every message size and combine charge a
/// collective computes from sizeof(T) is the program's own.
template <typename Body>
sim_program with_elem(std::size_t elem_bytes, Body&& body) {
  TFX_EXPECTS(elem_bytes == 1 || elem_bytes == 2 || elem_bytes == 4 ||
              elem_bytes == 8);
  switch (elem_bytes) {
    case 1: return body(std::type_identity<blank<1>>{});
    case 2: return body(std::type_identity<blank<2>>{});
    case 4: return body(std::type_identity<blank<4>>{});
    default: return body(std::type_identity<blank<8>>{});
  }
}

/// A p-rank program from `rank_body(ops, r)`, run for r = 0 ... p-1.
/// Each rank records into one reused list, which is then copied into
/// an exactly-sized op vector: one allocation per rank and no growth
/// copies, whatever the ranks' lengths.
template <typename RankBody>
sim_program capture(int p, RankBody&& rank_body) {
  sim_program prog(p);
  std::vector<sim_op> ops;
  for (int r = 0; r < p; ++r) {
    ops.clear();
    rank_body(ops, r);
    prog.rank(r).assign(ops.begin(), ops.end());
  }
  return prog;
}

/// For the collectives that charge no combine, which never read it.
const tofud_params no_combine{};

}  // namespace

sim_program make_barrier_program(int p) {
  return capture(p, [&](std::vector<sim_op>& ops, int r) {
    recorder comm(ops, no_combine, r, p);
    barrier(comm);
  });
}

sim_program make_bcast_program(int p, std::size_t count,
                               std::size_t elem_bytes, int root) {
  return with_elem(elem_bytes, [&]<typename T>(std::type_identity<T>) {
    const buffer<T> data(count);
    return capture(p, [&](std::vector<sim_op>& ops, int r) {
      recorder comm(ops, no_combine, r, p);
      bcast(comm, data.span(), root);
    });
  });
}

sim_program make_reduce_program(const tofud_params& net, int p,
                                std::size_t count, std::size_t elem_bytes,
                                int root) {
  return with_elem(elem_bytes, [&]<typename T>(std::type_identity<T>) {
    const buffer<T> acc(count), scratch(count);
    return capture(p, [&](std::vector<sim_op>& ops, int r) {
      recorder comm(ops, net, r, p);
      detail::reduce_inplace(comm, acc.span(), keep{}, root, scratch.span());
    });
  });
}

sim_program make_allreduce_program(const tofud_params& net, int p,
                                   std::size_t count, std::size_t elem_bytes,
                                   coll_algorithm algo) {
  return with_elem(elem_bytes, [&]<typename T>(std::type_identity<T>) {
    const buffer<T> acc(count), scratch(count);
    return capture(p, [&](std::vector<sim_op>& ops, int r) {
      recorder comm(ops, net, r, p);
      detail::allreduce_inplace(comm, acc.span(), keep{}, algo,
                                scratch.span());
    });
  });
}

sim_program make_hierarchical_allreduce_program(
    const tofud_params& net, const torus_placement& place,
    std::size_t count, std::size_t elem_bytes, coll_algorithm algo) {
  const int m = place.ranks_per_node();
  return with_elem(elem_bytes, [&]<typename T>(std::type_identity<T>) {
    const buffer<T> acc(count), scratch(count);
    return capture(place.rank_count(), [&](std::vector<sim_op>& ops, int r) {
      // The views hierarchy{} splits off under the block placement:
      // node k holds global ranks k*m ... k*m+m-1, and its leader k*m
      // is rank k among the leaders.
      const int node = place.node_of(r);
      recorder node_comm(ops, net, r - node * m, m, node * m);
      recorder leaders(ops, net, node, place.node_count(), 0, m);
      detail::hierarchical_allreduce_inplace(node_comm, leaders, acc.span(),
                                             keep{}, algo, scratch.span());
    });
  });
}

sim_program make_gatherv_program(int p, std::size_t count,
                                 std::size_t elem_bytes, int root) {
  return with_elem(elem_bytes, [&]<typename T>(std::type_identity<T>) {
    const std::vector<std::size_t> counts(static_cast<std::size_t>(p), count);
    const buffer<T> in(count), out(count * counts.size());
    return capture(p, [&](std::vector<sim_op>& ops, int r) {
      recorder comm(ops, no_combine, r, p);
      gatherv(comm, std::span<const T>(in.span()),
              std::span<const std::size_t>(counts), out.span(), root);
    });
  });
}

sim_program make_allgather_program(int p, std::size_t count,
                                   std::size_t elem_bytes) {
  return with_elem(elem_bytes, [&]<typename T>(std::type_identity<T>) {
    const buffer<T> in(count), out(count * static_cast<std::size_t>(p));
    return capture(p, [&](std::vector<sim_op>& ops, int r) {
      recorder comm(ops, no_combine, r, p);
      allgather(comm, std::span<const T>(in.span()), out.span());
    });
  });
}

}  // namespace tfx::mpisim
