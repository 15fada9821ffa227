#include "mpisim/des.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "core/contracts.hpp"
#include "mpisim/obs_events.hpp"
#include "obs/metrics.hpp"

namespace tfx::mpisim {

double des_result::max_clock() const {
  TFX_EXPECTS(!clocks.empty());
  return *std::max_element(clocks.begin(), clocks.end());
}

double des_result::min_clock() const {
  TFX_EXPECTS(!clocks.empty());
  return *std::min_element(clocks.begin(), clocks.end());
}

double des_result::avg_clock() const {
  TFX_EXPECTS(!clocks.empty());
  double acc = 0;
  for (double c : clocks) acc += c;
  return acc / static_cast<double>(clocks.size());
}

namespace {

// In-flight messages live in one shared pool of singly-linked nodes.
// Each rank's outbox threads the messages it has sent that no one has
// received yet through the pool in send order, as (head, tail) indices,
// so a send appends with no lookup and a receive takes the oldest
// message its source addressed to it: every (src, dst) pair stays FIFO.
struct wire_node {
  double depart;
  std::uint64_t seq;
  std::int32_t next;
  std::int32_t dst;
  bool poison;  ///< the sender exhausted its retries
};

struct outbox {
  std::int32_t head = -1;
  std::int32_t tail = -1;
};

}  // namespace

des_result simulate(const sim_program& prog, const tofud_params& net,
                    const torus_placement& place,
                    std::vector<double> start_clocks,
                    const fault_plane* faults, des_options opts) {
  const int p = prog.size();
  TFX_EXPECTS(p == place.rank_count());
  const bool faulty = faults != nullptr && faults->active();
  const bool contended = opts.fabric == fabric_mode::contended;

  des_result result;
  if (start_clocks.empty()) {
    result.clocks.assign(static_cast<std::size_t>(p), 0.0);
  } else {
    TFX_EXPECTS(static_cast<int>(start_clocks.size()) == p);
    result.clocks = std::move(start_clocks);
  }
  if (faulty) result.deliveries.resize(static_cast<std::size_t>(p));

  // ---- pass sets ---------------------------------------------------
  // Ranks run in passes, in rank order; a visited rank runs until it
  // blocks on a receive, finishes or halts. A blocked rank records the
  // source it waits on, and the send that serves it wakes it: into the
  // current pass if its index is above the sender's, into the next one
  // otherwise. That is when a round-robin over every rank would find it
  // runnable, so links see the same send order, but no pass visits a
  // blocked rank.
  const std::size_t words = (static_cast<std::size_t>(p) + 63) / 64;
  std::vector<std::uint64_t> this_pass(words, 0);
  std::vector<std::uint64_t> next_pass(words, 0);
  std::vector<int> waiting_on(static_cast<std::size_t>(p), -1);
  const auto schedule = [](std::vector<std::uint64_t>& pass, int r) {
    const auto ur = static_cast<std::size_t>(r);
    pass[ur / 64] |= std::uint64_t{1} << (ur % 64);
  };

  std::vector<outbox> outboxes(static_cast<std::size_t>(p));
  std::vector<wire_node> pool;
  pool.reserve(static_cast<std::size_t>(p));
  std::int32_t free_head = -1;
  // Appends to src's outbox and wakes dst if it is blocked on src.
  const auto wire_push = [&](int src, int dst, double depart,
                             std::uint64_t seq, bool poison) {
    std::int32_t idx;
    if (free_head >= 0) {
      idx = free_head;
      free_head = pool[static_cast<std::size_t>(idx)].next;
    } else {
      idx = static_cast<std::int32_t>(pool.size());
      pool.push_back({});
    }
    pool[static_cast<std::size_t>(idx)] = {depart, seq, -1, dst, poison};
    outbox& o = outboxes[static_cast<std::size_t>(src)];
    if (o.tail < 0) {
      o.head = idx;
    } else {
      pool[static_cast<std::size_t>(o.tail)].next = idx;
    }
    o.tail = idx;
    if (waiting_on[static_cast<std::size_t>(dst)] == src) {
      waiting_on[static_cast<std::size_t>(dst)] = -1;
      schedule(dst > src ? this_pass : next_pass, dst);
    }
  };
  // Unlinks the oldest message `src` sent to `dst` from src's outbox and
  // returns it (valid until the next push), or null if there is none.
  const auto wire_take = [&](int src, int dst) -> const wire_node* {
    outbox& o = outboxes[static_cast<std::size_t>(src)];
    for (std::int32_t prev = -1, idx = o.head; idx >= 0;
         prev = idx, idx = pool[static_cast<std::size_t>(idx)].next) {
      wire_node& node = pool[static_cast<std::size_t>(idx)];
      if (node.dst != dst) continue;
      (prev < 0 ? o.head : pool[static_cast<std::size_t>(prev)].next) =
          node.next;
      if (o.tail == idx) o.tail = prev;
      node.next = free_head;
      free_head = idx;
      return &node;
    }
    return nullptr;
  };
  // The per-pair sequence numbers the fault plane keys its schedules
  // by; only faulty runs touch them.
  std::unordered_map<std::uint64_t, std::uint64_t> pair_seq;

  // ---- contended fabric state --------------------------------------
  // Per directed link: when it frees up, and its lifetime occupancy.
  std::vector<double> link_free;
  std::vector<double> link_busy;
  if (contended) {
    link_free.assign(static_cast<std::size_t>(place.link_count()), 0.0);
    link_busy.assign(static_cast<std::size_t>(place.link_count()), 0.0);
  }
  // Store-and-forward: the message re-serializes on every link of its
  // dimension-ordered route, waiting whenever the link is still busy
  // with earlier traffic. Returns the depart time off the last link.
  const auto route_depart = [&](int src_rank, int dst_rank,
                                std::size_t bytes, double inject_start) {
    const int node_src = place.node_of(src_rank);
    const int node_dst = place.node_of(dst_rank);
    if (node_src == node_dst) return inject_start;  // never touches links
    const double ser =
        static_cast<double>(bytes) / net.link_bandwidth_Bps;
    double t = inject_start;
    double waited = 0;
    ++result.links.routed_messages;
    place.for_each_route_link(node_src, node_dst, [&](int link) {
      const auto li = static_cast<std::size_t>(link);
      ++result.links.link_hops;
      if (link_free[li] > t) {
        waited += link_free[li] - t;
        t = link_free[li];
        ++result.links.contended_hops;
      }
      t += ser;
      link_free[li] = t;
      link_busy[li] += ser;
    });
    if (waited > 0) {
      result.links.wait_seconds += waited;
      obs_ev::emit_link_wait(src_rank, dst_rank, inject_start, waited);
    }
    return t;
  };

  std::vector<std::uint64_t> sends_total(static_cast<std::size_t>(p), 0);
  std::vector<std::uint8_t> crashed(static_cast<std::size_t>(p), 0);

  std::vector<std::size_t> pc(static_cast<std::size_t>(p), 0);
  std::vector<double> send_port_free(static_cast<std::size_t>(p), 0.0);
  std::vector<double> recv_port_free(static_cast<std::size_t>(p), 0.0);

  // Observability: all ranks are simulated on this one host thread,
  // but events carry track == rank and the *virtual* clock, so the DES
  // trace is bit-reproducible and comparable record-for-record with
  // the threaded runtime's (tests/obs_trace_test.cpp). The delivered
  // byte total, and on the contended fabric the link census, flush at
  // the end.
  const bool traced = tfx::obs::active();
  std::uint64_t tx_bytes = 0;
  std::size_t done = 0;
  for (int r = 0; r < p; ++r) {
    if (prog.ranks[static_cast<std::size_t>(r)].empty()) {
      ++done;
    } else {
      schedule(this_pass, r);
    }
  }
  auto halt = [&](int r) {
    // A crashed (or poisoned, or cascade-starved) rank stops executing
    // its remaining ops - the threaded analogue of comm_error.
    if (crashed[static_cast<std::size_t>(r)] == 0) {
      crashed[static_cast<std::size_t>(r)] = 1;
      ++done;
    }
  };

  while (done < static_cast<std::size_t>(p)) {
    bool progressed = false;
    for (std::size_t w = 0; w < words;) {
      if (this_pass[w] == 0) {
        ++w;
        continue;
      }
      const int r = static_cast<int>(w * 64) + std::countr_zero(this_pass[w]);
      this_pass[w] &= this_pass[w] - 1;
      const auto& ops = prog.ranks[static_cast<std::size_t>(r)];
      auto& i = pc[static_cast<std::size_t>(r)];
      double& clock = result.clocks[static_cast<std::size_t>(r)];
      while (i < ops.size()) {
        const sim_op& op = ops[i];
        if (op.what == sim_op::kind::compute) {
          clock += op.seconds;
        } else if (op.what == sim_op::kind::send) {
          TFX_EXPECTS(op.peer >= 0 && op.peer < p);
          double& port = send_port_free[static_cast<std::size_t>(r)];
          if (faulty) {
            const std::uint64_t sidx =
                sends_total[static_cast<std::size_t>(r)]++;
            const double stall = faults->stall_seconds(r, sidx);
            if (stall > 0) {
              clock += stall;
              ++result.stats.stalls;
              obs_ev::emit_stall(r, op.peer, clock, sidx);
            }
            if (faults->crashes_before(r, sidx)) {
              obs_ev::emit_casualty(r, r, clock);
              halt(r);
              progressed = true;
              break;
            }
            clock += net.send_overhead_s;
            const std::uint64_t seq =
                pair_seq[static_cast<std::uint64_t>(r) *
                             static_cast<std::uint64_t>(p) +
                         static_cast<std::uint64_t>(op.peer)]++;
            const transmit_plan tp =
                faults->plan(net, place, r, op.peer, op.bytes, seq, clock,
                             port, result.stats);
            port = tp.port_free;
            obs_ev::emit_transmit_plan(r, op.peer, seq, op.bytes, tp);
            if (tp.failed) {
              wire_push(r, op.peer, tp.attempts.back().depart, seq, true);
              obs_ev::emit_casualty(r, op.peer, clock);
              halt(r);
              progressed = true;
              break;
            }
            tx_bytes += op.bytes;
            // The delivered copy is the one that occupies the fabric;
            // lost attempts died at the injection port.
            const double depart =
                contended
                    ? route_depart(r, op.peer, op.bytes, tp.good_depart)
                    : tp.good_depart;
            wire_push(r, op.peer, depart, seq, false);
          } else {
            clock += net.send_overhead_s;
            const double inject_start = std::max(clock, port);
            port = inject_start +
                   serialization_seconds(net, place, r, op.peer, op.bytes);
            obs_ev::emit_vanilla_send(r, op.peer, inject_start, op.bytes);
            tx_bytes += op.bytes;
            const double depart =
                contended ? route_depart(r, op.peer, op.bytes, inject_start)
                          : inject_start;
            wire_push(r, op.peer, depart, 0, false);
          }
        } else {  // recv
          TFX_EXPECTS(op.peer >= 0 && op.peer < p);
          const wire_node* const entry = wire_take(op.peer, r);
          if (entry == nullptr) {
            waiting_on[static_cast<std::size_t>(r)] = op.peer;
            break;
          }
          if (entry->poison) {
            obs_ev::emit_casualty(r, op.peer, clock);
            halt(r);
            progressed = true;
            break;
          }
          const double ready =
              entry->depart +
              transfer_latency_seconds(net, place, op.peer, r, op.bytes);
          double& port = recv_port_free[static_cast<std::size_t>(r)];
          const double arrival =
              std::max(ready, port) +
              serialization_seconds(net, place, op.peer, r, op.bytes);
          port = arrival;
          clock = std::max(clock, arrival) + net.recv_overhead_s;
          obs_ev::emit_recv(r, op.peer, clock, op.bytes);
          if (faulty) {
            result.deliveries[static_cast<std::size_t>(r)].push_back(
                {op.peer, 0, entry->seq});
          }
        }
        ++i;
        progressed = true;
        if (i == ops.size()) ++done;
      }
    }
    if (!progressed && faulty) {
      // Cascade: a pass that sent nothing leaves every running rank
      // blocked on a receive with nothing to take. One whose sender
      // crashed will never be served - it fails too, exactly like the
      // threaded runtime's crash-notice path.
      for (int r = 0; r < p; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        const auto& ops = prog.ranks[ri];
        if (crashed[ri] != 0 || pc[ri] >= ops.size()) continue;
        const sim_op& op = ops[pc[ri]];
        if (crashed[static_cast<std::size_t>(op.peer)] != 0) {
          obs_ev::emit_casualty(r, op.peer,
                                result.clocks[static_cast<std::size_t>(r)]);
          halt(r);
          progressed = true;
        }
      }
    }
    TFX_ASSERT(progressed && "sim_program deadlocked");
    this_pass.swap(next_pass);
  }
  if (contended) {
    for (std::size_t li = 0; li < link_busy.size(); ++li) {
      if (link_busy[li] > result.links.max_link_busy_s) {
        result.links.max_link_busy_s = link_busy[li];
        result.links.max_link = static_cast<int>(li);
      }
    }
  }
  if (faulty) {
    for (int r = 0; r < p; ++r) {
      if (crashed[static_cast<std::size_t>(r)] != 0) {
        result.crashed.push_back(r);
      }
    }
  }
  if (traced) {
    // Same metric names as communicator::flush_obs, so a threaded run
    // and its DES twin produce comparable registry contents. Per-pair
    // bytes are in the net.send events (track src, a = dst, b = bytes).
    tfx::obs::metric_add("net.tx_bytes", tx_bytes);
    tfx::obs::metric_add("net.sends", result.stats.sends);
    tfx::obs::metric_add("net.attempts", result.stats.attempts);
    tfx::obs::metric_add("net.retries", result.stats.retries);
    tfx::obs::metric_add("net.drops", result.stats.drops);
    tfx::obs::metric_add("net.corruptions", result.stats.corruptions);
    tfx::obs::metric_add("net.duplicates", result.stats.duplicates);
    tfx::obs::metric_add("net.reorders", result.stats.reorders);
    tfx::obs::metric_add("net.delays", result.stats.delays);
    tfx::obs::metric_add("net.stalls", result.stats.stalls);
    tfx::obs::metric_add("net.failed_sends", result.stats.failed_sends);
    if (contended) {
      // The link census, as des_result::links holds it; one wait
      // observation per call.
      static constexpr double link_wait_uppers[] = {
          1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100};
      tfx::obs::metric_add("net.routed_messages",
                           result.links.routed_messages);
      tfx::obs::metric_add("net.link_hops", result.links.link_hops);
      tfx::obs::metric_add("net.contended_hops", result.links.contended_hops);
      tfx::obs::metric_observe("net.link_wait_s", link_wait_uppers,
                               result.links.wait_seconds);
    }
  }
  return result;
}

}  // namespace tfx::mpisim
