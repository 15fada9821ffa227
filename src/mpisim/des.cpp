#include "mpisim/des.hpp"

#include <algorithm>
#include <bit>

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

// In-flight messages live in one shared pool of singly-linked nodes;
// each channel holds a FIFO as (head, tail) indices into the pool.
// This replaces the seed's unordered_map<uint64, deque> wire state,
// whose hashing and per-deque block allocations dominated DES host
// time at thousand-rank scale (docs/TOPOLOGY.md has the numbers).
struct wire_node {
  double depart;
  std::uint64_t seq;
  std::int32_t next;
  bool poison;  ///< the sender exhausted its retries
};

// One (src,dst) pair that the program actually uses. next_seq folds
// the seed's chan_seq map into the same cache line as the FIFO.
struct channel_state {
  std::int32_t head = -1;
  std::int32_t tail = -1;
  std::uint64_t next_seq = 0;
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

  // ---- program pre-scan: build the flat channel table --------------
  // Every (src,dst) pair referenced by a send OR a recv gets one dense
  // channel id, in first-seen order; per-op ids are resolved once here
  // so the hot loop never hashes. Scanning recvs too guarantees a
  // receiver blocked on a crashed sender still finds its channel. Keys
  // src*p+dst go through an open-addressing table that starts at 2p
  // slots and doubles before it would pass half full, so its size
  // follows the channel count rather than the op count, and the whole
  // scan is one linear walk over the ops.
  const auto up = static_cast<std::uint64_t>(p);
  std::vector<std::size_t> op_base(static_cast<std::size_t>(p) + 1, 0);
  for (std::size_t r = 0; r < prog.ranks.size(); ++r) {
    op_base[r + 1] = op_base[r] + prog.ranks[r].size();
  }
  const std::size_t total_ops = op_base.back();
  auto bits = static_cast<int>(std::bit_width(2 * up | 1));
  std::size_t mask = (std::size_t{1} << bits) - 1;
  std::vector<std::int32_t> slots(mask + 1, -1);  // channel id or -1
  std::vector<std::uint64_t> chan_keys;           // by channel id
  // The slot holding `key`, or the empty slot where it belongs.
  const auto slot_of = [&](std::uint64_t key) {
    std::size_t s = (key * 0x9e3779b97f4a7c15ull) >> (64 - bits);
    for (;; s = (s + 1) & mask) {
      const std::int32_t id = slots[s];
      if (id < 0 || chan_keys[static_cast<std::size_t>(id)] == key) return s;
    }
  };
  const auto chan_of = [&](std::uint64_t key) {
    std::size_t s = slot_of(key);
    if (slots[s] >= 0) return slots[s];
    if (2 * (chan_keys.size() + 1) > slots.size()) {
      ++bits;
      mask = 2 * mask + 1;
      slots.assign(mask + 1, -1);
      for (std::size_t id = 0; id < chan_keys.size(); ++id) {
        slots[slot_of(chan_keys[id])] = static_cast<std::int32_t>(id);
      }
      s = slot_of(key);
    }
    slots[s] = static_cast<std::int32_t>(chan_keys.size());
    chan_keys.push_back(key);
    return slots[s];
  };

  // Per-op channel id, flattened across ranks (compute ops keep -1).
  std::vector<std::int32_t> op_chan(total_ops, -1);
  std::size_t total_sends = 0;
  for (int r = 0; r < p; ++r) {
    const auto ur = static_cast<std::uint64_t>(r);
    const auto& ops = prog.ranks[static_cast<std::size_t>(r)];
    std::int32_t* chans = op_chan.data() + op_base[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const sim_op& op = ops[i];
      if (op.what == sim_op::kind::compute) continue;
      TFX_EXPECTS(op.peer >= 0 && op.peer < p);
      const auto peer = static_cast<std::uint64_t>(op.peer);
      if (op.what == sim_op::kind::send) {
        chans[i] = chan_of(ur * up + peer);
        ++total_sends;
      } else {
        chans[i] = chan_of(peer * up + ur);
      }
    }
  }

  std::vector<channel_state> channels(chan_keys.size());
  std::vector<wire_node> pool;
  pool.reserve(total_sends);  // one entry per send op, good or poisoned
  std::int32_t free_head = -1;
  const auto wire_push = [&](std::int32_t chan, double depart,
                             std::uint64_t seq, bool poison) {
    std::int32_t idx;
    if (free_head >= 0) {
      idx = free_head;
      free_head = pool[static_cast<std::size_t>(idx)].next;
    } else {
      idx = static_cast<std::int32_t>(pool.size());
      pool.push_back({});
    }
    pool[static_cast<std::size_t>(idx)] = {depart, seq, -1, poison};
    channel_state& c = channels[static_cast<std::size_t>(chan)];
    if (c.tail < 0) {
      c.head = c.tail = idx;
    } else {
      pool[static_cast<std::size_t>(c.tail)].next = idx;
      c.tail = idx;
    }
  };
  const auto wire_pop = [&](std::int32_t chan) {
    channel_state& c = channels[static_cast<std::size_t>(chan)];
    const std::int32_t idx = c.head;
    wire_node node = pool[static_cast<std::size_t>(idx)];
    c.head = node.next;
    if (c.head < 0) c.tail = -1;
    pool[static_cast<std::size_t>(idx)].next = free_head;
    free_head = idx;
    return node;
  };

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
  // byte total flushes at the end.
  const bool traced = tfx::obs::active();
  std::uint64_t tx_bytes = 0;
  std::size_t done = 0;
  for (int r = 0; r < p; ++r) {
    if (prog.ranks[static_cast<std::size_t>(r)].empty()) ++done;
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
    for (int r = 0; r < p; ++r) {
      if (crashed[static_cast<std::size_t>(r)] != 0) continue;
      const auto& ops = prog.ranks[static_cast<std::size_t>(r)];
      const std::int32_t* chans =
          op_chan.data() + op_base[static_cast<std::size_t>(r)];
      auto& i = pc[static_cast<std::size_t>(r)];
      double& clock = result.clocks[static_cast<std::size_t>(r)];
      while (i < ops.size()) {
        const sim_op& op = ops[i];
        if (op.what == sim_op::kind::compute) {
          clock += op.seconds;
        } else if (op.what == sim_op::kind::send) {
          double& port = send_port_free[static_cast<std::size_t>(r)];
          const std::int32_t chan = chans[i];
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
                channels[static_cast<std::size_t>(chan)].next_seq++;
            const transmit_plan tp =
                faults->plan(net, place, r, op.peer, op.bytes, seq, clock,
                             port, result.stats);
            port = tp.port_free;
            obs_ev::emit_transmit_plan(r, op.peer, seq, op.bytes, tp);
            if (tp.failed) {
              wire_push(chan, tp.attempts.back().depart, seq, true);
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
            wire_push(chan, depart, seq, false);
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
            wire_push(chan, depart, 0, false);
          }
        } else {  // recv
          const std::int32_t chan = chans[i];
          if (channels[static_cast<std::size_t>(chan)].head < 0) {
            break;  // blocked
          }
          const wire_node entry = wire_pop(chan);
          if (entry.poison) {
            obs_ev::emit_casualty(r, op.peer, clock);
            halt(r);
            progressed = true;
            break;
          }
          const double ready =
              entry.depart +
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
                {op.peer, 0, entry.seq});
          }
        }
        ++i;
        progressed = true;
        if (i == ops.size()) ++done;
      }
    }
    if (!progressed && faulty) {
      // Cascade: a rank starved on a channel whose sender crashed will
      // never be served - it fails too, exactly like the threaded
      // runtime's crash-notice path.
      for (int r = 0; r < p; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        const auto& ops = prog.ranks[ri];
        if (crashed[ri] != 0 || pc[ri] >= ops.size()) continue;
        const sim_op& op = ops[pc[ri]];
        if (op.what != sim_op::kind::recv) continue;
        const std::int32_t chan = (op_chan.data() + op_base[ri])[pc[ri]];
        const bool starved =
            channels[static_cast<std::size_t>(chan)].head < 0;
        if (starved && crashed[static_cast<std::size_t>(op.peer)] != 0) {
          obs_ev::emit_casualty(r, op.peer,
                                result.clocks[static_cast<std::size_t>(r)]);
          halt(r);
          progressed = true;
        }
      }
    }
    TFX_ASSERT(progressed && "sim_program deadlocked");
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
  }
  return result;
}

}  // namespace tfx::mpisim
