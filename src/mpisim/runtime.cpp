#include "mpisim/runtime.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "core/contracts.hpp"
#include "mpisim/obs_events.hpp"
#include "obs/metrics.hpp"

namespace tfx::mpisim {

namespace {

/// Human-readable reason a transport_down notice carries in its
/// payload (socket peer loss, truncated frame, ...).
std::string detail_text(const wire_message& msg) {
  if (msg.payload.empty()) return "transport channel lost";
  return std::string(reinterpret_cast<const char*>(msg.payload.data()),
                     msg.payload.size());
}

}  // namespace

recv_status request::wait() {
  if (kind_ == kind::recv) {
    status_ = comm_->recv_bytes(buffer_, src_, tag_);
    kind_ = kind::none;
  }
  return status_;
}

void waitall(std::span<request> requests) {
  for (auto& r : requests) r.wait();
}

communicator::communicator(world* w, int rank) : world_(w), rank_(rank) {
  // Protocol bookkeeping only exists under an active fault plane; the
  // vanilla path stays allocation-identical to the pre-fault runtime.
  if (const fault_plane* f = world_->faults(); f != nullptr && f->active()) {
    const auto n = static_cast<std::size_t>(world_->size());
    send_seq_.assign(n, 0);
    delivered_.resize(n);
  }
}

int communicator::size() const { return world_->size(); }

const tofud_params& communicator::net() const { return world_->net(); }

const torus_placement& communicator::placement() const {
  return world_->placement();
}

void communicator::send_bytes(std::span<const std::byte> data, int dst,
                              int tag) {
  TFX_EXPECTS(dst >= 0 && dst < size());
  TFX_EXPECTS(tag >= 0);
  if (const fault_plane* f = world_->faults(); f != nullptr && f->active()) {
    fault_send(data, dst, tag, *f);
    return;
  }
  clock_ += world_->net().send_overhead_s;
  const double inject_start = std::max(clock_, send_port_free_);
  send_port_free_ =
      inject_start + serialization_seconds(world_->net(),
                                           world_->placement(), rank_, dst,
                                           data.size());
  obs_ev::emit_vanilla_send(rank_, dst, inject_start, data.size());
  tx_bytes_ += data.size();
  wire_message msg{rank_, tag, inject_start,
                   std::vector<std::byte>(data.begin(), data.end())};
  world_->transport_->deposit(dst, std::move(msg));
}

void communicator::fault_send(std::span<const std::byte> data, int dst,
                              int tag, const fault_plane& faults) {
  const std::uint64_t send_index = sends_total_++;
  const double stall = faults.stall_seconds(rank_, send_index);
  if (stall > 0) {
    clock_ += stall;
    ++stats_.stalls;
    obs_ev::emit_stall(rank_, dst, clock_, send_index);
  }
  if (faults.crashes_before(rank_, send_index)) {
    crash("rank crashed by fault schedule");
  }
  clock_ += world_->net().send_overhead_s;

  const std::uint64_t seq = send_seq_[static_cast<std::size_t>(dst)]++;
  const transmit_plan tp =
      faults.plan(world_->net(), world_->placement(), rank_, dst,
                  data.size(), seq, clock_, send_port_free_, stats_);
  send_port_free_ = tp.port_free;
  obs_ev::emit_transmit_plan(rank_, dst, seq, data.size(), tp);
  if (!tp.failed) tx_bytes_ += data.size();

  const std::uint64_t sum = fault_plane::checksum(data);
  // Corrupted copies really enter the mailbox (with the *original*
  // checksum, so verification fails) - the receive-side discard path
  // is exercised with live data, while the timing consequence (the
  // retransmission) was already priced into the plan.
  for (const auto& a : tp.attempts) {
    if (!a.corrupt) continue;
    std::vector<std::byte> bad(data.begin(), data.end());
    const std::size_t at = a.flip % bad.size();
    const auto bit = static_cast<int>((a.flip >> 32) % 8);
    bad[at] ^= static_cast<std::byte>(1 << bit);
    world_->transport_->deposit(
        dst, wire_message{rank_, tag, a.depart, std::move(bad), seq, sum});
  }
  if (tp.failed) {
    // Nothing deliverable: poison the matcher so the receiver raises
    // comm_error instead of blocking forever, then fail here too.
    world_->transport_->deposit(
        dst, wire_message{rank_, tag, tp.attempts.back().depart, {}, seq, 0,
                          msg_kind::send_failed});
    crashed_ = true;
    fail_stopped_ = true;
    obs_ev::emit_casualty(rank_, dst, clock_);
    world_->transport_->broadcast_crash(rank_, clock_);
    throw comm_error(comm_error::reason::retries_exhausted, dst,
                     "send to rank " + std::to_string(dst) + " exhausted " +
                         std::to_string(tp.retries()) + " retries");
  }
  world_->transport_->deposit(
      dst,
      wire_message{rank_, tag, tp.good_depart,
                   std::vector<std::byte>(data.begin(), data.end()), seq,
                   sum},
      /*front=*/tp.reordered);
  if (tp.duplicated) {
    world_->transport_->deposit(
        dst, wire_message{rank_, tag, tp.dup_depart,
                          std::vector<std::byte>(data.begin(), data.end()),
                          seq, sum});
  }
}

recv_status communicator::recv_bytes(std::span<std::byte> out, int src,
                                     int tag) {
  TFX_EXPECTS(src == any_source || (src >= 0 && src < size()));
  if (const fault_plane* f = world_->faults(); f != nullptr && f->active()) {
    return fault_recv(out, src, tag, *f);
  }
  wire_message msg = world_->transport_->collect(rank_, src, tag);
  if (msg.kind == msg_kind::transport_down) {
    crashed_ = true;
    obs_ev::emit_casualty(rank_, msg.source, clock_);
    throw comm_error(comm_error::reason::transport_lost, msg.source,
                     "recv from rank " + std::to_string(msg.source) + ": " +
                         detail_text(msg));
  }
  TFX_EXPECTS(msg.payload.size() <= out.size());
  std::copy(msg.payload.begin(), msg.payload.end(), out.begin());

  const auto& net = world_->net();
  const auto& place = world_->placement();
  const double ready =
      msg.depart_vtime + transfer_latency_seconds(net, place, msg.source,
                                                  rank_, msg.payload.size());
  const double arrival =
      std::max(ready, recv_port_free_) +
      serialization_seconds(net, place, msg.source, rank_,
                            msg.payload.size());
  recv_port_free_ = arrival;
  clock_ = std::max(clock_, arrival) + net.recv_overhead_s;
  obs_ev::emit_recv(rank_, msg.source, clock_, msg.payload.size());
  return recv_status{msg.source, msg.tag, msg.payload.size(), arrival};
}

recv_status communicator::fault_recv(std::span<std::byte> out, int src,
                                     int tag, const fault_plane&) {
  for (;;) {
    wire_message msg = world_->transport_->collect_faulty(rank_, src, tag);
    if (msg.kind == msg_kind::transport_down) {
      crashed_ = true;
      obs_ev::emit_casualty(rank_, msg.source, clock_);
      throw comm_error(comm_error::reason::transport_lost, msg.source,
                       "recv from rank " + std::to_string(msg.source) + ": " +
                           detail_text(msg));
    }
    if (msg.kind == msg_kind::crash_notice) {
      crashed_ = true;
      obs_ev::emit_casualty(rank_, msg.source, clock_);
      throw comm_error(comm_error::reason::peer_crashed, msg.source,
                       "recv from rank " + std::to_string(msg.source) +
                           ": peer crashed");
    }
    if (msg.kind == msg_kind::send_failed) {
      crashed_ = true;
      obs_ev::emit_casualty(rank_, msg.source, clock_);
      throw comm_error(comm_error::reason::retries_exhausted, msg.source,
                       "recv from rank " + std::to_string(msg.source) +
                           ": peer's send exhausted its retries");
    }
    auto& seen = delivered_[static_cast<std::size_t>(msg.source)];
    if (fault_plane::checksum(msg.payload) != msg.checksum ||
        seen.count(msg.seq) != 0) {
      // Corrupted copy or replayed sequence number: discard and keep
      // waiting. Filtered before the drain port, so discards cost no
      // virtual time (NIC-level filtering); the retransmission delay
      // was charged on the sender's schedule.
      ++rx_discards_;
      obs_ev::emit_dedup(rank_, msg.source, clock_, msg.seq);
      continue;
    }
    seen.insert(msg.seq);
    delivery_log_.push_back({msg.source, msg.tag, msg.seq});

    TFX_EXPECTS(msg.payload.size() <= out.size());
    std::copy(msg.payload.begin(), msg.payload.end(), out.begin());
    const auto& net = world_->net();
    const auto& place = world_->placement();
    const double ready =
        msg.depart_vtime +
        transfer_latency_seconds(net, place, msg.source, rank_,
                                 msg.payload.size());
    const double arrival =
        std::max(ready, recv_port_free_) +
        serialization_seconds(net, place, msg.source, rank_,
                              msg.payload.size());
    recv_port_free_ = arrival;
    clock_ = std::max(clock_, arrival) + net.recv_overhead_s;
    obs_ev::emit_recv(rank_, msg.source, clock_, msg.payload.size());
    return recv_status{msg.source, msg.tag, msg.payload.size(), arrival};
  }
}

void communicator::crash(const char* what) {
  crashed_ = true;
  fail_stopped_ = true;
  obs_ev::emit_casualty(rank_, rank_, clock_);
  world_->transport_->broadcast_crash(rank_, clock_);
  throw comm_error(comm_error::reason::peer_crashed, rank_, what);
}

void communicator::flush_obs() {
  // Cold path, called once per rank at the end of world::run: fold
  // this rank's byte total and protocol stats into the metrics
  // registry. Per-pair bytes are in the net.send events.
  if (!tfx::obs::active()) return;
  tfx::obs::metric_add("net.tx_bytes", tx_bytes_);
  tfx::obs::metric_add("net.sends", stats_.sends);
  tfx::obs::metric_add("net.attempts", stats_.attempts);
  tfx::obs::metric_add("net.retries", stats_.retries);
  tfx::obs::metric_add("net.drops", stats_.drops);
  tfx::obs::metric_add("net.corruptions", stats_.corruptions);
  tfx::obs::metric_add("net.duplicates", stats_.duplicates);
  tfx::obs::metric_add("net.reorders", stats_.reorders);
  tfx::obs::metric_add("net.delays", stats_.delays);
  tfx::obs::metric_add("net.stalls", stats_.stalls);
  tfx::obs::metric_add("net.failed_sends", stats_.failed_sends);
  tfx::obs::metric_add("net.rx_discards", rx_discards_);
}

bool communicator::fault_plane_active() const {
  const fault_plane* f = world_->faults();
  return f != nullptr && f->active();
}

recovery_board& communicator::board() { return world_->board(); }

void communicator::announce_recovery() {
  world_->transport_->broadcast_crash(rank_, clock_);
}

void communicator::fail_stop() {
  crashed_ = true;
  fail_stopped_ = true;
  world_->transport_->broadcast_crash(rank_, clock_);
}

void communicator::drain_mailbox() { world_->transport_->drain(rank_); }

recv_status communicator::sendrecv_bytes(std::span<const std::byte> out_data,
                                         int dst, int send_tag,
                                         std::span<std::byte> in_data, int src,
                                         int recv_tag) {
  send_bytes(out_data, dst, send_tag);
  return recv_bytes(in_data, src, recv_tag);
}

world::world(int ranks, tofud_params net, transport_options topt)
    : world(torus_placement::line(ranks), net, std::move(topt)) {}

world::world(torus_placement place, tofud_params net, transport_options topt)
    : net_(net), place_(place) {
  TFX_EXPECTS(place_.rank_count() > 0);
  transport_ = transport_manager::make(place_.rank_count(), topt);
  TFX_EXPECTS(transport_->ranks() == place_.rank_count());
}

void world::set_faults(const fault_config& cfg) {
  faults_ = std::make_unique<fault_plane>(cfg);
}

void world::run(const std::function<void(communicator&)>& fn) {
  const int ranks = size();
  transport_->reset();
  final_clocks_.assign(static_cast<std::size_t>(ranks), 0.0);
  board_.reset(transport_->local_rank_count());
  const bool faulty = faults_ != nullptr && faults_->active();
  report_ = fault_report{};
  std::vector<fault_stats> rank_stats;
  std::vector<std::uint64_t> rank_discards;
  std::vector<std::uint8_t> rank_crashed;
  if (faulty) {
    report_.deliveries.resize(static_cast<std::size_t>(ranks));
    rank_stats.resize(static_cast<std::size_t>(ranks));
    rank_discards.assign(static_cast<std::size_t>(ranks), 0);
    rank_crashed.assign(static_cast<std::size_t>(ranks), 0);
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(ranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(transport_->local_rank_count()));
  for (int r = 0; r < ranks; ++r) {
    if (!transport_->is_local(r)) continue;  // lives in another process
    threads.emplace_back([&, this, r] {
      const auto ri = static_cast<std::size_t>(r);
      communicator comm(this, r);
      try {
        fn(comm);
      } catch (...) {
        errors[ri] = std::current_exception();
        // Under faults, any dying rank notifies its peers so nobody
        // blocks forever on a message that will never come.
        if (faulty) {
          comm.crashed_ = true;
          transport_->broadcast_crash(r, comm.now());
        }
      }
      comm.flush_obs();
      final_clocks_[ri] = comm.now();
      if (faulty) {
        rank_stats[ri] = comm.stats_;
        rank_discards[ri] = comm.rx_discards_;
        rank_crashed[ri] = comm.crashed_ ? 1 : 0;
        report_.deliveries[ri] = std::move(comm.delivery_log_);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (faulty) {
    for (int r = 0; r < ranks; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      report_.stats += rank_stats[ri];
      report_.rx_discards += rank_discards[ri];
      if (rank_crashed[ri] != 0) report_.crashed.push_back(r);
    }
  }
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// ---------------------------------------------------------------------------
// recovery_board - the shared control plane of rollback recovery.
// All state lives behind one mutex; waits are plain condition-variable
// predicates, so the board is trivially clean under TSan.
// ---------------------------------------------------------------------------

void recovery_board::reset(int ranks) {
  const std::scoped_lock lock(mutex_);
  ranks_ = ranks;
  generation_ = 0;
  finalized_ = 0;
  pending_ = false;
  abandoned_ = false;
  parked_ = 0;
  dead_.clear();
  casualties_.clear();
  phases_.fill(phase_slot{});
}

void recovery_board::report_death(int rank) {
  {
    const std::scoped_lock lock(mutex_);
    if (std::find(dead_.begin(), dead_.end(), rank) == dead_.end()) {
      dead_.push_back(rank);
      std::sort(dead_.begin(), dead_.end());
      casualties_.push_back(rank);
    }
    // Bump even for a repeated report: any in-flight round must abort
    // and re-read the casualty set.
    ++generation_;
    pending_ = true;
  }
  changed_.notify_all();
}

recovery_board::round_info recovery_board::begin_round() {
  round_info info;
  {
    const std::scoped_lock lock(mutex_);
    pending_ = true;  // wake parked ranks into the round
    info.generation = generation_;
    info.dead = dead_;
  }
  changed_.notify_all();
  return info;
}

bool recovery_board::arrive(int phase, std::uint64_t generation) {
  std::unique_lock lock(mutex_);
  if (generation_ != generation || abandoned_) {
    // The round this rank is arriving for is already superseded. Abort
    // without touching the slot: a stale arrival that reclaimed it here
    // would wipe the counts of ranks already gathered for the newer
    // generation, and their arrivals can never be replayed.
    return false;
  }
  phase_slot& slot = phases_[static_cast<std::size_t>(phase)];
  if (slot.generation != generation) {
    // First arrival of this (phase, generation): lazily claim the slot.
    // A stale slot can be reused safely because its generation is over:
    // every waiter parked on it aborts via the generation_ clause, and
    // the claim above is gated on generation == generation_, so only
    // the current generation ever resets the counts.
    slot.generation = generation;
    slot.count = 0;
  }
  ++slot.count;
  changed_.notify_all();
  changed_.wait(lock, [&] {
    // Success first: a barrier that filled stays passed even if the
    // generation moves on before this waiter wakes.
    return (slot.generation == generation && slot.count >= ranks_) ||
           generation_ != generation || abandoned_;
  });
  return slot.generation == generation && slot.count >= ranks_;
}

bool recovery_board::complete_round(std::uint64_t generation) {
  std::unique_lock lock(mutex_);
  if (generation_ != generation || abandoned_) {
    return false;  // stale round: do not clobber a newer claim (see arrive)
  }
  phase_slot& slot = phases_[phase_slots - 1];
  if (slot.generation != generation) {
    slot.generation = generation;
    slot.count = 0;
  }
  ++slot.count;
  changed_.notify_all();
  changed_.wait(lock, [&] {
    return (slot.generation == generation && slot.count >= ranks_) ||
           generation_ != generation || abandoned_;
  });
  const bool ok = slot.generation == generation && slot.count >= ranks_;
  if (ok && finalized_ != generation + 1) {
    // Exactly one finisher finalizes; deaths reported after the round
    // filled (generation already moved on) stay queued for the next
    // round because the finalized_ marker keeps this branch single-shot.
    // The bump retires the round's filled phase slots: a survivor that
    // begins the next round before its casualty reports must wait at
    // barrier 0, not pass it on this round's counts.
    finalized_ = generation + 1;
    dead_.clear();
    pending_ = false;
    ++generation_;
    changed_.notify_all();
  }
  return ok;
}

void recovery_board::await_generation_past(std::uint64_t generation) {
  std::unique_lock lock(mutex_);
  changed_.wait(lock,
                [&] { return generation_ > generation || abandoned_; });
}

recovery_board::park_result recovery_board::park() {
  std::unique_lock lock(mutex_);
  ++parked_;
  changed_.notify_all();
  changed_.wait(lock, [&] {
    return parked_ >= ranks_ || pending_ || abandoned_;
  });
  if (parked_ >= ranks_ && !pending_ && !abandoned_) {
    return park_result::all_done;
  }
  --parked_;
  return park_result::recover;
}

void recovery_board::abandon() {
  {
    const std::scoped_lock lock(mutex_);
    abandoned_ = true;
  }
  changed_.notify_all();
}

bool recovery_board::abandoned() const {
  const std::scoped_lock lock(mutex_);
  return abandoned_;
}

std::vector<int> recovery_board::casualties() const {
  const std::scoped_lock lock(mutex_);
  return casualties_;
}

}  // namespace tfx::mpisim
