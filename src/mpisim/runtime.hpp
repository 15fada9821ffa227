#pragma once

/// \file runtime.hpp
/// The message-passing runtime: ranks as threads, real data movement,
/// virtual time.
///
/// This is the substrate standing in for Fujitsu MPI on Fugaku
/// (DESIGN.md § 2). Each rank runs in its own std::thread and
/// communicates through matched, tagged mailboxes - messages really
/// move, so programs are tested end-to-end - while a per-rank *virtual
/// clock* advances by modeled costs (software overheads, TofuD wire
/// time from network.hpp). Benchmarks read latencies off the virtual
/// clocks, which is what lets a laptop reproduce the timing shape of a
/// 384-node torus.
///
/// Timing rules (LogGP-flavoured; the DES in des.cpp applies the same
/// rules and the two are pinned against each other in tests):
///  * send:  clock += o_send; the message starts injecting at
///           max(clock, sender's port_free); the sender's port stays
///           busy for the serialization time (G*bytes). Eager: the
///           sender never blocks; the payload is copied.
///  * recv:  first byte ready at inject_start + latency; the payload
///           drains through the receiver's port:
///           arrival = max(ready, receiver port_free) + G*bytes;
///           clock = max(clock, arrival) + o_recv. The port term is
///           what serializes a many-to-one flood (e.g. the Gatherv
///           root) instead of letting all messages land in parallel.
///  * compute/overhead: advance(seconds) adds straight to the clock.
///
/// Reliability: when a fault plane is attached (world::set_faults,
/// faultplane.hpp), every message is stamped with a per-channel
/// sequence number and a payload checksum; lost/corrupted
/// transmissions are retried with exponential backoff, duplicates are
/// deduplicated on the receive side, reordered queues are re-sorted by
/// sequence number, and exhausted retries or scheduled crashes raise a
/// typed comm_error on both endpoints instead of hanging. With no (or
/// an all-zero) fault plane the vanilla path below runs unchanged -
/// bit- and allocation-identical to the pre-fault-plane runtime.
///
/// Transports: the byte movement underneath all of the above is
/// pluggable (transport.hpp). The default "shm" transport uses
/// per-channel shared-memory queues; "socket" ships frames over real
/// TCP, optionally with each rank in its own process (world then
/// spawns threads only for the ranks that live here). Virtual-time
/// accounting stays in this layer, so every transport produces
/// bit-identical clocks and trajectories - tests/mpisim_transport_test
/// pins both against recorded golden hashes.

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "mpisim/faultplane.hpp"
#include "mpisim/network.hpp"
#include "mpisim/transport.hpp"

namespace tfx::mpisim {

/// Completion information of a receive.
struct recv_status {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;
  double arrival_vtime = 0;  ///< when the message hit the receiver
};

class world;
class communicator;

/// Handle for a nonblocking operation. Sends are eager (complete at
/// post time); receives are matched lazily when wait() is called, so
/// two pending irecvs with identical (source, tag) complete in wait
/// order rather than post order - the one deviation from MPI
/// semantics, which deterministic programs do not observe.
///
/// Overlap semantics: posting costs no virtual time (post_vtime merely
/// records the clock), and wait() charges
/// `clock = max(clock, arrival) + o_recv` - so when compute is charged
/// between post and wait (communicator::advance), completion lands at
/// max(post_time + compute, arrival): the message transfer genuinely
/// hides under the computation instead of adding to it. The DES
/// applies the identical rule to a compute-then-recv op sequence, and
/// tests pin the two engines against each other.
class request {
 public:
  request() = default;

  /// Block until the operation completes; returns its status (sends
  /// report the posted byte count). Idempotent after completion.
  recv_status wait();

  /// True once the operation has completed (sends: immediately).
  [[nodiscard]] bool done() const { return kind_ == kind::none; }

  /// The rank's virtual clock when the operation was posted.
  [[nodiscard]] double post_vtime() const { return post_vtime_; }

 private:
  friend class communicator;
  enum class kind : std::uint8_t { none, recv };

  request(communicator* comm, std::span<std::byte> buffer, int src, int tag,
          double posted)
      : comm_(comm), buffer_(buffer), src_(src), tag_(tag),
        kind_(kind::recv), post_vtime_(posted) {}
  explicit request(recv_status immediate)
      : status_(immediate), post_vtime_(immediate.arrival_vtime) {}

  communicator* comm_ = nullptr;
  std::span<std::byte> buffer_{};
  int src_ = 0;
  int tag_ = 0;
  kind kind_ = kind::none;
  recv_status status_{};
  double post_vtime_ = 0;
};

/// Wait on a batch of requests (MPI_Waitall).
void waitall(std::span<request> requests);

/// Shared-memory control plane for rollback recovery
/// (swm/resilience.hpp). Ranks that hit a comm_error or health failure
/// converge here to agree on *which* recovery round they are in before
/// any recovery messaging starts. Pure coordination: the board carries
/// no payload data and no virtual time.
///
/// A *generation* counts death reports and completed rounds. Every
/// recovery round is keyed to the generation it started under; the
/// round's phase barriers abort as soon as another death bumps the
/// generation, so a round can never complete with a stale view of the
/// casualty set. A completed barrier stays completed: `arrive` checks
/// the success clause before the abort clause, so a generation bump
/// that lands after the last arrival cannot retroactively fail the
/// round.
///
/// Safety argument for the abortable barriers: a barrier at generation
/// g expects all `ranks` arrivals *including* any rank about to report
/// a death - and `report_death` bumps the generation *before* that
/// rank can arrive. A stale barrier therefore never sees more than
/// ranks-1 arrivals and cannot complete. A completed round bumps the
/// generation too, so its filled phase slots belong to a generation no
/// later round starts under: a survivor that begins the next round
/// before the casualty reports waits at barrier 0 until the report
/// aborts it, instead of passing on the old counts.
class recovery_board {
 public:
  struct round_info {
    std::uint64_t generation = 0;
    std::vector<int> dead;  ///< accumulated casualties, ascending
  };
  enum class park_result : std::uint8_t { all_done, recover };

  /// Fresh board for `ranks` ranks (world::run calls this).
  void reset(int ranks);

  /// Record a death (idempotent per rank) and bump the generation,
  /// aborting any in-flight round's barriers.
  void report_death(int rank);

  /// Enter a recovery round: marks recovery pending (waking parked
  /// ranks) and snapshots the generation + casualty set. The snapshot
  /// is stable for the whole round: any change bumps the generation
  /// and aborts the round's barriers.
  [[nodiscard]] round_info begin_round();

  /// Phase barrier `phase` (0-based) of the round at `generation`.
  /// Blocks until all ranks arrive (true) or the generation moves on
  /// (false: abort the round and re-enter via begin_round).
  [[nodiscard]] bool arrive(int phase, std::uint64_t generation);

  /// Final barrier of a round; on success the first finisher clears
  /// the casualty set and the pending flag and bumps the generation
  /// (exactly once, so deaths reported immediately after are preserved
  /// for the next round).
  [[nodiscard]] bool complete_round(std::uint64_t generation);

  /// Block until the generation exceeds `generation` (used before
  /// retrying a round whose abort implies an incoming death report).
  void await_generation_past(std::uint64_t generation);

  /// A rank that finished its program parks here: returns all_done
  /// when every rank parked, or recover when a round needs it.
  [[nodiscard]] park_result park();

  /// Poison the board (a rank is exiting with an unrecoverable error):
  /// every blocked wait returns immediately and `abandoned()` turns
  /// true, so peers stop waiting for arrivals that will never come.
  void abandon();
  [[nodiscard]] bool abandoned() const;

  /// Every death reported since reset (history, survives round ends).
  [[nodiscard]] std::vector<int> casualties() const;

 private:
  static constexpr int phase_slots = 3;
  struct phase_slot {
    std::uint64_t generation = ~std::uint64_t{0};
    int count = 0;
  };

  mutable std::mutex mutex_;
  std::condition_variable changed_;
  int ranks_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t finalized_ = 0;  ///< generation+1 of the last finalized round
  bool pending_ = false;
  bool abandoned_ = false;
  int parked_ = 0;
  std::vector<int> dead_;        ///< casualties of the current round
  std::vector<int> casualties_;  ///< full history since reset
  std::array<phase_slot, phase_slots> phases_;
};

/// Per-rank handle: p2p operations and the rank's virtual clock.
/// Not thread-safe across user threads (each rank thread owns its own).
class communicator {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// The rank's virtual clock, seconds since the world started.
  [[nodiscard]] double now() const { return clock_; }

  /// Charge local compute or software overhead to the clock.
  void advance(double seconds) { clock_ += seconds; }

  /// Eagerly send `data` to `dst` with `tag`; never blocks.
  void send_bytes(std::span<const std::byte> data, int dst, int tag);

  /// Blocking receive into `out` (must be large enough for the matched
  /// message). `src`/`tag` may be any_source/any_tag.
  recv_status recv_bytes(std::span<std::byte> out, int src, int tag);

  /// Combined send-then-receive (safe because sends are eager).
  recv_status sendrecv_bytes(std::span<const std::byte> out_data, int dst,
                             int send_tag, std::span<std::byte> in_data,
                             int src, int recv_tag);

  /// Nonblocking send: eager, completes immediately; the returned
  /// request is already done (kept for symmetric program structure).
  request isend_bytes(std::span<const std::byte> data, int dst, int tag) {
    send_bytes(data, dst, tag);
    return request(recv_status{rank_, tag, data.size(), clock_});
  }

  /// Nonblocking receive: matching and the clock update happen at
  /// wait() time.
  request irecv_bytes(std::span<std::byte> out, int src, int tag) {
    return request(this, out, src, tag, clock_);
  }

  /// Member form of waitall (MPI_Waitall): complete a batch in order.
  /// Each completion charges max(clock, arrival) + o_recv, so work
  /// advanced between the posts and this call overlaps every transfer.
  void wait_all(std::span<request> requests) { waitall(requests); }

  template <typename T>
  request isend(std::span<const T> data, int dst, int tag = 0) {
    return isend_bytes(std::as_bytes(data), dst, tag);
  }
  template <typename T>
  request irecv(std::span<T> out, int src, int tag = 0) {
    return irecv_bytes(std::as_writable_bytes(out), src, tag);
  }

  /// Typed conveniences over the byte interface.
  template <typename T>
  void send(std::span<const T> data, int dst, int tag = 0) {
    send_bytes(std::as_bytes(data), dst, tag);
  }
  template <typename T>
  recv_status recv(std::span<T> out, int src, int tag = 0) {
    return recv_bytes(std::as_writable_bytes(out), src, tag);
  }
  template <typename T>
  void send_value(const T& v, int dst, int tag = 0) {
    send(std::span<const T>(&v, 1), dst, tag);
  }
  template <typename T>
  T recv_value(int src, int tag = 0) {
    T v{};
    recv(std::span<T>(&v, 1), src, tag);
    return v;
  }

  /// The world's network model (collectives use these for compute
  /// charging and algorithm selection).
  [[nodiscard]] const tofud_params& net() const;
  [[nodiscard]] const torus_placement& placement() const;

  // -- rollback-recovery support (swm/resilience.hpp) ------------------

  /// Rank-wide count of sends posted so far; crash schedules index
  /// this counter, so recovery code uses it to place probe faults.
  [[nodiscard]] std::uint64_t sends_posted() const { return sends_total_; }

  /// True when an attached fault plane can fire this run.
  [[nodiscard]] bool fault_plane_active() const;

  /// The world's shared recovery board (control plane, no virtual time).
  [[nodiscard]] recovery_board& board();

  /// Wake every peer blocked in a receive by depositing crash notices
  /// (the same wire mechanism a real death uses), so they fail into
  /// the recovery path and converge on the board. No clock effects.
  void announce_recovery();

  /// Deliberate fail-stop: mark this rank crashed and notify peers
  /// (the health sentinel treats numerical corruption like a crash).
  void fail_stop();

  /// Discard every message queued for this rank: stale traffic and
  /// crash notices from before a recovery round.
  void drain_mailbox();

  /// Clear the crashed flag after a successful recovery round so the
  /// final fault report lists only unrecovered deaths.
  void mark_recovered() {
    crashed_ = false;
    fail_stopped_ = false;
  }

  /// True when *this* rank fail-stopped (scheduled crash, exhausted
  /// retries on its own send, or an explicit fail_stop) - as opposed
  /// to merely observing a peer's failure. Recovery reports such a
  /// rank dead and restores it from its buddy.
  [[nodiscard]] bool self_fail_stopped() const { return fail_stopped_; }

 private:
  friend class world;
  communicator(world* w, int rank);

  /// Fault-plane send path: seq stamping, checksummed copies, the
  /// retry schedule from fault_plane::plan, stall/crash schedules.
  void fault_send(std::span<const std::byte> data, int dst, int tag,
                  const fault_plane& faults);
  /// Fault-plane receive path: checksum verification, duplicate
  /// discarding, lowest-seq-first matching, crash-notice propagation.
  recv_status fault_recv(std::span<std::byte> out, int src, int tag,
                         const fault_plane& faults);
  /// Broadcast a crash notice and die with comm_error.
  [[noreturn]] void crash(const char* what);
  /// Fold the byte total + protocol stats into the metrics registry
  /// (end of world::run; no-op unless tracing is on).
  void flush_obs();

  world* world_;
  int rank_;
  double clock_ = 0;
  double send_port_free_ = 0;  ///< when my injection port next idles
  double recv_port_free_ = 0;  ///< when my drain port next idles

  // -- reliability-protocol state; empty unless the fault plane is
  //    active (the vanilla path must stay allocation-identical) --
  std::vector<std::uint64_t> send_seq_;  ///< next seq per destination
  std::uint64_t sends_total_ = 0;        ///< rank-wide send counter
  std::vector<std::unordered_set<std::uint64_t>> delivered_;  ///< per src
  std::vector<delivery_record> delivery_log_;
  fault_stats stats_;
  std::uint64_t rx_discards_ = 0;  ///< dup/corrupt copies thrown away
  bool crashed_ = false;
  bool fail_stopped_ = false;  ///< this rank itself died (not a peer)

  /// Observability: bytes of every send not lost for good, flushed as
  /// `net.tx_bytes` when tracing is on.
  std::uint64_t tx_bytes_ = 0;
};

/// A set of ranks with mailboxes, a placement, and a network model.
///
/// Usage:
///   world w(4);
///   w.run([](communicator& comm) { ... });
class world {
 public:
  /// `ranks` threads on a default line placement (1 rank per node).
  explicit world(int ranks, tofud_params net = tofud_params{},
                 transport_options topt = {});

  /// Explicit placement; rank count comes from the placement.
  world(torus_placement place, tofud_params net,
        transport_options topt = {});

  /// Execute `fn` on every *local* rank concurrently; joins all
  /// threads. In-process transports host every rank; a socket
  /// transport in process mode hosts exactly one, and the same binary
  /// is launched once per rank. The first exception thrown by any
  /// local rank is rethrown here. May be called repeatedly; clocks and
  /// mailboxes are reset (and in-flight wire frames fenced off)
  /// between runs.
  void run(const std::function<void(communicator&)>& fn);

  /// Virtual clocks of all ranks at the end of the last run().
  [[nodiscard]] const std::vector<double>& final_clocks() const {
    return final_clocks_;
  }

  [[nodiscard]] int size() const { return place_.rank_count(); }
  [[nodiscard]] const tofud_params& net() const { return net_; }
  [[nodiscard]] const torus_placement& placement() const { return place_; }

  /// Attach a deterministic fault plane for subsequent run()s. An
  /// all-zero config is inert: the vanilla send/recv path runs
  /// unchanged (bit- and allocation-identical).
  void set_faults(const fault_config& cfg);
  void clear_faults() { faults_.reset(); }
  [[nodiscard]] const fault_plane* faults() const { return faults_.get(); }

  /// What the fault plane did during the last run(): injection/retry
  /// counters, per-rank delivery orders, and which ranks died of
  /// comm_error. The DES reports the same fields for the same
  /// schedule, and the chaos tests compare them field for field.
  struct fault_report {
    fault_stats stats;
    std::vector<std::vector<delivery_record>> deliveries;  ///< per rank
    std::vector<int> crashed;        ///< ranks that raised comm_error
    std::uint64_t rx_discards = 0;   ///< dup/corrupt copies discarded
  };
  [[nodiscard]] const fault_report& last_fault_report() const {
    return report_;
  }

  /// The recovery control plane shared by all ranks (reset per run()).
  /// In-process only: a socket world in process mode has a board per
  /// process, so cross-process rollback recovery is not available
  /// (docs/TRANSPORTS.md § limitations).
  [[nodiscard]] recovery_board& board() { return board_; }

  /// The channel layer underneath (transport.hpp).
  [[nodiscard]] mpisim::transport& channels() { return *transport_; }
  [[nodiscard]] const char* transport_name() const {
    return transport_->name();
  }
  /// True when `rank`'s mailbox lives in this process.
  [[nodiscard]] bool rank_is_local(int rank) const {
    return transport_->is_local(rank);
  }

 private:
  friend class communicator;

  tofud_params net_;
  torus_placement place_;
  std::unique_ptr<mpisim::transport> transport_;
  std::vector<double> final_clocks_;
  std::unique_ptr<fault_plane> faults_;
  fault_report report_;
  recovery_board board_;
};

}  // namespace tfx::mpisim
