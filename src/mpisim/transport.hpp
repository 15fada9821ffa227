#pragma once

/// \file transport.hpp
/// The pluggable channel layer under the message-passing runtime.
///
/// runtime.hpp's communicator implements MPI-shaped semantics - tagged
/// matching, virtual-time accounting, the reliability protocol
/// (seq/checksum/retry/dedup), crash notices - entirely in terms of
/// the small interface below: deposit a framed message at a
/// destination rank, collect a matched one, broadcast a crash, drain a
/// mailbox. Everything above the seam (collectives, fault plane,
/// rollback recovery, halo engine, obs vocabulary) is
/// transport-agnostic and runs unchanged over every implementation;
/// tests/mpisim_transport_test replays the bit-identity, chaos, and
/// recovery suites over each of them and checks payloads, packed model
/// states (Kahan compensation bits included), virtual clocks and fault
/// bookkeeping against recorded golden hashes.
///
/// Implementations (the MTCL-style handle/manager/protocol split:
/// one manager, named protocols, uniform handles):
///   * shm       - in-process shared-memory channels: per-(src,dst)
///     FIFO queues with per-destination wakeup, the layout a real
///     shared-memory ring transport uses. The default.
///   * socket    - real TCP over loopback or a LAN
///     (socket_transport.hpp): length-prefixed frames, a
///     listener/connector handshake, typed comm_error on
///     connect/accept/peer-loss. Ranks may live in one process
///     (threads, as always) or in separate processes running the
///     same binary - socket_options::rank selects process mode.
///
/// Virtual time is *not* a transport property: the LogGP clock rules
/// live in the communicator and charge identical costs over every
/// transport, which is what makes cross-transport runs bit-identical
/// (docs/TRANSPORTS.md § timing).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mpisim/faultplane.hpp"

namespace tfx::mpisim {

/// Matching wildcards (MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr int any_source = -1;
inline constexpr int any_tag = -1;

/// What a framed message *is* - ordinary payload or a control notice.
enum class msg_kind : std::uint8_t {
  payload,         ///< ordinary data (possibly a corrupted/dup copy)
  send_failed,     ///< sender exhausted retries; poisons the matcher
  crash_notice,    ///< source rank died; matches any tag from it
  transport_down,  ///< the channel itself failed (socket peer loss,
                   ///< truncated frame); payload carries the reason
};

/// One framed message as it crosses the channel layer. The socket
/// transport serializes exactly these fields (plus a frame header)
/// onto the wire; in-process transports move the struct itself.
struct wire_message {
  int source = 0;
  int tag = 0;
  double depart_vtime = 0;
  std::vector<std::byte> payload;
  std::uint64_t seq = 0;
  std::uint64_t checksum = 0;
  msg_kind kind = msg_kind::payload;
  std::uint32_t epoch = 0;  ///< run fence (socket transport only)
};

/// Abstract channel layer: moves wire_messages between ranks. All
/// entry points are thread-safe (each rank thread calls into its own
/// mailbox; senders deposit into any). Matching semantics are part of
/// the contract, identical across implementations:
///  * collect: first queued (source, tag) match in per-channel FIFO
///    order; a transport_down notice from the awaited source matches
///    when no payload does (and stays queued - the channel is gone).
///  * collect_faulty: payload/send_failed win over notices; among
///    matching payloads the lowest sequence number (ties: lowest
///    source) is taken first, so reordered queues deliver per-stream
///    in order. Notices stay queued and poison every later collect.
class transport {
 public:
  virtual ~transport() = default;

  /// Registry name ("shm", "socket").
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// World size (all processes together).
  [[nodiscard]] virtual int ranks() const noexcept = 0;

  /// True when `rank`'s mailbox lives in this process. In-process
  /// transports host every rank; a socket transport in process mode
  /// hosts exactly one.
  [[nodiscard]] virtual bool is_local(int rank) const noexcept {
    return rank >= 0 && rank < ranks();
  }
  [[nodiscard]] virtual int local_rank_count() const noexcept {
    return ranks();
  }

  /// Fence a new run: discard every undelivered message of previous
  /// runs (including ones still in flight on a wire).
  virtual void reset() = 0;

  /// Deliver `msg` into `dst`'s mailbox; `front` jumps the queue (the
  /// fault plane's reorder injection). `dst` may be remote.
  virtual void deposit(int dst, wire_message msg, bool front = false) = 0;

  /// Blocking matched receive from local rank `dst`'s mailbox
  /// (vanilla-path semantics above).
  [[nodiscard]] virtual wire_message collect(int dst, int src, int tag) = 0;

  /// Blocking matched receive, fault-plane semantics above.
  [[nodiscard]] virtual wire_message collect_faulty(int dst, int src,
                                                    int tag) = 0;

  /// Deposit a crash notice from `source` into every other mailbox,
  /// local and remote.
  virtual void broadcast_crash(int source, double vtime) = 0;

  /// Discard every message queued for local rank `dst` (the recovery
  /// round's mailbox drain).
  virtual void drain(int dst) = 0;
};

/// Selector for the built-in protocols. The values are stable
/// identifiers: logs and parameterized test names print them.
enum class transport_kind : std::uint8_t { shm = 1, socket = 2 };

/// Deployment descriptor of the socket transport.
struct socket_options {
  /// This process's rank, or -1 to host every rank in-process
  /// (threads over loopback TCP - the conformance-suite mode).
  int rank = -1;
  std::string host = "127.0.0.1";  ///< coordinator (rank 0) address
  /// Coordinator listen port. 0 picks an ephemeral port, which only
  /// works in-process; separate processes must agree on a real one.
  int port = 0;
  /// Real-time connect retry/backoff: attempt n sleeps
  /// backoff_delay_seconds(timeout_s, backoff, n) before retrying, the
  /// same policy shape (and the same schedule function) the
  /// reliability layer uses for retransmissions. Exhaustion raises
  /// comm_error{transport_lost}. The default budget totals ~8.5 real
  /// seconds; handshake accept/read deadlines derive from it.
  retry_policy connect{0.05, 1.5, 10};
};

/// How a world should move its bytes.
struct transport_options {
  transport_kind kind = transport_kind::shm;
  socket_options socket;  ///< consulted only when kind == socket
};

/// The manager: name registry + factory (MTCL's Manager::getHandle
/// split into parse + make; the world owns the returned protocol).
class transport_manager {
 public:
  /// "shm" | "socket" | "tcp" -> kind; throws std::invalid_argument
  /// on anything else.
  [[nodiscard]] static transport_kind parse(std::string_view name);
  [[nodiscard]] static const char* name_of(transport_kind kind) noexcept;

  /// Build a transport hosting `ranks` ranks. Socket construction
  /// performs the listener/connector handshake and throws a typed
  /// comm_error{transport_lost} when it cannot be established.
  [[nodiscard]] static std::unique_ptr<transport> make(
      int ranks, const transport_options& options = {});

  /// True when loopback TCP works in this environment (some sandboxes
  /// forbid it; socket tests self-skip on false).
  [[nodiscard]] static bool loopback_available() noexcept;
};

namespace detail {

/// Per-destination matched mailbox over per-source FIFO channels: the
/// store shared by the shm and socket transports. One mutex + one
/// condition variable per destination; senders lock only their
/// target's store.
class channel_store {
 public:
  void configure(int ranks);
  /// Discard queued messages with epoch < `epoch` (0 discards all).
  void purge_below(std::uint32_t epoch);
  void clear() { purge_below(~std::uint32_t{0}); }
  /// Like purge_below, but also *remembers* `epoch`: every later
  /// deposit carrying a smaller epoch is dropped on the floor, under
  /// the same lock as the purge. This is the fence an asynchronous
  /// transport needs - a socket rx thread racing a recovery drain
  /// cannot slip a pre-drain frame into the drained mailbox, because
  /// the stale-epoch check and the purge are atomic here. The shm
  /// transport never raises the floor (its deposits are synchronous),
  /// so its epoch-0 messages always pass.
  void raise_floor(std::uint32_t epoch);
  void deposit(wire_message msg, bool front);
  [[nodiscard]] wire_message collect(int src, int tag);
  [[nodiscard]] wire_message collect_faulty(int src, int tag);

 private:
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::uint32_t floor_ = 0;  ///< deposits below this epoch are dropped
  /// Per source, in FIFO order. Vectors rather than deques: erasing
  /// keeps the capacity, so a warm store stops allocating, where a
  /// deque frees and re-allocates a block whenever its front crosses
  /// one - an allocation count that would vary with thread timing.
  std::vector<std::vector<wire_message>> chan_;
};

}  // namespace detail

}  // namespace tfx::mpisim
