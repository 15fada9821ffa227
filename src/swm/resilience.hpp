#pragma once

/// \file resilience.hpp
/// Rollback recovery for the distributed shallow-water model: buddy
/// checkpoints, crash-tolerant agreement, and deterministic replay.
///
/// At the paper's 384-node scale a rank failure is an operational
/// fact; the PR-2 fault plane injects exactly such failures, and this
/// layer survives them. The discipline is classic in-memory
/// checkpoint/restart with buddy replication:
///
///  * Every K steps each rank serializes its full integration state
///    (prognostic slabs + Kahan compensation + step counter) and
///    ships it to its *buddy*, rank (r+1) % p. The exchange plus a
///    commit-vote allreduce forms a two-phase commit: the vote cannot
///    complete anywhere until every rank holds both its own and its
///    left neighbour's prepared snapshot, so "any rank committed
///    epoch e" implies "every rank prepared epoch e" - the invariant
///    recovery leans on (resilient_session::promote_to).
///
///  * When the step loop raises comm_error (dead neighbour, exhausted
///    retries) or numerical_error (the health sentinel, treated like a
///    crash), every rank converges on the world's recovery_board
///    (mpisim/runtime.hpp) - a shared control plane that agrees on the
///    casualty set via generation-keyed abortable barriers, tolerating
///    further deaths at any point of the round. Survivors then run the
///    agreement collective (agree_max over a survivors_of
///    sub-communicator) for the newest globally committed epoch, each
///    casualty is re-seeded with its slab from its buddy's replica,
///    everyone rolls back, re-replicates, and re-executes.
///
///  * Replay is bit-deterministic: the fault plane's draws are pure
///    functions of (seed, channel, sequence, attempt), sequence
///    counters never rewind, and every interruption point is itself a
///    deterministic function of the schedule (sends are eager, so the
///    messages a rank deposited before dying do not depend on thread
///    timing). tests/swm_recovery_test pins the recovered final state
///    bit-for-bit against the fault-free oracle.
///
/// Unrecoverable situations surface as comm_error with
/// reason::unrecoverable on every rank (never a hang): a rank and its
/// buddy dying together (the replica died with its holder), no
/// committed epoch surviving, or the round budget running out.
/// Scheduled crashes, health-sentinel hits, and exhausted retry
/// budgets are recovered; tune retry_policy generously when chaos
/// probabilities are on, since a retry failure fail-stops the sender.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/patterns.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/subcomm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "swm/distributed.hpp"
#include "swm/health.hpp"
#include "swm/tags.hpp"

namespace tfx::swm {

/// Tag space of the resilience layer (swm/tags.hpp band table: below
/// the collectives' 1<<20, above the model's halo tags).
inline constexpr int checkpoint_tag = tags::checkpoint;    ///< buddy prepare
inline constexpr int transfer_tag = tags::transfer;        ///< buddy re-seed
inline constexpr int recovery_tag_offset = tags::recovery;

/// Transient-corruption injection for tests: right after completing
/// `step`, rank `rank` has a NaN written into its surface height -
/// once per session, so the post-rollback replay runs clean.
struct soft_fault {
  int step = -1;
  int rank = -1;
  [[nodiscard]] bool enabled() const { return step >= 0 && rank >= 0; }
};

/// Knobs of a resilient run.
struct resilience_options {
  int checkpoint_interval = 8;  ///< K: commit every K steps (>= 1)
  int health_interval = 0;      ///< H: sentinel scan cadence (0 = off;
                                ///< K % H must be 0 so no poisoned
                                ///< state can reach a commit)
  soft_fault inject;            ///< test-only NaN injection
  int max_rounds = 64;          ///< recovery rounds before giving up
};

/// What a resilient run did, per rank.
struct recovery_report {
  int rounds = 0;          ///< successful recovery rounds
  int aborted_rounds = 0;  ///< round attempts aborted by further deaths
  std::vector<int> casualties;  ///< every death reported (history)
  int replayed_steps = 0;       ///< steps re-executed after rollbacks
  std::uint64_t commits = 0;    ///< committed epochs (incl. initial)
  std::uint64_t final_epoch = 0;
  /// sends_posted() at the entry of each commit; probe runs use these
  /// to aim a crash *inside* a commit's message window.
  std::vector<std::uint64_t> commit_marks;
  /// sends_posted() when this rank first entered recovery; probe runs
  /// use it to aim a second crash *inside* a recovery round.
  std::uint64_t recovery_entry_mark = 0;
};

/// The send index halfway through commit window `window` (the steps
/// between commits `window` and `window + 1`) of a probe run's report.
/// The probe must carry every crash that fires before this one (a
/// silent probe for a first crash): it then posts the real run's sends
/// up to the aimed index, so the crash lands in that window under any
/// message schedule. A raw send index drifts whenever a step's message
/// count changes.
[[nodiscard]] inline std::uint64_t mid_window_send(
    const recovery_report& probe, std::size_t window) {
  TFX_EXPECTS(window + 1 < probe.commit_marks.size());
  const std::uint64_t begin = probe.commit_marks[window];
  return begin + (probe.commit_marks[window + 1] - begin) / 2;
}

/// The checkpoint commit as a DES event program: the buddy-ring
/// exchange of `message_bytes`, then the 1-byte commit-vote allreduce.
/// The vote is captured from the allreduce's own code
/// (make_allreduce_program); the two-op ring is written by hand after
/// resilient_session::checkpoint_commit, which sends model state
/// through the concrete communicator. tests/swm_recovery_test pins the
/// virtual clocks of the two against each other.
mpisim::sim_program make_checkpoint_program(const mpisim::tofud_params& net,
                                            int p,
                                            std::size_t message_bytes);

/// One resilient integration: drives a distributed_model through
/// `total_steps` RK4 steps, surviving fault-plane crashes, exhausted
/// retry budgets, and health-sentinel hits via buddy-checkpoint
/// rollback. Requires an active fault plane when p > 1 (the recovery
/// wire protocol rides on crash notices).
template <typename T>
class resilient_session {
 public:
  static constexpr std::size_t header_bytes = 16;  ///< u64 epoch, i64 steps

  resilient_session(mpisim::communicator& comm, distributed_model<T>& model,
                    resilience_options opt)
      : comm_(comm), model_(model), opt_(opt) {
    TFX_EXPECTS(opt_.checkpoint_interval >= 1);
    TFX_EXPECTS(opt_.max_rounds >= 1);
    // K-boundaries must be a subset of H-boundaries: the sentinel then
    // provably runs before every commit, so a non-finite state can
    // never enter a prepared checkpoint.
    TFX_EXPECTS(opt_.health_interval == 0 ||
                opt_.checkpoint_interval % opt_.health_interval == 0);
  }

  /// Wire size of one snapshot message (header + packed slab image).
  /// Snapshots travel between ranks whose slab heights can differ
  /// under an uneven decomposition, so the size follows the image's
  /// *owner* - the rank whose state the snapshot captures.
  [[nodiscard]] std::size_t message_bytes_of(int owner) const {
    return header_bytes + model_.packed_size_of(owner) * sizeof(T);
  }

  /// Wire size of this rank's own snapshot message.
  [[nodiscard]] std::size_t message_bytes() const {
    return message_bytes_of(comm_.rank());
  }

  /// Run to `total_steps`, recovering as needed; collective.
  recovery_report run(int total_steps) {
    TFX_EXPECTS(total_steps >= 0);
    const int p = comm_.size();
    // The recovery wire protocol needs crash notices, which only the
    // fault-plane path produces; single-rank runs have no peers and
    // recover purely locally.
    TFX_EXPECTS(p == 1 || comm_.fault_plane_active());
    report_ = recovery_report{};

    for (;;) {
      if (p > 1 && board().abandoned()) {
        throw unrecoverable("a peer abandoned recovery");
      }
      try {
        if (!initialized_) {
          checkpoint_commit();  // epoch 1: replicate the initial state
          initialized_ = true;
        }
        while (model_.steps_taken() < total_steps) {
          model_.step();
          const int s = model_.steps_taken();
          maybe_inject(s);
          if (opt_.health_interval > 0 && s % opt_.health_interval == 0) {
            model_.check_health();
          }
          if (s % opt_.checkpoint_interval == 0) checkpoint_commit();
        }
        if (p == 1) break;
        if (board().park() == mpisim::recovery_board::park_result::all_done) {
          break;
        }
        run_recovery();
      } catch (const numerical_error&) {
        trace("err:numerical");
        if (p == 1) {
          TFX_EXPECTS(committed_local_.valid);
          restore_committed();
          continue;
        }
        // The sentinel treats corruption like a crash: fail-stop (the
        // notice wakes the peers), report the death, forget the
        // poisoned state - the buddy re-seeds us.
        comm_.fail_stop();
        board().report_death(comm_.rank());
        wipe();
        run_recovery();
      } catch (const mpisim::comm_error& e) {
        trace("err:comm", comm_.self_fail_stopped() ? 1 : 0);
        if (e.why() == mpisim::comm_error::reason::unrecoverable) throw;
        if (comm_.self_fail_stopped()) {
          // Scheduled crash or own send's retries exhausted: this rank
          // is the casualty. Its memory is gone by definition.
          board().report_death(comm_.rank());
          wipe();
        }
        run_recovery();
      }
    }
    report_.casualties = p > 1 ? board().casualties() : std::vector<int>{};
    report_.final_epoch = next_epoch_ - 1;
    return report_;
  }

  /// One two-phase buddy checkpoint commit at the current state;
  /// collective. Public so the DES cross-pin test can drive a bare
  /// commit and compare virtual clocks with make_checkpoint_program.
  void checkpoint_commit() {
    // The two-phase commit as a resil-domain span on the virtual
    // clock: a = the epoch being committed, b = the model step it
    // snapshots. Closes during unwinding too, so a commit a casualty
    // dies inside still leaves balanced B/E pairs in the trace.
    const obs::scoped_vspan commit_span(
        obs::domain::resil, static_cast<std::uint16_t>(comm_.rank()),
        "ckpt.commit", [this] { return comm_.now(); }, next_epoch_,
        static_cast<std::uint64_t>(model_.steps_taken()));
    trace("commit:enter", next_epoch_, comm_.sends_posted());
    report_.commit_marks.push_back(comm_.sends_posted());
    snapshot snap;
    snap.valid = true;
    snap.epoch = next_epoch_;
    snap.steps = model_.steps_taken();
    snap.data.resize(model_.packed_size());
    model_.pack_state(std::span<T>(snap.data));

    const int p = comm_.size();
    if (p == 1) {
      committed_local_ = std::move(snap);
      ++next_epoch_;
      ++report_.commits;
      return;
    }
    const int r = comm_.rank();
    // Phase 1 (prepare): ring exchange - my snapshot to my buddy, my
    // left neighbour's snapshot to me.
    pending_local_ = std::move(snap);
    send_snapshot(pending_local_, (r + 1) % p, checkpoint_tag);
    pending_remote_ =
        recv_snapshot((r - 1 + p) % p, checkpoint_tag, (r - 1 + p) % p);
    TFX_EXPECTS(pending_remote_.epoch == next_epoch_);
    // Phase 2 (vote): the allreduce doubles as the commit decision. It
    // cannot complete on any rank until every rank contributed, and a
    // rank only contributes after finishing its prepare - so "anyone
    // committed e" implies "everyone prepared e".
    std::uint8_t ready = 1, all_ready = 0;
    mpisim::allreduce(comm_, std::span<const std::uint8_t>(&ready, 1),
                      std::span<std::uint8_t>(&all_ready, 1),
                      mpisim::ops::min{},
                      mpisim::coll_algorithm::recursive_doubling);
    committed_local_ = std::move(pending_local_);
    pending_local_.valid = false;
    committed_remote_ = std::move(pending_remote_);
    pending_remote_.valid = false;
    ++next_epoch_;
    ++report_.commits;
  }

 private:
  struct snapshot {
    bool valid = false;
    std::uint64_t epoch = 0;
    std::int64_t steps = 0;
    std::vector<T> data;
  };

  [[nodiscard]] mpisim::recovery_board& board() { return comm_.board(); }

  /// Protocol trace: every session-level protocol step becomes a
  /// resil-domain instant on the rank's virtual clock when the
  /// observability plane is live (the `what` strings double as event
  /// names - all string literals, so the no-ownership contract of
  /// obs::event holds), and TFX_RECOVERY_TRACE=1 additionally streams
  /// it to stderr for debugging hangs.
  void trace(const char* what, std::uint64_t a = 0, std::uint64_t b = 0) {
    if (obs::active()) {
      obs::instant_at(obs::domain::resil,
                      static_cast<std::uint16_t>(comm_.rank()), what,
                      comm_.now(), a, b);
      obs::metric_add("resil.events");
    }
    static const bool on = std::getenv("TFX_RECOVERY_TRACE") != nullptr;
    if (!on) return;
    std::fprintf(stderr, "[rank %d] %s %llu %llu\n", comm_.rank(), what,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
  }

  [[nodiscard]] static mpisim::comm_error unrecoverable(
      const std::string& what) {
    return mpisim::comm_error(mpisim::comm_error::reason::unrecoverable, -1,
                              "recovery: " + what);
  }

  void send_snapshot(const snapshot& s, int dst, int tag) {
    const std::size_t payload = s.data.size() * sizeof(T);
    std::vector<std::byte> buf(header_bytes + payload);
    std::memcpy(buf.data(), &s.epoch, 8);
    std::memcpy(buf.data() + 8, &s.steps, 8);
    std::memcpy(buf.data() + header_bytes, s.data.data(), payload);
    comm_.send_bytes(buf, dst, tag);
  }

  /// Receive `owner`'s snapshot from `src` (owner != src during a
  /// recovery transfer, where the buddy returns MY snapshot to me).
  [[nodiscard]] snapshot recv_snapshot(int src, int tag, int owner) {
    const std::size_t elems = model_.packed_size_of(owner);
    std::vector<std::byte> buf(header_bytes + elems * sizeof(T));
    comm_.recv_bytes(buf, src, tag);
    snapshot s;
    s.valid = true;
    std::memcpy(&s.epoch, buf.data(), 8);
    std::memcpy(&s.steps, buf.data() + 8, 8);
    s.data.resize(elems);
    std::memcpy(s.data.data(), buf.data() + header_bytes,
                elems * sizeof(T));
    return s;
  }

  void maybe_inject(int step_just_done) {
    if (!opt_.inject.enabled() || injected_) return;
    if (comm_.rank() != opt_.inject.rank) return;
    if (step_just_done != opt_.inject.step) return;
    injected_ = true;  // once per session: the replay runs clean
    model_.prognostic_slabs().eta(0, 0) =
        T(std::numeric_limits<double>::quiet_NaN());
  }

  /// Roll the model back to the newest committed epoch.
  void restore_committed() {
    TFX_EXPECTS(committed_local_.valid);
    const int back = static_cast<int>(committed_local_.steps);
    const int cur = model_.steps_taken();
    trace("rollback", static_cast<std::uint64_t>(back),
          static_cast<std::uint64_t>(cur > back ? cur - back : 0));
    if (cur > back) report_.replayed_steps += cur - back;
    model_.restore_packed(std::span<const T>(committed_local_.data), back);
  }

  /// This rank died: its process memory is gone. Zero the model state
  /// and drop every snapshot it held (its own *and* the replica it
  /// kept for its left neighbour), so recovery must genuinely re-seed
  /// it over the wire.
  void wipe() {
    const std::vector<T> zeros(model_.packed_size(), T{});
    model_.restore_packed(std::span<const T>(zeros), 0);
    committed_local_.valid = false;
    pending_local_.valid = false;
    committed_remote_.valid = false;
    pending_remote_.valid = false;
  }

  /// Lift `epoch` from prepared to committed on this rank. Safe by the
  /// commit-vote invariant: the agreement only ever names an epoch
  /// whose vote completed somewhere, hence one this rank prepared.
  void promote_to(std::uint64_t epoch) {
    auto lift = [&](snapshot& committed, snapshot& pending,
                    const char* which) {
      if (committed.valid && committed.epoch == epoch) return;
      if (pending.valid && pending.epoch == epoch) {
        committed = std::move(pending);
        pending.valid = false;
        return;
      }
      throw unrecoverable(std::string("epoch ") + std::to_string(epoch) +
                          " was never prepared here (" + which +
                          "): two-phase-commit invariant broken");
    };
    lift(committed_local_, pending_local_, "own slab");
    lift(committed_remote_, pending_remote_, "buddy replica");
  }

  /// Converge with every other rank on one recovery round and see it
  /// through; returns after a round completes. Further deaths abort
  /// the round (a barrier fails or recovery messaging throws) and it
  /// restarts under the grown casualty set.
  void run_recovery() {
    if (report_.recovery_entry_mark == 0) {
      report_.recovery_entry_mark = comm_.sends_posted();
    }
    for (;;) {
      if (board().abandoned()) {
        throw unrecoverable("a peer abandoned recovery");
      }
      if (report_.rounds + report_.aborted_rounds >= opt_.max_rounds) {
        throw unrecoverable("round budget exhausted after " +
                            std::to_string(report_.aborted_rounds) +
                            " aborts");
      }
      const auto round = board().begin_round();
      trace("round:begin", round.generation, round.dead.size());
      // Wake peers blocked in receives; everyone converges here.
      comm_.announce_recovery();
      if (!board().arrive(0, round.generation)) {
        trace("round:abort-barrier0", round.generation);
        ++report_.aborted_rounds;
        continue;
      }
      // All ranks are inside the round: stale traffic (undelivered
      // halo rows, crash notices, poisons) can be discarded safely.
      comm_.drain_mailbox();
      if (!board().arrive(1, round.generation)) {
        trace("round:abort-barrier1", round.generation);
        ++report_.aborted_rounds;
        continue;
      }
      // Nobody sends recovery messages until every mailbox is clean.
      try {
        recover_round(round);
      } catch (const mpisim::comm_error& e) {
        trace("round:abort-error", round.generation,
              comm_.self_fail_stopped() ? 1 : 0);
        if (e.why() == mpisim::comm_error::reason::unrecoverable) throw;
        ++report_.aborted_rounds;
        if (comm_.self_fail_stopped()) {
          board().report_death(comm_.rank());
          wipe();
        } else {
          // A mid-round failure implies a real death whose report is
          // on its way (or already landed); wait for the generation to
          // move before re-entering, so this rank cannot double-arrive
          // at the barriers of the generation it already joined.
          board().await_generation_past(round.generation);
        }
        continue;
      }
      if (!board().complete_round(round.generation)) {
        trace("round:abort-complete", round.generation);
        ++report_.aborted_rounds;
        continue;
      }
      trace("round:done", round.generation);
      comm_.mark_recovered();
      ++report_.rounds;
      return;
    }
  }

  /// The body of one recovery round (both barriers already passed).
  void recover_round(const mpisim::recovery_board::round_info& round) {
    const int p = comm_.size();
    const std::vector<int>& dead = round.dead;
    auto contains = [&](int r) {
      return std::find(dead.begin(), dead.end(), r) != dead.end();
    };
    // A casualty and its buddy dying together lose the replica: every
    // rank knows the same casualty set, so every rank throws the same
    // verdict - a consistent, loud failure instead of a hang.
    for (const int d : dead) {
      if (contains((d + 1) % p)) {
        throw unrecoverable("rank " + std::to_string(d) + " and its buddy " +
                            std::to_string((d + 1) % p) +
                            " died together: the buddy replica is lost");
      }
    }
    const bool i_am_dead = contains(comm_.rank());
    std::uint64_t target = 0;
    if (!i_am_dead) {
      // Crash-tolerant agreement over the survivors: the newest epoch
      // any survivor committed. Deaths mid-agreement raise comm_error
      // ("agree: ...") and abort the round.
      trace("agree:enter", committed_local_.valid ? committed_local_.epoch : 0);
      auto survivors = mpisim::survivors_of(
          comm_, std::span<const int>(dead), recovery_tag_offset);
      target = mpisim::agree_max(
          survivors, committed_local_.valid ? committed_local_.epoch : 0);
      trace("agree:done", target);
      if (target == 0) {
        throw unrecoverable("no globally committed epoch survives");
      }
      promote_to(target);
    }
    // Re-seed each casualty from its buddy's replica (the casualty
    // itself learns the target epoch from the message header).
    for (const int d : dead) {
      const int buddy = (d + 1) % p;
      if (comm_.rank() == buddy) {
        TFX_EXPECTS(committed_remote_.valid &&
                    committed_remote_.epoch == target);
        trace("xfer:send", static_cast<std::uint64_t>(d));
        send_snapshot(committed_remote_, d, transfer_tag);
      } else if (comm_.rank() == d) {
        trace("xfer:wait", static_cast<std::uint64_t>(buddy));
        committed_local_ = recv_snapshot(buddy, transfer_tag, comm_.rank());
        target = committed_local_.epoch;
        trace("xfer:got", target);
      }
    }
    // Everyone rolls back to the agreed epoch and immediately
    // re-replicates it as a fresh epoch: the casualties' wiped stores
    // are rebuilt, closing the window where a second failure would
    // find no replica. (Deterministic: a re-replicated epoch's content
    // is a pure function of the committed epoch it was rolled back
    // to, so retries of an aborted round rebuild identical bits.)
    restore_committed();
    next_epoch_ = target + 1;
    checkpoint_commit();
  }

  mpisim::communicator& comm_;
  distributed_model<T>& model_;
  resilience_options opt_;
  recovery_report report_;
  snapshot committed_local_, pending_local_;    ///< my own state
  snapshot committed_remote_, pending_remote_;  ///< left neighbour's
  std::uint64_t next_epoch_ = 1;  ///< 0 is reserved for "nothing committed"
  bool initialized_ = false;
  bool injected_ = false;
};

/// Convenience wrapper: run a resilient integration, poisoning the
/// recovery board on an unrecoverable exit so no peer waits forever.
template <typename T>
recovery_report run_resilient(mpisim::communicator& comm,
                              distributed_model<T>& model, int total_steps,
                              const resilience_options& opt = {}) {
  resilient_session<T> session(comm, model, opt);
  try {
    return session.run(total_steps);
  } catch (...) {
    if (comm.size() > 1) comm.board().abandon();
    throw;
  }
}

}  // namespace tfx::swm
