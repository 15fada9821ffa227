#pragma once

/// \file des.hpp
/// Discrete-event execution of sim_programs.
///
/// Walks the per-rank op lists with the *same* clock-update rules the
/// threaded runtime applies (runtime.hpp header comment), moving
/// message records instead of real data: each rank's outbox holds the
/// messages it has sent that no one has received yet, in send order,
/// and a receive takes the oldest one its source addressed to it, so
/// every (src,dst) pair is FIFO. Ranks run in passes in rank order,
/// and a pass visits only ranks that can run (docs/TOPOLOGY.md § 4).
/// This is how the Fig. 3 benchmarks time collectives at 1536 ranks
/// in milliseconds of host time.
///
/// When a fault plane is supplied (faultplane.hpp), the engine applies
/// the same deterministic per-message transmission schedules as the
/// threaded runtime - retry backoff, stall/crash schedules, poisoned
/// sends - and reports the same counters, delivery orders, and crashed
/// ranks, so a chaos run is cross-checkable between the two engines at
/// thread-runnable rank counts and replayable at 1536 ranks.

#include <vector>

#include "mpisim/faultplane.hpp"
#include "mpisim/network.hpp"
#include "mpisim/patterns.hpp"

namespace tfx::mpisim {

/// How the fabric charges a message's serialization time.
enum class fabric_mode {
  /// Endpoint-port model: serialization is charged at the sender's
  /// injection port and the receiver's ejection port only; torus links
  /// never contend. Reproduces the pre-topology clocks bit-identically
  /// (the golden-clock oracle in tests/mpisim_topology_test.cpp).
  uncontended,
  /// Store-and-forward link model: an inter-node message additionally
  /// occupies every directed link of its dimension-ordered route
  /// (torus_placement::route_of) for its serialization time, FIFO per
  /// link, so hot links back up and messages overtake each other
  /// across routes of different length. Intra-node messages never
  /// touch links and keep their uncontended timing exactly.
  contended,
};

/// Simulation knobs (trailing optional argument of simulate()).
struct des_options {
  fabric_mode fabric = fabric_mode::uncontended;
};

/// Fabric occupancy counters, populated only in fabric_mode::contended.
struct link_stat_block {
  std::uint64_t routed_messages = 0;  ///< inter-node messages routed
  std::uint64_t link_hops = 0;        ///< links traversed in total
  std::uint64_t contended_hops = 0;   ///< hops that found the link busy
  double wait_seconds = 0;      ///< total virtual time queued at links
  double max_link_busy_s = 0;   ///< busiest link's total occupancy
  int max_link = -1;            ///< its id (torus_placement::link_at)
};

/// Result of simulating one program.
struct des_result {
  std::vector<double> clocks;  ///< per-rank completion times

  link_stat_block links;  ///< fabric occupancy (contended mode only)

  // -- populated only for fault-plane runs --
  fault_stats stats;  ///< injection/retry counters (sender-side plans)
  std::vector<std::vector<delivery_record>> deliveries;  ///< per rank
  std::vector<int> crashed;  ///< ranks halted by crash/poison/cascade

  /// The collective's latency as IMB reports it: the maximum over
  /// ranks (time until the slowest rank finished).
  [[nodiscard]] double max_clock() const;
  [[nodiscard]] double min_clock() const;
  [[nodiscard]] double avg_clock() const;
};

/// Execute `prog` over the modeled network. `start_clocks`, if
/// non-empty, seeds each rank's clock (e.g. to chain iterations);
/// otherwise all ranks start at 0. `faults`, if non-null and active,
/// injects the same deterministic fault schedule the threaded runtime
/// would (crashed ranks halt and cascade instead of deadlocking).
/// `opts.fabric` selects the endpoint-only or the link-contention
/// fabric (docs/TOPOLOGY.md). Aborts on deadlock (malformed program),
/// and on an op whose peer is outside [0, p) when that op executes.
/// The programs patterns.hpp captures are the collectives' own
/// schedules, so they deadlock only where the threaded runtime would.
des_result simulate(const sim_program& prog, const tofud_params& net,
                    const torus_placement& place,
                    std::vector<double> start_clocks = {},
                    const fault_plane* faults = nullptr,
                    des_options opts = {});

}  // namespace tfx::mpisim
