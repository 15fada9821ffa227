#pragma once

/// \file workloads.hpp
/// The four workloads of the benchmark (README.md says why each one
/// exists) and what a run of them hands back to the report.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

// The benchmark is a client of every tfx module; name them unqualified.
using namespace tfx;

struct run_config {
  std::uint64_t seed = 1;
  double seconds = 10;    ///< measuring time of the run
  std::string trace_dir;  ///< where the traced run writes Chrome traces
};

/// End-to-end samples of one untraced run. Each workload times a
/// *unit* of work again and again (README.md says which). A unit may be
/// assembled from parts timed on their own: a part is short enough to
/// slip between bursts of other load on a shared host, a whole unit
/// may not be.
struct e2e_samples {
  std::vector<double> setup_s;  ///< one per repeated set-up
  /// One sample per repetition of each part; the unit is their sum.
  std::vector<std::vector<double>> parts_ms;
  double work_per_unit = 0;     ///< cell-steps, member-steps or simulated ranks
  std::size_t misses = 0;       ///< failed operations, beyond every percentile
  double peak_rss_mb = 0;       ///< read at the end of the timed window
};

/// What a run hands back: end-to-end samples (untraced) or per-layer
/// metrics (traced), the operation and oracle ledgers, and lines for
/// the human-readable report.
struct run_outcome {
  e2e_samples e2e;
  metric_set layers;
  op_ledger ops;
  oracle_ledger oracles;
  std::vector<std::string> notes;
};

/// Untraced end-to-end runs.
run_outcome run_swm_serial(const run_config& cfg);
run_outcome run_ensemble_mixed(const run_config& cfg);
run_outcome run_dist_halo(const run_config& cfg);
run_outcome run_des_fig3(const run_config& cfg);

/// Traced per-layer ledgers: an untraced pass and a traced pass of the
/// workload (their ratio is obs.overhead_frac.<workload>), plus the
/// layer probes, appended to `out`.
void trace_swm_serial(const run_config& cfg, run_outcome& out);
void trace_ensemble_mixed(const run_config& cfg, run_outcome& out);
void trace_dist_halo(const run_config& cfg, run_outcome& out);
void trace_des_fig3(const run_config& cfg, run_outcome& out);

/// Shared by the ledgers: record the layer table of `log` as notes and
/// the residual and overhead metrics of `workload`.
void report_layers(run_outcome& out, const std::string& workload,
                   const span_log& log, double traced, double untraced);

/// Export `log` with the session's library `events` to
/// <trace_dir>/<workload>.json; a trace that fails validation is noted.
void write_trace(run_outcome& out, const run_config& cfg,
                 const std::string& workload, std::vector<obs::event> events,
                 const span_log& log);

/// Ring capacity of a traced session (events per thread).
inline constexpr std::size_t trace_ring_events = std::size_t{1} << 18;

}  // namespace perfbench
