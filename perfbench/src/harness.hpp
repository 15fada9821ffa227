#pragma once

/// \file harness.hpp
/// The benchmark's own measurement kit: order statistics with the tail
/// rule, the failure ledger of a closed loop, the metric sink and its
/// name rules, FNV-1a oracle hashes, and the span log of the traced
/// run. Nothing here is library code and nothing here is called by the
/// library: the benchmark measures the library from outside, through
/// its public API.

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/chrome.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace obs = tfx::obs;

/// Monotonic host seconds (steady_clock), for untraced timing.
double now_s();

// -- statistics ------------------------------------------------------------

/// The highest percentile of {99.9, 99, 90, 75, 50} that leaves at
/// least ten of `n` samples beyond it (n * (1 - p/100) >= 10); 0 when
/// even the median does not (n < 20).
double tail_percentile(std::size_t n);

/// Linear-interpolated percentile (p in [0, 100]) of `xs` together
/// with `misses` failed operations that count as +inf, i.e. beyond
/// every sample. Returns +inf when p lands among the misses and NaN
/// when there is nothing to rank.
double percentile(std::vector<double> xs, double p, std::size_t misses = 0);

double median(std::vector<double> xs);

/// The p-th percentile of a unit timed in parts, each part with its own
/// samples: the parts' p-th percentiles (with `misses` beyond every
/// sample of each), summed.
double parts_percentile(const std::vector<std::vector<double>>& parts, double p,
                        std::size_t misses = 0);

/// The attempts of one kind of operation: successes with their
/// latency, and failures (rejects, failed or cancelled jobs), each of
/// which misses every latency percentile.
struct op_ledger {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> latencies;

  void ok(double latency) {
    ++attempted;
    latencies.push_back(latency);
  }
  void fail() {
    ++attempted;
    ++failed;
  }
  [[nodiscard]] double error_rate() const;
};

// -- oracles ---------------------------------------------------------------

inline constexpr std::uint64_t fnv_offset = 1469598103934665603ull;

/// FNV-1a over raw bytes, little-endian object representation (the
/// DesGolden hash of tests/mpisim_topology_test when fed doubles).
std::uint64_t fnv1a(std::span<const std::byte> bytes,
                    std::uint64_t h = fnv_offset);

template <typename T>
std::uint64_t fnv1a_of(std::span<const T> xs, std::uint64_t h = fnv_offset) {
  return fnv1a(std::as_bytes(xs), h);
}

/// Output checks, run outside the timed region. Each mismatch is a
/// failed operation of the run.
struct oracle_ledger {
  std::size_t checks = 0;
  std::size_t mismatches = 0;
  std::vector<std::string> failures;

  bool check(std::string_view what, std::uint64_t want, std::uint64_t got);
};

// -- metrics ---------------------------------------------------------------

/// `[A-Za-z0-9_.-]{1,64}`, starting with a letter or a digit.
bool valid_metric_name(std::string_view name);
/// `[A-Za-z0-9_/%.-]{1,16}`.
bool valid_unit(std::string_view unit);

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The metrics of one run, in insertion order.
class metric_set {
 public:
  /// Throws std::invalid_argument on a malformed or repeated name, a
  /// malformed unit or a non-finite value.
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<metric>& all() const { return metrics_; }
  [[nodiscard]] const metric* find(std::string_view name) const;

 private:
  std::vector<metric> metrics_;
};

/// The result line: {"correct", "attempted", "failed", "metrics"},
/// every value printed with all its digits.
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const metric_set& metrics);

// -- spans of the traced run -----------------------------------------------

/// One timed call (or an interval observed from outside, such as a
/// job's queue wait). Times are obs::host_now() seconds, the clock base
/// of the library's host-clock events in the same session.
struct span {
  const char* name = nullptr;  ///< static string (obs::event contract)
  std::uint64_t id = 0;        ///< step, job or sweep the span belongs to
  double t0 = 0;
  double t1 = 0;
  std::int64_t parent = -1;    ///< index in the same log, -1 for a root
  std::uint16_t track = 0;
};

/// In-memory span store of one recording thread. Children must lie
/// inside their parent and siblings must not overlap, which is what
/// sequential calls produce.
class span_log {
 public:
  explicit span_log(obs::domain dom) : dom_(dom) {}

  /// Record a finished span; a child inherits its parent's track.
  std::int64_t add(const char* name, std::uint64_t id, double t0, double t1,
                   std::int64_t parent = -1, std::uint16_t track = 0);

  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }

  /// Begin/end events in nesting order, ready for the Chrome exporter.
  void append_events(std::vector<obs::event>& out) const;

 private:
  obs::domain dom_;
  std::vector<span> spans_;
};

/// Per-name totals: self time is a span's duration minus the part its
/// children cover.
struct layer_row {
  std::string name;
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
  bool root = false;
};
std::vector<layer_row> layer_table(const span_log& log);

/// Root self time over root total time: the share of the end-to-end
/// spans that no layer span accounts for.
double residual_fraction(const span_log& log);

/// Merge the library's events of the session with the benchmark's
/// spans, export them through obs::to_chrome_json, validate the result
/// with obs::validate_chrome_json, and write it to `path` when valid.
/// Library spans cut short by a full ring (whose end was dropped) are
/// removed first, so a truncated session still exports balanced.
obs::trace_validation export_trace(const std::string& path,
                                   std::vector<obs::event> library,
                                   std::span<const span_log* const> logs);

// -- host ------------------------------------------------------------------

/// Pins the calling thread, and the threads it starts while pinned, to
/// CPUs of its affinity mask in turn, and restores the mask when it goes.
/// Another guest busy on the core under one CPU slows the work there by
/// a third or more, and the scheduler may leave a thread on that CPU for
/// a whole run; rotating lets a run's fastest unit see every CPU.
class cpu_rotation {
 public:
  cpu_rotation();
  ~cpu_rotation();
  cpu_rotation(const cpu_rotation&) = delete;
  cpu_rotation& operator=(const cpu_rotation&) = delete;

  /// Pin to `width` consecutive CPUs of the mask (wrapping), starting one
  /// CPU on from the last call. A refused pin leaves the mask as it is.
  void next(std::size_t width);

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};


/// Last-level cache bytes as the C library reports them (L3, else L2),
/// 0 when unknown.
std::size_t llc_bytes();

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

}  // namespace perfbench
