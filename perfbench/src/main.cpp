/// perfbench: the repository benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--git-sha <sha>] [--trace-dir <dir>]
///
/// --trace 0 runs one workload untraced and reports the end-to-end
/// metrics; --trace 1 runs the traced per-layer ledger of every
/// workload (the per-layer metric set spans all four) and writes one
/// Chrome trace per workload. The report is a header, a human-readable
/// table, and a last line holding one JSON object. README.md in this
/// directory maps every metric to its layer and workload.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "arch/features.hpp"
#include "kernels/dispatch.hpp"
#include "workloads.hpp"

namespace perfbench {

void report_layers(run_outcome& out, const std::string& workload,
                   const span_log& log, double traced, double untraced) {
  for (const layer_row& r : layer_table(log)) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "%s layer %-22s n=%-7zu total %10.3f ms  self %10.3f ms%s",
                  workload.c_str(), r.name.c_str(), r.count, r.total_s * 1e3,
                  r.self_s * 1e3, r.root ? "  (end to end; self = residual)" : "");
    out.notes.emplace_back(line);
  }
  out.layers.add("trace.residual_frac." + workload, residual_fraction(log), "ratio");
  out.layers.add("obs.overhead_frac." + workload, traced / untraced - 1.0, "ratio");
}

void write_trace(run_outcome& out, const run_config& cfg,
                 const std::string& workload, std::vector<obs::event> events,
                 const span_log& log) {
  const std::string path = cfg.trace_dir + "/" + workload + ".json";
  const std::uint64_t dropped = obs::dropped();
  const span_log* logs[] = {&log};
  const obs::trace_validation v = export_trace(path, std::move(events), logs);
  std::string note = workload + " trace: ";
  if (v.ok) {
    note += path + " (" + std::to_string(v.spans) + " spans, " +
            std::to_string(v.counters) + " counters, " +
            std::to_string(dropped) + " library events dropped on full rings)";
  } else {
    note += "not written, validation failed: " + v.error;
  }
  out.notes.push_back(note);
}

namespace {

const std::map<std::string, run_outcome (*)(const run_config&)> workloads = {
    {"swm-serial", run_swm_serial},
    {"ensemble-mixed", run_ensemble_mixed},
    {"dist-halo", run_dist_halo},
    {"des-fig3", run_des_fig3}};

struct args {
  std::string workload;
  run_config cfg;
  bool trace = false;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <swm-serial|"
               "ensemble-mixed|dist-halo|des-fig3> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-sha <sha>] [--trace-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  a.cfg.trace_dir = ".";
  bool seed = false, seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.cfg.seed = std::stoull(value);
        seed = true;
      } else if (key == "--seconds") {
        a.cfg.seconds = std::stod(value);
        seconds = a.cfg.seconds > 0 && std::isfinite(a.cfg.seconds);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--git-sha") {
        a.git_sha = value;
      } else if (key == "--trace-dir") {
        a.cfg.trace_dir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (workloads.count(a.workload) == 0) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!seed) usage("--seed is required");
  if (!seconds) usage("--seconds must be a positive number");
  return a;
}

void print_header(const args& a) {
  const arch::cpu_features& f = arch::host_features();
  const std::size_t llc = llc_bytes();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.cfg.seed),
              a.cfg.seconds, a.trace ? 1 : 0);
  std::printf("# host: nproc=%u isa=%s max_vector_bits=%zu\n",
              std::thread::hardware_concurrency(), std::string(f.isa).c_str(),
              f.max_vector_bits);
  std::printf("# simd width policy: active=%zu default=%zu bits\n",
              kernels::simd_width(), kernels::default_simd_width());
  std::printf("# build=%s git=%s\n", PERFBENCH_BUILD_TYPE, a.git_sha.c_str());
  std::printf("# llc=%zu MiB, triad arrays 4x llc = %zu MiB each (traced run)\n",
              llc >> 20, (4 * llc) >> 20);
}

/// The unit's spread for the table: min, p10, p25, p50 and the tail
/// (p90 when at least ten samples lie beyond it, else the highest
/// percentile above p50 that has them). Only the minimum is bounded.
void note_units(std::vector<std::string>& notes, const e2e_samples& e) {
  const std::size_t n = e.parts_ms.at(0).size() + e.misses;
  std::vector<double> ps = {0, 10, 25, 50};
  const double tail = std::min(90.0, tail_percentile(n));
  if (tail > 50) ps.push_back(tail);
  std::string line = "unit_ms: " + std::to_string(n) + " samples per part, " +
                     std::to_string(e.parts_ms.size()) + " parts:";
  for (const double p : ps) {
    const double v = parts_percentile(e.parts_ms, p, e.misses);
    char part[64];
    std::snprintf(part, sizeof part, " p%g %s", p,
                  std::isinf(v) ? "miss" : std::to_string(v).c_str());
    line += part;
  }
  notes.push_back(line + " ms");
}

metric_set end_to_end(const e2e_samples& e) {
  const double unit_ms = parts_percentile(e.parts_ms, 0);
  metric_set m;
  m.add("setup_s", median(e.setup_s), "s");
  m.add("unit_ms.min", unit_ms, "ms");
  m.add("work_per_s", e.work_per_unit / (unit_ms * 1e-3), "1/s");
  return m;
}

int run(const args& a) {
  print_header(a);
  run_outcome out;
  metric_set metrics;
  if (a.trace) {
    std::filesystem::create_directories(a.cfg.trace_dir);
    // The ledger splits the measuring time over the four workloads.
    run_config cfg = a.cfg;
    cfg.seconds = a.cfg.seconds / 4;
    trace_swm_serial(cfg, out);
    trace_ensemble_mixed(cfg, out);
    trace_dist_halo(cfg, out);
    trace_des_fig3(cfg, out);
    metrics = out.layers;
  } else {
    out = workloads.at(a.workload)(a.cfg);
    metrics = end_to_end(out.e2e);
    note_units(out.notes, out.e2e);
    out.notes.push_back("peak_rss_mb: " + std::to_string(out.e2e.peak_rss_mb) +
                        " MB (no bound)");
  }

  // Every oracle check is an operation too; a mismatch fails it.
  op_ledger& ops = out.ops;
  ops.attempted += out.oracles.checks;
  ops.failed += out.oracles.mismatches;
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  for (const std::string& f : out.oracles.failures) {
    std::printf("# ORACLE MISMATCH %s\n", f.c_str());
  }
  std::printf("# oracles: %zu checked, %zu mismatched\n", out.oracles.checks,
              out.oracles.mismatches);
  std::printf("%-40s %22.6f %s\n", "error_rate", ops.error_rate(), "ratio");
  for (const metric& m : metrics.all()) {
    std::printf("%-40s %22.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n",
              result_json(ops.failed == 0, ops.attempted, ops.failed, metrics)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::args a = perfbench::parse(argc, argv);
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
