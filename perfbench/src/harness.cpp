#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double tail_percentile(std::size_t n) {
  // Percentiles in tenths, so "ten samples beyond" is exact integer
  // arithmetic: n * (100 - p) / 100 >= 10.
  for (const int tenths : {999, 990, 900, 750, 500}) {
    if (n * static_cast<std::size_t>(1000 - tenths) >= 10000) {
      return tenths / 10.0;
    }
  }
  return 0.0;
}

double percentile(std::vector<double> xs, double p, std::size_t misses) {
  const std::size_t n = xs.size() + misses;
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  const auto at = [&](std::size_t i) {
    return i < xs.size() ? xs[i] : std::numeric_limits<double>::infinity();
  };
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  if (lo == hi || frac == 0.0) return at(lo);
  if (std::isinf(at(hi))) return std::numeric_limits<double>::infinity();
  return at(lo) + (at(hi) - at(lo)) * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double parts_percentile(const std::vector<std::vector<double>>& parts, double p,
                        std::size_t misses) {
  double sum = 0;
  for (const std::vector<double>& part : parts) sum += percentile(part, p, misses);
  return sum;
}

double op_ledger::error_rate() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

std::uint64_t fnv1a(std::span<const std::byte> bytes, std::uint64_t h) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

bool oracle_ledger::check(std::string_view what, std::uint64_t want,
                          std::uint64_t got) {
  ++checks;
  if (want == got) return true;
  ++mismatches;
  char buf[64];
  std::snprintf(buf, sizeof buf, ": want %016llx got %016llx",
                static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(got));
  failures.push_back(std::string(what) + buf);
  return false;
}

namespace {

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void metric_set::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("malformed metric name: " + name);
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("malformed unit for " + name + ": " + unit);
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("metric recorded twice: " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

const metric* metric_set::find(std::string_view name) const {
  for (const metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const metric_set& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const metric& m : metrics.all()) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::int64_t span_log::add(const char* name, std::uint64_t id, double t0,
                           double t1, std::int64_t parent,
                           std::uint16_t track) {
  if (parent >= static_cast<std::int64_t>(spans_.size())) {
    throw std::out_of_range("span parent out of range");
  }
  if (parent >= 0) track = spans_[static_cast<std::size_t>(parent)].track;
  spans_.push_back({name, id, t0, t1, parent, track});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void span_log::append_events(std::vector<obs::event>& out) const {
  const std::size_t n = spans_.size();
  std::vector<std::vector<std::size_t>> kids(n);
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t p = spans_[i].parent;
    (p < 0 ? roots : kids[static_cast<std::size_t>(p)]).push_back(i);
  }
  const auto by_start = [&](std::size_t a, std::size_t b) {
    return spans_[a].t0 < spans_[b].t0;
  };
  std::stable_sort(roots.begin(), roots.end(), by_start);
  for (auto& k : kids) std::stable_sort(k.begin(), k.end(), by_start);

  const std::function<void(std::size_t)> emit = [&](std::size_t i) {
    const span& s = spans_[i];
    out.push_back({s.t0, s.name, s.id, 0, obs::kind::begin, dom_, s.track});
    for (const std::size_t k : kids[i]) emit(k);
    out.push_back({s.t1, s.name, s.id, 0, obs::kind::end, dom_, s.track});
  };
  for (const std::size_t r : roots) emit(r);
}

std::vector<layer_row> layer_table(const span_log& log) {
  const auto& spans = log.spans();
  std::vector<double> covered(spans.size(), 0.0);
  for (const span& s : spans) {
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  std::vector<layer_row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const layer_row& r) { return r.name == s.name; });
    if (it == rows.end()) {
      rows.push_back({s.name, 0, 0, 0, s.parent < 0});
      it = rows.end() - 1;
    }
    ++it->count;
    it->total_s += s.t1 - s.t0;
    it->self_s += (s.t1 - s.t0) - covered[i];
  }
  return rows;
}

double residual_fraction(const span_log& log) {
  double total = 0, self = 0;
  for (const layer_row& r : layer_table(log)) {
    if (!r.root) continue;
    total += r.total_s;
    self += r.self_s;
  }
  return total > 0 ? self / total : 0.0;
}

namespace {

/// Drop library spans whose begin or end is missing. A full ring drops
/// its newest events, so only a suffix of each stream can be cut.
std::vector<obs::event> balanced(std::vector<obs::event> events) {
  std::vector<bool> keep(events.size(), true);
  std::map<std::pair<int, int>, std::vector<std::size_t>> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::event& e = events[i];
    auto& stack = open[{static_cast<int>(e.dom), e.track}];
    if (e.what == obs::kind::begin) {
      stack.push_back(i);
    } else if (e.what == obs::kind::end) {
      if (stack.empty()) {
        keep[i] = false;
      } else {
        stack.pop_back();
      }
    }
  }
  for (const auto& [key, stack] : open) {
    for (const std::size_t i : stack) keep[i] = false;
  }
  std::vector<obs::event> out;
  out.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (keep[i]) out.push_back(events[i]);
  }
  return out;
}

}  // namespace

obs::trace_validation export_trace(const std::string& path,
                                   std::vector<obs::event> library,
                                   std::span<const span_log* const> logs) {
  std::vector<obs::event> events = balanced(std::move(library));
  for (const span_log* log : logs) log->append_events(events);
  const std::string json = obs::to_chrome_json(events, "perfbench");
  obs::trace_validation v = obs::validate_chrome_json(json);
  if (!v.ok) return v;
  std::ofstream f(path, std::ios::binary);
  f << json;
  if (!f) {
    v.ok = false;
    v.error = "cannot write " + path;
  }
  return v;
}

cpu_rotation::cpu_rotation() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
}

cpu_rotation::~cpu_rotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
}

void cpu_rotation::next(std::size_t width) {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < std::min(width, cpus_.size()); ++i) {
    CPU_SET(cpus_[(next_ + i) % cpus_.size()], &set);
  }
  ++next_;
  sched_setaffinity(0, sizeof set, &set);
}

std::size_t llc_bytes() {
  for (const int which : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long b = sysconf(which);
    if (b > 0) return static_cast<std::size_t>(b);
  }
  return 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
