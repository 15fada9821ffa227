/// ensemble-mixed: batches of 64 jobs against an async ensemble::engine
/// with two stepping threads. Native members (Float64, Float32,
/// Float64/comp) alternate between 64x32 and 128x64; every 16th job is
/// a soft-float Float16-compensated 32x16 member. Two grid sizes
/// exercise tile pricing, and the soft share uses the same engine
/// differently: a fix that helps native jobs by taxing soft ones shows.

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "core/rng.hpp"
#include "ensemble/engine.hpp"
#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "obs/trace.hpp"
#include "swm/model.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tfx::ensemble;

constexpr int in_flight = 64;  ///< jobs per batch
constexpr int steps_per_job = 5;
/// Timed batches of each engine. The engine keeps every job_result for
/// its lifetime, so a fixed count keeps peak RSS from following speed.
constexpr int batches_per_engine = 6;
/// Engines of a run at least; more follow until the window ends.
constexpr int min_engines = 2;
constexpr std::size_t oracle_samples_per_engine = 2;
/// Batches each pass of the traced ledger runs at least.
constexpr std::size_t ledger_batches = 2;
/// The generator's pause between poll sweeps: the latency resolution,
/// and what keeps a third thread from spinning on the engine mutex.
constexpr auto poll_pause = std::chrono::microseconds(200);

bool is_soft(std::uint64_t k) { return k % 16 == 15; }

/// The k-th job of the stream seeded by `seed`. Its place in its batch
/// sets its shape, so every batch is the same mix.
member_config job_config(std::uint64_t seed, std::uint64_t k) {
  member_config c;
  c.steps = steps_per_job;
  c.seed = derive_stream(seed, k);
  if (is_soft(k)) {
    c.prec = personality::float16;
    c.nx = 32;
    c.ny = 16;
    c.log2_scale = 8;
    return c;
  }
  static constexpr personality natives[] = {
      personality::float64, personality::float32, personality::float64_comp};
  const std::uint64_t j = k % in_flight;
  c.prec = natives[j % 3];
  c.nx = j % 2 == 0 ? 64 : 128;
  c.ny = c.nx / 2;
  return c;
}

/// The standalone oracle recipe (job.hpp): the same config through the
/// plain model API, compared on prognostic and Kahan bits.
template <typename T>
std::uint64_t standalone_hash(const member_config& cfg,
                              swm::integration_scheme scheme) {
  swm::swm_params p;
  p.nx = cfg.nx;
  p.ny = cfg.ny;
  p.log2_scale = cfg.log2_scale;
  fp::ftz_guard guard(cfg.ftz);
  swm::model<T> m(p, scheme);
  m.seed_random_eddies(cfg.seed, cfg.velocity_amplitude);
  m.run(cfg.steps);
  const swm::model<T>& done = m;
  std::uint64_t h = fnv_offset;
  for (const auto* s : {&done.prognostic(), &done.compensation()}) {
    const auto d = swm::convert_state<double>(*s);
    h = fnv1a_of(d.u.flat(), h);
    h = fnv1a_of(d.v.flat(), h);
    h = fnv1a_of(d.eta.flat(), h);
  }
  return h;
}

std::uint64_t standalone_hash(const member_config& cfg) {
  using swm::integration_scheme;
  switch (cfg.prec) {
    case personality::float64:
      return standalone_hash<double>(cfg, integration_scheme::standard);
    case personality::float64_comp:
      return standalone_hash<double>(cfg, integration_scheme::compensated);
    case personality::float32:
      return standalone_hash<float>(cfg, integration_scheme::standard);
    case personality::float16:
      return standalone_hash<fp::float16>(cfg, integration_scheme::compensated);
    default:
      return 0;
  }
}

std::uint64_t result_hash(const job_result& r) {
  std::uint64_t h = fnv_offset;
  for (const auto* s : {&r.prognostic, &r.compensation}) {
    h = fnv1a_of(s->u.flat(), h);
    h = fnv1a_of(s->v.flat(), h);
    h = fnv1a_of(s->eta.flat(), h);
  }
  return h;
}

/// One in-flight job as the generator sees it.
struct slot {
  job_id id = invalid_job;
  std::uint64_t k = 0;
  double submitted = 0;   ///< host time the submit call began
  double submit_end = 0;
  double running = -1;    ///< first poll that saw it running or past
};

struct finished_job {
  job_id id = invalid_job;
  std::uint64_t k = 0;
};

/// Everything the batches of one engine measure. Latencies in ms.
struct loop_stats {
  op_ledger jobs;
  std::vector<double> native_ms, soft_ms, queue_ms, submit_us, poll_us;
  std::vector<double> backlog_s;
  std::vector<finished_job> done;
};

/// The generator: submits a batch of jobs, one per slot, and polls every
/// job in flight until all are terminal, recording each one's own
/// completion. With `log` set, every job is a root span on its slot's
/// track with its submit, queue, run and final poll as children (times
/// on the obs session clock).
class generator {
 public:
  generator(engine& eng, std::uint64_t seed) : eng_(eng), seed_(seed) {}

  /// Submit a job in every slot.
  void fill(std::vector<slot>& slots, loop_stats& st, span_log* log) {
    for (slot& s : slots) submit(s, st, log);
  }

  /// Poll until every slot's job is terminal.
  void drain(std::vector<slot>& slots, loop_stats& st, span_log* log) {
    for (;;) {
      bool open = false;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        visit(slots[i], static_cast<std::uint16_t>(100 + i), st, log);
        open = open || slots[i].id != invalid_job;
      }
      if (log != nullptr) st.backlog_s.push_back(eng_.backlog_seconds());
      if (!open) return;
      std::this_thread::sleep_for(poll_pause);
    }
  }

  /// One batch, filled and drained; its wall time in ms.
  double batch(std::vector<slot>& slots, loop_stats& st, span_log* log) {
    const double t0 = clock(log);
    fill(slots, st, log);
    drain(slots, st, log);
    return (clock(log) - t0) * 1e3;
  }

 private:
  double clock(span_log* log) const {
    return log != nullptr ? obs::host_now() : now_s();
  }

  void submit(slot& s, loop_stats& st, span_log* log) {
    const std::uint64_t k = next_k_++;
    const member_config cfg = job_config(seed_, k);
    const double t0 = clock(log);
    const submit_ticket t = eng_.submit(cfg);
    const double t1 = clock(log);
    if (log != nullptr) st.submit_us.push_back((t1 - t0) * 1e6);
    if (!t.ok()) {
      st.jobs.fail();  // an admission reject misses every percentile
      s = slot{};
      return;
    }
    s = slot{t.id, k, t0, t1, -1};
  }

  void visit(slot& s, std::uint16_t track, loop_stats& st, span_log* log) {
    if (s.id == invalid_job) return;
    const double p0 = clock(log);
    const std::optional<job_status> p = eng_.poll(s.id);
    const double p1 = clock(log);
    if (log != nullptr) st.poll_us.push_back((p1 - p0) * 1e6);
    if (!p) {
      st.jobs.fail();
      s = slot{};
      return;
    }
    if (s.running < 0 &&
        (p->state != job_state::queued || p->steps_done > 0)) {
      s.running = p0;
      st.queue_ms.push_back((p0 - s.submit_end) * 1e3);
    }
    const bool terminal = p->state == job_state::done ||
                          p->state == job_state::failed ||
                          p->state == job_state::cancelled;
    if (!terminal) return;

    const double ms = (p1 - s.submitted) * 1e3;
    if (p->state == job_state::done) {
      st.jobs.ok(ms);
      (is_soft(s.k) ? st.soft_ms : st.native_ms).push_back(ms);
      st.done.push_back({s.id, s.k});
    } else {
      st.jobs.fail();
    }
    if (log != nullptr) {
      const auto root = log->add("ensemble.job", s.id, s.submitted, p1, -1, track);
      log->add("ensemble.submit", s.id, s.submitted, s.submit_end, root);
      log->add("ensemble.queue", s.id, s.submit_end, s.running, root);
      log->add("ensemble.run", s.id, s.running, p0, root);
      log->add("ensemble.poll", s.id, p0, p1, root);
    }
    s = slot{};
  }

  engine& eng_;
  std::uint64_t seed_;
  std::uint64_t next_k_ = 0;
};

engine_options options() {
  engine_options o;
  o.threads = 2;
  o.async = true;
  return o;
}

}  // namespace

run_outcome run_ensemble_mixed(const run_config& cfg) {
  run_outcome out;
  xoshiro256 rng(cfg.seed ^ 0x5eedull);
  std::vector<double> batch_ms, native_ms, soft_ms;
  // The first batch of every engine warms it and is not timed.
  const double window_start = now_s();
  for (int i = 0; i < min_engines || now_s() - window_start < cfg.seconds; ++i) {
    loop_stats st;
    std::vector<slot> slots(in_flight);
    const double t0 = now_s();
    engine eng(options());
    generator gen(eng, cfg.seed);
    gen.fill(slots, st, nullptr);
    out.e2e.setup_s.push_back(now_s() - t0);
    gen.drain(slots, st, nullptr);
    for (int b = 0; b < batches_per_engine; ++b) {
      batch_ms.push_back(gen.batch(slots, st, nullptr));
    }
    out.e2e.peak_rss_mb = peak_rss_mb();

    // Oracle: seeded finished members of this engine, bit-identical to
    // the standalone model (Kahan bits included); one soft member when
    // one finished.
    std::vector<finished_job> sample;
    std::vector<finished_job> soft;
    for (const finished_job& f : st.done) {
      if (is_soft(f.k)) soft.push_back(f);
    }
    if (!soft.empty()) sample.push_back(soft[rng.bounded(soft.size())]);
    while (!st.done.empty() && sample.size() < oracle_samples_per_engine) {
      sample.push_back(st.done[rng.bounded(st.done.size())]);
    }
    if (sample.empty()) {
      out.oracles.check("ensemble-mixed: some job finished", 1, 0);
    }
    for (const finished_job& f : sample) {
      const job_result* r = eng.result(f.id);
      const member_config c = job_config(cfg.seed, f.k);
      out.oracles.check(std::string("ensemble-mixed: job ") +
                            std::to_string(f.id) + " (" +
                            personality_name(c.prec) + ") vs standalone model",
                        standalone_hash(c), r != nullptr ? result_hash(*r) : 0);
    }

    out.ops.attempted += st.jobs.attempted;
    out.ops.failed += st.jobs.failed;
    out.e2e.misses += st.jobs.failed;
    native_ms.insert(native_ms.end(), st.native_ms.begin(), st.native_ms.end());
    soft_ms.insert(soft_ms.end(), st.soft_ms.begin(), st.soft_ms.end());
  }

  out.e2e.parts_ms = {std::move(batch_ms)};
  out.e2e.work_per_unit = double(in_flight) * steps_per_job;
  out.notes.push_back("ensemble-mixed: job p50 native " +
                      std::to_string(median(native_ms)) + " ms, soft " +
                      std::to_string(median(soft_ms)) + " ms (untimed warm "
                      "batches included)");
  return out;
}

void trace_ensemble_mixed(const run_config& cfg, run_outcome& out) {
  const double pass = cfg.seconds / 2;
  // Batches of one engine for `pass` seconds, at least ledger_batches,
  // after one warm batch; their median wall time in ms.
  const auto batches = [&](engine& eng, loop_stats& st, span_log* log) {
    generator gen(eng, cfg.seed);
    std::vector<slot> slots(in_flight);
    gen.fill(slots, st, log);
    gen.drain(slots, st, log);
    std::vector<double> ms;
    const double start = now_s();
    while (now_s() - start < pass || ms.size() < ledger_batches) {
      ms.push_back(gen.batch(slots, st, log));
    }
    return median(ms);
  };
  double untraced = 0;
  {
    engine eng(options());
    loop_stats st;
    untraced = batches(eng, st, nullptr);
  }

  span_log log(obs::domain::ens);
  loop_stats st;
  double traced = 0;
  std::vector<obs::event> events;
  {
    engine eng(options());
    obs::start(trace_ring_events);
    traced = batches(eng, st, &log);
    obs::stop();
    // Tile sizes of the seven batch groups the stream creates.
    for (std::uint64_t k = 0; k < 16; ++k) {
      const member_config c = job_config(cfg.seed, k);
      std::string name = std::string("ensemble.tile_members.") +
                         personality_name(c.prec) + "." +
                         std::to_string(c.nx) + "x" + std::to_string(c.ny);
      for (char& ch : name) {
        if (ch == '/') ch = '_';
      }
      if (out.layers.find(name) == nullptr) {
        out.layers.add(name, static_cast<double>(eng.tile_members_for(c)),
                       "count");
      }
    }
  }
  events = obs::collect();
  out.ops.attempted += st.jobs.attempted;
  out.ops.failed += st.jobs.failed;

  // The cost of one soft member step, standalone.
  std::vector<double> f16_ms;
  {
    member_config c = job_config(cfg.seed, 15);
    swm::swm_params p;
    p.nx = c.nx;
    p.ny = c.ny;
    p.log2_scale = c.log2_scale;
    swm::model<fp::float16> m(p, swm::integration_scheme::compensated);
    m.seed_random_eddies(c.seed, c.velocity_amplitude);
    for (int s = 0; s < 100; ++s) {
      const double t0 = now_s();
      m.step();
      f16_ms.push_back((now_s() - t0) * 1e3);
    }
  }

  out.layers.add("ensemble.submit_us.p50", median(st.submit_us), "us");
  out.layers.add("ensemble.queue_ms.p50", median(st.queue_ms), "ms");
  out.layers.add("ensemble.poll_us.p50", median(st.poll_us), "us");
  out.layers.add("ensemble.native_job_ms.p50", median(st.native_ms), "ms");
  out.layers.add("ensemble.soft_job_ms.p50", median(st.soft_ms), "ms");
  out.layers.add("ensemble.backlog_s", median(st.backlog_s), "model_s");
  out.layers.add("fp.f16_step_ms.p50", median(f16_ms), "ms");
  report_layers(out, "ensemble-mixed", log, traced, untraced);
  write_trace(out, cfg, "ensemble-mixed", std::move(events), log);
}

}  // namespace perfbench
