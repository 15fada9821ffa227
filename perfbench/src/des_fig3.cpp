/// des-fig3: repeated sweeps over 64 cold DES programs in the paper's
/// Fig. 3 setting. Flat allreduce (automatic), gatherv and reduce run at
/// 1536 ranks (imb::fugaku_fig3_placement), the hierarchical allreduce
/// at 4096 ranks ({8,8,16} x 4), each at 64 B ... 1 MiB in x4 steps on
/// both fabric modes, built through make_*_program and timed through
/// mpisim::simulate. Single-threaded; only mpisim patterns, DES and
/// routing run.

#include <algorithm>
#include <array>

#include "imb/benchmarks.hpp"
#include "mpisim/des.hpp"
#include "mpisim/patterns.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tfx::mpisim;

constexpr int setups = 8;
/// MPI_FLOAT elements, as in IMB and bench/fig3_collectives.
constexpr std::size_t elem = 4;

enum class pattern { allreduce, gatherv, reduce, hierarchical };
constexpr pattern patterns[] = {pattern::allreduce, pattern::gatherv,
                                pattern::reduce, pattern::hierarchical};
constexpr fabric_mode fabrics[] = {fabric_mode::uncontended,
                                   fabric_mode::contended};

struct placements {
  torus_placement fig3 = imb::fugaku_fig3_placement();
  torus_placement big{{8, 8, 16}, 4};
};

sim_program build(pattern what, const tofud_params& net, const placements& pl,
                  std::size_t bytes) {
  const int p = pl.fig3.rank_count();
  const std::size_t count = bytes / elem;
  switch (what) {
    case pattern::allreduce:
      return make_allreduce_program(net, p, count, elem,
                                    coll_algorithm::automatic);
    case pattern::gatherv:
      return make_gatherv_program(p, count, elem, 0);
    case pattern::reduce:
      return make_reduce_program(net, p, count, elem, 0);
    case pattern::hierarchical:
      return make_hierarchical_allreduce_program(net, pl.big, count, elem);
  }
  return sim_program(p);
}

/// What one sweep measured: host times (s) and the exact DES outputs.
struct sweep_result {
  double seconds = 0;
  double build_s = 0;
  double simulate_s = 0;
  std::vector<double> program_ms;  ///< build + simulate per program
  std::uint64_t clock_hash = fnv_offset;
  std::uint64_t ops = 0;
  std::uint64_t ranks = 0;
  std::uint64_t contended_hops = 0;
  double link_wait_s = 0;
};

/// One sweep: every program built cold, then simulated. With `log` set
/// the sweep is a root span with a build and a simulate span per program.
sweep_result sweep(const placements& pl, std::uint64_t id, span_log* log) {
  const tofud_params net;
  const auto clock = [&] { return log != nullptr ? obs::host_now() : now_s(); };
  sweep_result r;
  const double start = clock();
  std::vector<std::array<double, 3>> calls;
  for (const fabric_mode fabric : fabrics) {
    for (const pattern what : patterns) {
      for (std::size_t bytes = 64; bytes <= (std::size_t{1} << 20); bytes *= 4) {
        const double t0 = clock();
        const sim_program prog = build(what, net, pl, bytes);
        const double t1 = clock();
        des_options opts;
        opts.fabric = fabric;
        const torus_placement& place =
            what == pattern::hierarchical ? pl.big : pl.fig3;
        const des_result res = simulate(prog, net, place, {}, nullptr, opts);
        const double t2 = clock();
        r.build_s += t1 - t0;
        r.simulate_s += t2 - t1;
        r.program_ms.push_back((t2 - t0) * 1e3);
        r.clock_hash = fnv1a_of(std::span<const double>(res.clocks), r.clock_hash);
        for (const auto& ops : prog.ranks) r.ops += ops.size();
        r.ranks += static_cast<std::uint64_t>(prog.size());
        r.contended_hops += res.links.contended_hops;
        r.link_wait_s += res.links.wait_seconds;
        calls.push_back({t0, t1, t2});
      }
    }
  }
  const double end = clock();
  r.seconds = end - start;
  if (log != nullptr) {
    const auto root = log->add("des.sweep", id, start, end, -1, 100);
    for (const auto& [t0, t1, t2] : calls) {
      log->add("mpisim.des_build", id, t0, t1, root);
      log->add("mpisim.des_simulate", id, t1, t2, root);
    }
  }
  return r;
}

}  // namespace

run_outcome run_des_fig3(const run_config& cfg) {
  run_outcome out;
  // The unit is a sweep; its parts are its 64 programs, build plus
  // simulate each. Each set-up serves an equal share of the timed
  // window, so the set-ups see the same host as the sweeps.
  std::vector<std::vector<double>>& parts = out.e2e.parts_ms;
  std::uint64_t want = 0, ranks = 0, s = 0;
  // Each sweep runs on the next CPU, so a program's fastest time does
  // not hang on the CPU the scheduler chose.
  cpu_rotation rotation;
  for (int i = 0; i < setups; ++i) {
    const double t0 = now_s();
    const placements pl;
    const sweep_result cold = sweep(pl, s++, nullptr);
    out.e2e.setup_s.push_back(now_s() - t0);
    if (i == 0) want = cold.clock_hash;
    out.oracles.check("des-fig3: set-up sweep clock hash", want, cold.clock_hash);

    const double start = now_s();
    do {
      rotation.next(1);
      const sweep_result r = sweep(pl, s++, nullptr);
      parts.resize(r.program_ms.size());
      for (std::size_t k = 0; k < parts.size(); ++k) {
        parts[k].push_back(r.program_ms[k]);
      }
      ranks = r.ranks;
      for (const double ms : r.program_ms) out.ops.ok(ms);
      // Oracle: every sweep reproduces the same clocks, bit for bit.
      out.oracles.check("des-fig3: sweep clock hash", want, r.clock_hash);
    } while (now_s() - start < cfg.seconds / setups);
  }
  out.e2e.peak_rss_mb = peak_rss_mb();
  out.e2e.work_per_unit = static_cast<double>(ranks);
  return out;
}

void trace_des_fig3(const run_config& cfg, run_outcome& out) {
  const double pass = cfg.seconds / 2;
  const placements pl;
  const std::uint64_t want = sweep(pl, 0, nullptr).clock_hash;
  std::vector<double> untraced;
  for (const double start = now_s(); now_s() - start < pass || untraced.size() < 3;) {
    untraced.push_back(sweep(pl, 0, nullptr).seconds * 1e3);
  }

  span_log log(obs::domain::net);
  std::vector<double> traced, build_ms, simulate_ms, ops_per_s;
  sweep_result last;
  obs::start(trace_ring_events);
  for (std::uint64_t s = 1; obs::host_now() < pass || traced.size() < 3; ++s) {
    last = sweep(pl, s, &log);
    traced.push_back(last.seconds * 1e3);
    build_ms.push_back(last.build_s * 1e3);
    simulate_ms.push_back(last.simulate_s * 1e3);
    ops_per_s.push_back(static_cast<double>(last.ops) / last.simulate_s);
    out.ops.ok(traced.back());
    out.oracles.check("des-fig3: traced sweep clock hash", want, last.clock_hash);
  }
  obs::stop();
  std::vector<obs::event> events = obs::collect();

  out.layers.add("mpisim.des_build_ms", median(build_ms), "ms");
  out.layers.add("mpisim.des_simulate_ms", median(simulate_ms), "ms");
  out.layers.add("mpisim.des_ops_per_s", median(ops_per_s), "1/s");
  out.layers.add("mpisim.des_program_ops", static_cast<double>(last.ops), "count");
  out.layers.add("mpisim.des_link_wait_s", last.link_wait_s, "virtual_s");
  out.layers.add("mpisim.des_contended_hops",
                 static_cast<double>(last.contended_hops), "count");
  report_layers(out, "des-fig3", log, median(traced), median(untraced));
  write_trace(out, cfg, "des-fig3", std::move(events), log);
}

}  // namespace perfbench
