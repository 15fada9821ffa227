// Ablation: what halo aggregation and compute overlap buy.
//
// The distributed shallow-water model moves its halos through one
// engine (swm/halo.hpp): all fields of a phase packed into one message
// per neighbour - 16 sends per rank per step where one message per row
// per field took 56 - with the interior compute overlapped under the
// exchange. Two quantities are priced per configuration on the
// simulated TofuD fabric:
//
//   halo_s  - virtual halo time per step (no modeled compute: the step
//             loop's clock is pure communication). The paper's § III-A
//             per-message overhead makes aggregation a >= 2x win at
//             small grids, where alpha dominates the wire time.
//   vstep_s - virtual time per step with each rank charging its slab's
//             modeled A64FX Float64 compute (predict_step / 4 per RHS
//             evaluation). Only here can overlap show up: the interior
//             share of each evaluation runs while the payloads fly.
//
// The per-field and the non-overlapped aggregated engines this
// ablation was measured against are gone from the model. Their rows,
// as this bench last measured them, are frozen below and written to
// BENCH_halo.json unchanged as `frozen_rows`; speedup_vs_per_field
// divides the frozen per-field halo_s by the live one.
//
// All numbers are deterministic virtual time - bit-reproducible on any
// host. The perfmodel's alpha-beta prediction (predict_halo) is
// included for comparison against the simulated halo_s.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "mpisim/runtime.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"
#include "swm/perfmodel.hpp"

using namespace tfx;
using namespace tfx::swm;

namespace {

struct row {
  int nx = 0, ny = 0, ranks = 0;
  const char* mode = "";
  double halo_s = 0;       ///< virtual halo time per step (no compute)
  double vstep_s = 0;      ///< virtual time per step with modeled compute
  std::uint64_t msgs = 0;  ///< sends per rank per step
  std::uint64_t bytes = 0; ///< payload bytes per rank per step
  double predicted_s = 0;  ///< alpha-beta halo prediction per step
  double speedup = 0;      ///< per-field halo_s / this row's halo_s
};

/// The retired engines' rows, 5 steps per configuration, exactly as
/// BENCH_halo.json recorded them. Not regenerated.
constexpr row frozen_rows[] = {
    {32, 16, 2, "per_field", 3.017412e-05, 7.237412e-05, 56, 14336, 5.474824e-05, 1.0000},
    {32, 16, 2, "aggregated", 9.628235e-06, 5.182824e-05, 16, 14336, 1.714824e-05, 3.1339},
    {32, 16, 4, "per_field", 3.017412e-05, 7.127412e-05, 56, 14336, 5.474824e-05, 1.0000},
    {32, 16, 4, "aggregated", 9.628235e-06, 5.072824e-05, 16, 14336, 1.714824e-05, 3.1339},
    {32, 16, 8, "per_field", 3.017412e-05, 7.072412e-05, 56, 14336, 5.474824e-05, 1.0000},
    {32, 16, 8, "aggregated", 9.628235e-06, 5.017824e-05, 16, 14336, 1.714824e-05, 3.1339},
    {128, 64, 2, "per_field", 3.475294e-05, 1.232579e-04, 56, 57344, 6.107294e-05, 1.0000},
    {128, 64, 2, "aggregated", 1.595294e-05, 1.044579e-04, 16, 57344, 2.347294e-05, 2.1785},
    {128, 64, 4, "per_field", 3.475294e-05, 9.443705e-05, 56, 57344, 6.107294e-05, 1.0000},
    {128, 64, 4, "aggregated", 1.595294e-05, 7.563705e-05, 16, 57344, 2.347294e-05, 2.1785},
    {128, 64, 8, "per_field", 3.475294e-05, 8.382307e-05, 56, 57344, 6.107294e-05, 1.0000},
    {128, 64, 8, "aggregated", 1.595294e-05, 6.502307e-05, 16, 57344, 2.347294e-05, 2.1785},
    {512, 256, 2, "per_field", 6.005176e-05, 1.433407e-03, 56, 229376, 8.637176e-05, 1.0000},
    {512, 256, 2, "aggregated", 4.125176e-05, 1.414607e-03, 16, 229376, 4.877176e-05, 1.4557},
    {512, 256, 4, "per_field", 6.005176e-05, 7.481537e-04, 56, 229376, 8.637176e-05, 1.0000},
    {512, 256, 4, "aggregated", 4.125176e-05, 7.293537e-04, 16, 229376, 4.877176e-05, 1.4557},
    {512, 256, 8, "per_field", 6.005176e-05, 4.055268e-04, 56, 229376, 8.637176e-05, 1.0000},
    {512, 256, 8, "aggregated", 4.125176e-05, 3.867268e-04, 16, 229376, 4.877176e-05, 1.4557},
};

/// The frozen per-field halo_s of one configuration.
double per_field_halo_s(int nx, int ranks) {
  for (const row& r : frozen_rows) {
    if (r.nx == nx && r.ranks == ranks &&
        std::string_view(r.mode) == "per_field") {
      return r.halo_s;
    }
  }
  return 0;
}

/// Max virtual clock per step of a `steps`-step run, charging
/// `rhs_seconds` of modeled compute per RHS evaluation.
double vtime_per_step(int nx, int ny, int ranks, double rhs_seconds,
                      int steps) {
  swm_params p;
  p.nx = nx;
  p.ny = ny;
  mpisim::world w(ranks);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, p);
    dm.set_modeled_rhs_seconds(rhs_seconds);
    model<double> seeder(p);
    seeder.seed_random_eddies(3, 0.4);
    dm.set_from_global(seeder.prognostic());
    dm.run(steps);
  });
  double max_clock = 0;
  for (const double c : w.final_clocks()) max_clock = std::max(max_clock, c);
  return max_clock / steps;
}

void write_rows(std::FILE* f, const row* rows, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"nx\": %d, \"ny\": %d, \"ranks\": %d, \"mode\": \"%s\", "
        "\"halo_s\": %.6e, \"vstep_s\": %.6e, \"msgs\": %llu, "
        "\"bytes\": %llu, \"predicted_s\": %.6e, "
        "\"speedup_vs_per_field\": %.4f}%s\n",
        r.nx, r.ny, r.ranks, r.mode, r.halo_s, r.vstep_s,
        static_cast<unsigned long long>(r.msgs),
        static_cast<unsigned long long>(r.bytes), r.predicted_s, r.speedup,
        i + 1 < n ? "," : "");
  }
}

void write_json(const std::string& path, int steps,
                const std::vector<row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_halo\",\n");
  std::fprintf(f, "  \"steps\": %d,\n  \"rows\": [\n", steps);
  write_rows(f, rows.data(), rows.size());
  std::fprintf(f,
               "  ],\n  \"frozen_note\": \"per_field and aggregated: the "
               "engines the model no longer has, as last measured at 5 "
               "steps; not regenerated\",\n  \"frozen_rows\": [\n");
  write_rows(f, frozen_rows, std::size(frozen_rows));
  std::fprintf(f, "  ]\n}\n");
  std::printf("\nWrote %s\n", path.c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"steps", "RK4 steps per configuration (default 5)"},
            {"json", "output path (default BENCH_halo.json)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  const int steps = static_cast<int>(args.get_int("steps", 5));
  const std::string json = args.get_string("json", "BENCH_halo.json");

  std::puts("Ablation: halo aggregation and compute/communication overlap.");
  std::puts("The packed, overlapped halo engine against the frozen");
  std::puts("per-field baseline; virtual time on the modeled TofuD fabric");
  std::puts("(deterministic, bit-reproducible).\n");

  std::vector<row> rows;
  table t({"grid", "ranks", "halo/step", "per-field", "speedup", "vstep",
           "msgs/step", "predicted"});
  for (const int nx : {32, 128, 512}) {
    const int ny = nx / 2;
    for (const int ranks : {2, 4, 8}) {
      const double compute_per_eval =
          predict_step(arch::fugaku_node, nx, ny / ranks, config_float64())
              .seconds /
          4.0;
      row r;
      r.nx = nx;
      r.ny = ny;
      r.ranks = ranks;
      r.mode = "agg+overlap";
      r.halo_s = vtime_per_step(nx, ny, ranks, 0.0, steps);
      r.vstep_s = vtime_per_step(nx, ny, ranks, compute_per_eval, steps);
      mpisim::world probe(ranks);
      const halo_cost pred =
          predict_halo(probe.net(), nx, sizeof(double), ranks);
      r.msgs = pred.messages;
      r.bytes = pred.bytes;
      r.predicted_s = pred.seconds;
      const double per_field = per_field_halo_s(nx, ranks);
      r.speedup = per_field / r.halo_s;
      t.add_row({std::to_string(nx) + "x" + std::to_string(ny),
                 std::to_string(ranks), format_seconds(r.halo_s),
                 format_seconds(per_field), format_fixed(r.speedup, 2),
                 format_seconds(r.vstep_s), std::to_string(r.msgs),
                 format_seconds(r.predicted_s)});
      rows.push_back(r);
    }
  }
  t.print(std::cout);

  std::puts("\nAggregation pays off most at small grids, where per-message");
  std::puts("overhead dominates the wire time (paper Figs. 2-3); overlap");
  std::puts("additionally hides the interior compute share under the");
  std::puts("exchange, visible in vstep once real compute is charged.");
  write_json(json, steps, rows);
  return 0;
}
