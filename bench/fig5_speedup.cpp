// Figure 5: speedups of low-precision ShallowWaters simulations over
// Float64 as a function of problem size, for Float16 (compensated),
// the mixed Float16/32 configuration, and Float32.
//
// The speedups come from the calibrated A64FX model driven by the
// per-step traffic accounting (swm::predict_step); the host wall-clock
// column measures real float-vs-double runs of the same model on the
// build machine as a shape sanity check (host float16 is software and
// would invert the result - exactly why the machine model exists,
// DESIGN.md § 2).

#include <cstdio>
#include <iostream>
#include <vector>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "core/units.hpp"
#include "swm/model.hpp"
#include "swm/perfmodel.hpp"

using namespace tfx;
using namespace tfx::swm;

namespace {

/// Host wall-clock seconds per step at element type T.
template <typename T>
double host_seconds_per_step(int nx, int ny, int steps) {
  swm_params p;
  p.nx = nx;
  p.ny = ny;
  model<T> m(p);
  m.seed_random_eddies(1, 0.4);
  m.step();  // warm
  stopwatch sw;
  m.run(steps);
  return sw.seconds() / steps;
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"host-steps", "steps for the host measurement (default 6)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  const int host_steps = static_cast<int>(args.get_int("host-steps", 6));

  std::puts("Reproduction of Fig. 5 (speedups over Float64 vs problem size).");
  std::puts("Expected shape: all curves start near 1x at small grids;");
  std::puts("Float32 ~2x over a wide range; Float16 grows towards ~4x at");
  std::puts("3000x1500; mixed Float16/32 sits between Float32 and Float16.");

  const auto& machine = arch::fugaku_node;
  const std::vector<std::pair<int, int>> grids{
      {32, 16},   {64, 32},    {128, 64},   {256, 128},  {512, 256},
      {768, 384}, {1024, 512}, {1500, 750}, {2048, 1024}, {3000, 1500}};

  table t({"grid", "cells", "Float32", "Float16/32", "Float16"});
  for (const auto& [nx, ny] : grids) {
    t.add_row({std::to_string(nx) + "x" + std::to_string(ny),
               std::to_string(static_cast<long long>(nx) * ny),
               format_fixed(speedup_vs_float64(machine, nx, ny,
                                               config_float32()), 2),
               format_fixed(speedup_vs_float64(machine, nx, ny,
                                               config_float16_32()), 2),
               format_fixed(speedup_vs_float64(machine, nx, ny,
                                               config_float16()), 2)});
  }
  std::puts("\n== Fig. 5: modeled speedup over Float64 ==");
  t.print(std::cout);

  // Compensation overhead headline (Fig. 5 caption: ~5 %).
  precision_config plain16 = config_float16();
  plain16.compensated = false;
  const double comp_overhead =
      predict_step(machine, 3000, 1500, config_float16()).seconds /
          predict_step(machine, 3000, 1500, plain16).seconds -
      1.0;
  std::printf("\nCompensated-integration overhead at 3000x1500: %.1f%% "
              "(paper: ~5%%)\n",
              100.0 * comp_overhead);

  const int nx = 1024, ny = 512;  // large enough to stream from DRAM
  const double td = host_seconds_per_step<double>(nx, ny, host_steps);
  const double tf = host_seconds_per_step<float>(nx, ny, host_steps);
  std::printf(
      "\nHost sanity check (%dx%d, %d steps): double %s/step, float "
      "%s/step, ratio %.2fx. The float advantage direction carries over "
      "to the host; its magnitude depends on the build machine's "
      "compute/bandwidth balance, which is why the modeled numbers "
      "above are the instrument (DESIGN.md 2).\n",
      nx, ny, host_steps, format_seconds(td).c_str(),
      format_seconds(tf).c_str(), td / tf);
  return 0;
}
