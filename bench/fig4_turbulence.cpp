// Figure 4: geophysical turbulence simulated at Float16 (with scaling
// and compensated time integration, FZ16 set) is qualitatively
// indistinguishable from the Float64 simulation; the Float64 run was
// measured 3.6x slower at the paper's 3000x1500 grid.
//
// The full pipeline of § III-B runs end-to-end here: a Sherlog32
// development run records the exponent histogram, choose_scaling picks
// s, the production Float16 run uses it. Vorticity snapshots of both
// runs are written as PGM images next to the binary, and the
// qualitative agreement is quantified (correlation, relative RMSE).
// The grid is reduced from 3000x1500 (every Float16 op widens to binary32
// and rounds back on the host, F16C or not, so it costs several double
// ops); the modeled runtime ratio is evaluated at the paper's full size.

#include <cstdio>
#include <iostream>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "core/units.hpp"
#include "fp/float16.hpp"
#include "fp/fpenv.hpp"
#include "fp/scaling.hpp"
#include "fp/sherlog.hpp"
#include "swm/model.hpp"
#include "swm/output.hpp"
#include "swm/perfmodel.hpp"

using namespace tfx;
using namespace tfx::swm;
using tfx::fp::float16;

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"nx", "grid width (default 160)"},
            {"ny", "grid height (default 80)"},
            {"steps", "time steps (default 80)"},
            {"out", "output prefix for PGM/CSV dumps (default fig4)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }

  swm_params p;
  p.nx = static_cast<int>(args.get_int("nx", 160));
  p.ny = static_cast<int>(args.get_int("ny", 80));
  const int steps = static_cast<int>(args.get_int("steps", 80));
  const std::string prefix = args.get_string("out", "fig4");

  std::puts("Reproduction of Fig. 4 (ShallowWaters turbulence at Float16).");

  // --- step 1: Sherlog32 development run chooses the scaling --------
  fp::sherlog_sink().reset();
  {
    model<fp::sherlog32> dev(p);
    dev.seed_random_eddies(42, 0.5);
    dev.run(15);
  }
  const auto choice =
      fp::choose_scaling(fp::sherlog_sink(), fp::float16_range);
  std::printf(
      "Sherlog32 run: %llu samples, exponents [%d, %d] -> s = 2^%d "
      "(subnormal fraction %.2e -> %.2e)\n",
      static_cast<unsigned long long>(fp::sherlog_sink().total()),
      fp::sherlog_sink().min_observed(), fp::sherlog_sink().max_observed(),
      choice.log2_scale, choice.subnormal_fraction_before,
      choice.subnormal_fraction_after);

  // --- step 2: Float64 reference and Float16 production run ---------
  model<double> ref(p);
  ref.seed_random_eddies(42, 0.5);
  stopwatch sw64;
  ref.run(steps);
  const double t64_host = sw64.seconds();

  swm_params p16 = p;
  p16.log2_scale = choice.log2_scale;
  fp::ftz_guard ftz(fp::ftz_mode::flush);  // the A64FX FZ16 flag
  fp::counters().reset();
  model<float16> half(p16, integration_scheme::compensated);
  half.seed_random_eddies(42, 0.5);
  stopwatch sw16;
  half.run(steps);
  const double t16_host = sw16.seconds();

  // --- step 3: compare fields ---------------------------------------
  const auto zr = relative_vorticity(ref.unscaled(), p);
  const auto zh = relative_vorticity(half.unscaled(), p16);
  const double amp = std::max(rms(zr) * 4.0, 1e-12);
  write_pgm(zr, prefix + "_vorticity_float64.pgm", amp);
  write_pgm(zh, prefix + "_vorticity_float16.pgm", amp);
  write_csv(zh, prefix + "_vorticity_float16.csv");

  table t({"metric", "value"});
  t.add_row({"grid", std::to_string(p.nx) + "x" + std::to_string(p.ny)});
  t.add_row({"steps", std::to_string(steps)});
  t.add_row({"scale s", "2^" + std::to_string(choice.log2_scale)});
  t.add_row({"corr(zeta16, zeta64)", format_fixed(correlation(zr, zh), 6)});
  t.add_row({"relative RMSE", format_fixed(rmse(zr, zh) / rms(zr), 6)});
  t.add_row({"f16 overflows", std::to_string(fp::counters().f16_overflows)});
  t.add_row({"f16 NaNs", std::to_string(fp::counters().f16_nans)});
  t.add_row({"f16 flushed subnormals",
             std::to_string(fp::counters().f16_flushed_results)});
  t.add_row({"host wall-clock f64", format_seconds(t64_host)});
  t.add_row({"host wall-clock f16 (emulated)", format_seconds(t16_host)});
  std::puts("");
  t.print(std::cout);

  // --- step 4: the 3.6x claim at the paper's grid size --------------
  const double modeled_ratio =
      predict_step(arch::fugaku_node, 3000, 1500, config_float64()).seconds /
      predict_step(arch::fugaku_node, 3000, 1500, config_float16()).seconds;
  std::printf(
      "\nModeled A64FX runtime ratio Float64/Float16 at 3000x1500: %.2fx "
      "(paper: 3.6x)\n",
      modeled_ratio);
  std::printf("Vorticity snapshots written to %s_vorticity_float{16,64}.pgm\n",
              prefix.c_str());
  return 0;
}
