// Example: the distributed shallow-water model - ShallowWaters physics
// over the mpisim fabric, the combination a production weather model
// on Fugaku would be.
//
// The ranks decompose the grid into y-slabs and exchange halo rows
// every RK4 stage. The *transport* underneath is selectable
// (docs/TRANSPORTS.md): the same binary runs all ranks as threads over
// in-process shared-memory channels (the default) or over real
// loopback TCP - or as one process per rank:
//
//   distributed_swm                               # classic 8-rank demo
//   distributed_swm --ranks=4                     # shm, 4 ranks
//   distributed_swm --transport=socket --ranks=4 --out=/tmp/sock
//   # separate processes, one per rank, agreeing on a coordinator port:
//   args="--transport=socket --ranks=4 --port=47731 --out=/tmp/proc"
//   for r in 0 1 2 3; do distributed_swm $args --rank=$r & done; wait
//
// With --out=PREFIX every local rank writes its packed integration
// state (prognostic u,v,eta plus the Kahan compensation slabs - the
// exact bits needed to resume bit-identically) to PREFIX.rank<r>.
// Identical runs over different transports, or threads-vs-processes,
// produce byte-identical files; tests/mpisim_transport_test diffs
// them.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpisim/runtime.hpp"
#include "mpisim/transport.hpp"
#include "swm/distributed.hpp"
#include "swm/model.hpp"

using namespace tfx;
using namespace tfx::swm;

namespace {

struct options {
  mpisim::transport_options transport;
  int ranks = 8;
  int steps = 50;
  integration_scheme scheme = integration_scheme::standard;
  std::string out;  ///< packed-state file prefix (empty: don't write)
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [--transport=shm|socket] [--ranks=N] [--steps=N]\n"
      "          [--scheme=standard|compensated] [--out=PREFIX]\n"
      "          [--rank=R --port=P [--host=H]]   # socket process mode\n",
      argv0);
  std::exit(2);
}

options parse_args(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? std::string{} : arg.substr(eq + 1);
    if (key == "--transport") {
      try {
        opt.transport.kind = mpisim::transport_manager::parse(val);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0]);
      }
    } else if (key == "--ranks") {
      opt.ranks = std::atoi(val.c_str());
    } else if (key == "--steps") {
      opt.steps = std::atoi(val.c_str());
    } else if (key == "--rank") {
      opt.transport.socket.rank = std::atoi(val.c_str());
    } else if (key == "--port") {
      opt.transport.socket.port = std::atoi(val.c_str());
    } else if (key == "--host") {
      opt.transport.socket.host = val;
    } else if (key == "--scheme") {
      if (val == "standard") {
        opt.scheme = integration_scheme::standard;
      } else if (val == "compensated") {
        opt.scheme = integration_scheme::compensated;
      } else {
        usage(argv[0]);
      }
    } else if (key == "--out") {
      opt.out = val;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.ranks < 1 || opt.steps < 1) usage(argv[0]);
  if (opt.transport.socket.rank >= 0 &&
      opt.transport.kind != mpisim::transport_kind::socket) {
    usage(argv[0]);  // process mode only exists on the socket transport
  }
  return opt;
}

void write_packed(const std::string& prefix, int rank,
                  const std::vector<double>& packed) {
  const std::string path = prefix + ".rank" + std::to_string(rank);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(packed.data(), sizeof(double), packed.size(), f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse_args(argc, argv);

  swm_params p;
  p.nx = 64;
  p.ny = 32;

  // Seed once, serially, so every deployment of the run is
  // reproducible from the same initial state.
  model<double> seeder(p);
  seeder.seed_random_eddies(11, 0.5);
  const state<double> init = seeder.prognostic();

  // Ranks on the modeled torus: 2 ranks per node (the classic 8-rank
  // demo shape) when the count allows, else a line of 1-rank nodes.
  const mpisim::torus_placement place =
      opt.ranks % 2 == 0
          ? mpisim::torus_placement({opt.ranks / 2, 1, 1}, 2)
          : mpisim::torus_placement::line(opt.ranks);
  mpisim::world w(place, {}, opt.transport);
  const bool chatty = w.rank_is_local(0);

  state<double> gathered(p.nx, p.ny);
  w.run([&](mpisim::communicator& comm) {
    distributed_model<double> dm(comm, p, opt.scheme);
    dm.set_from_global(init);
    dm.run(opt.steps);
    if (comm.rank() == 0) {
      std::printf("transport %s: rank 0 owns rows [%d, %d) of %d\n",
                  w.transport_name(), dm.global_j0(),
                  dm.global_j0() + dm.local_ny(), p.ny);
    }
    const double vmax = dm.global_max_speed();  // collective diagnostic
    if (comm.rank() == 0) {
      std::printf("global max speed after %d steps: %.6f m/s\n", opt.steps,
                  vmax);
    }
    if (!opt.out.empty()) {
      std::vector<double> packed(dm.packed_size());
      dm.pack_state(std::span<double>(packed));
      write_packed(opt.out, comm.rank(), packed);
    }
    auto global = dm.gather_global();
    if (comm.rank() == 0) gathered = global;
  });

  // Serial reference comparison - only where rank 0 (and its gathered
  // state) lives.
  if (chatty) {
    model<double> serial(p, opt.scheme);
    serial.prognostic() = init;
    serial.run(opt.steps);

    double max_diff = 0;
    for (std::size_t k = 0; k < gathered.eta.size(); ++k) {
      max_diff =
          std::max(max_diff, std::abs(gathered.eta.flat()[k] -
                                      serial.prognostic().eta.flat()[k]));
    }
    std::printf("serial max speed:                  %.6f m/s\n",
                serial.diag().max_speed);
    std::printf("max |eta_distributed - eta_serial| = %.3e (bit-equal: %s)\n",
                max_diff, max_diff == 0.0 ? "yes" : "no");

    std::puts("\nper-rank simulated communication time (TofuD model):");
    for (int r = 0; r < opt.ranks; ++r) {
      if (!w.rank_is_local(r)) continue;
      std::printf("  rank %d: %.1f us across %d steps (halo exchanges + "
                  "collectives)\n",
                  r, w.final_clocks()[static_cast<std::size_t>(r)] * 1e6,
                  opt.steps);
    }
  }
  return 0;
}
