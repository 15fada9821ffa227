// Figure 2: inter-node ping-pong latency (top panel) and throughput
// (bottom panel), MPI.jl vs IMB (C), 2 ranks on 2 nodes
// ("-L node=2 -mpi max-proc-per-node=1").
//
// A third table adds the IMB point-to-point family beyond PingPong,
// over the same fabric and sizes: PingPing (duplex), Sendrecv
// (periodic chain) and Exchange (both neighbours), MPI.jl personality.

#include <cstdio>
#include <iostream>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "imb/benchmarks.hpp"

using namespace tfx;
using namespace tfx::imb;

int main(int argc, char** argv) {
  cli args(argc, argv, {{"max-log2", "largest message exponent (default 22)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  const auto hi = static_cast<unsigned>(args.get_int("max-log2", 22));

  std::puts("Reproduction of Fig. 2 (PingPong, MPI.jl vs IMB over TofuD).");
  std::puts("Expected shape: MPI.jl slightly slower at tiny sizes (call");
  std::puts("overhead), apparently *faster* from a few KiB to 64 KiB (no");
  std::puts("cache avoidance), identical beyond (zero-copy rendezvous);");
  std::puts("peak throughput within 1%.");

  const bench_config config;
  const auto sizes = power_of_two_sizes(0, hi);
  const auto jl = run_pingpong(mpi_jl, config, sizes);
  const auto ic = run_pingpong(imb_c, config, sizes);

  table lat({"bytes", "MPI.jl latency", "IMB (C) latency", "jl/imb"});
  table tput({"bytes", "MPI.jl GB/s", "IMB (C) GB/s"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    lat.add_row({format_bytes(sizes[i]), format_seconds(jl[i].latency_s),
                 format_seconds(ic[i].latency_s),
                 format_fixed(jl[i].latency_s / ic[i].latency_s, 3)});
    tput.add_row({format_bytes(sizes[i]),
                  format_fixed(jl[i].throughput_Bps / 1e9, 3),
                  format_fixed(ic[i].throughput_Bps / 1e9, 3)});
  }
  std::puts("\n== Fig. 2 top panel: latency ==");
  lat.print(std::cout);
  std::puts("\n== Fig. 2 bottom panel: throughput ==");
  tput.print(std::cout);

  const double peak_ratio =
      jl.back().throughput_Bps / ic.back().throughput_Bps;
  std::printf("\nPeak throughput MPI.jl / IMB: %.4f  (paper: within 1%%)\n",
              peak_ratio);

  const auto ping = run_pingping(mpi_jl, config, sizes);
  const auto srv = run_sendrecv(mpi_jl, config, 8, sizes);
  const auto exch = run_exchange(mpi_jl, config, 8, sizes);
  table p2p({"bytes", "PingPong", "PingPing", "Sendrecv", "Exchange",
             "Exch GB/s"});
  for (std::size_t i = 0; i < sizes.size(); i += 2) {
    p2p.add_row({format_bytes(sizes[i]), format_seconds(jl[i].latency_s),
                 format_seconds(ping[i].latency_s),
                 format_seconds(srv[i].latency_s),
                 format_seconds(exch[i].latency_s),
                 format_fixed(exch[i].throughput_Bps / 1e9, 2)});
  }
  std::puts("\n== IMB point-to-point family (MPI.jl; Sendrecv/Exchange on "
            "an 8-rank chain) ==");
  p2p.print(std::cout);
  std::puts("\nPingPing matches PingPong's half-RTT: the port model is");
  std::puts("full duplex, so the simultaneous sends overlap perfectly.");
  std::puts("Exchange moves twice Sendrecv's bytes for less than twice");
  std::puts("the time for small payloads (latency overlap) and about");
  std::puts("twice for large ones (each direction's drain serializes).");
  return 0;
}
