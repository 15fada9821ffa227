// Figure 3: latency of collective operations - Allreduce (top),
// Gatherv (middle), Reduce (bottom) - MPI.jl vs IMB (C) at 1536 ranks
// on 384 nodes in a 4x6x16 torus allocation, via the discrete-event
// engine (the threaded runtime cross-validates it in the tests).
//
// The extra "contended" column prices the same IMB run on the
// per-link store-and-forward fabric (docs/TOPOLOGY.md); the paper's
// machine is uncontended at these message sizes for Allreduce but the
// single-sink Gatherv shows the congestion cliff.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "imb/benchmarks.hpp"

using namespace tfx;
using namespace tfx::imb;

namespace {

void panel(const char* title, collective_kind kind,
           const bench_config& config, unsigned hi,
           std::vector<bench_json::value>& json_rows) {
  const auto place = fugaku_fig3_placement();
  const auto sizes = power_of_two_sizes(2, hi);
  const auto jl = run_collective(kind, mpi_jl, config, place, sizes);
  const auto ic = run_collective(kind, imb_c, config, place, sizes);
  mpisim::des_options contended;
  contended.fabric = mpisim::fabric_mode::contended;
  const auto cc =
      run_collective(kind, imb_c, config, place, sizes,
                     mpisim::coll_algorithm::automatic, contended);

  table t({"bytes", "MPI.jl", "IMB (C)", "jl/imb", "contended", "cont/imb"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    t.add_row({format_bytes(sizes[i]), format_seconds(jl[i].latency_s),
               format_seconds(ic[i].latency_s),
               format_fixed(jl[i].latency_s / ic[i].latency_s, 3),
               format_seconds(cc[i].latency_s),
               format_fixed(cc[i].latency_s / ic[i].latency_s, 2)});
    json_rows.push_back(bench_json::object(
        {{"panel", bench_json::string(title)},
         {"bytes", bench_json::integer(sizes[i])},
         {"mpi_jl_s", bench_json::sci(jl[i].latency_s)},
         {"imb_c_s", bench_json::sci(ic[i].latency_s)},
         {"imb_c_contended_s", bench_json::sci(cc[i].latency_s)}}));
  }
  std::printf("\n== Fig. 3 panel: %s, 1536 ranks / 384 nodes ==\n", title);
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  cli args(argc, argv,
           {{"max-log2", "largest message exponent (default 22)"},
            {"json", "output path (default BENCH_topology_fig3.json)"}});
  if (args.wants_help()) {
    std::fputs(args.help().c_str(), stderr);
    return 1;
  }
  const auto hi = static_cast<unsigned>(args.get_int("max-log2", 22));
  const std::string json =
      args.get_string("json", "BENCH_topology_fig3.json");

  std::puts(
      "Reproduction of Fig. 3 (collectives on the 4x6x16 torus, 1536 ranks).");
  std::puts("Expected shape: MPI.jl overhead visible only at small sizes,");
  std::puts("vanishing (ratio -> 1) for large messages; no Allreduce");
  std::puts("performance drop at large sizes. The contended column shows");
  std::puts("the link-level fabric model: near 1x for Allreduce, a cliff");
  std::puts("for the single-sink Gatherv.");

  std::vector<bench_json::value> rows;
  const bench_config config;
  panel("MPI_Allreduce", collective_kind::allreduce, config, hi, rows);
  panel("MPI_Gatherv", collective_kind::gatherv, config, hi, rows);
  panel("MPI_Reduce", collective_kind::reduce, config, hi, rows);
  bench_json::document doc;
  doc.member("bench", bench_json::string("fig3_collectives"))
      .member("ranks", bench_json::integer(1536))
      .rows("rows", rows);
  return doc.write(json) ? 0 : 1;
}
