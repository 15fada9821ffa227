// The Fig. 5 instrument: modeled per-step cost and speedups over
// Float64 across problem sizes and precision configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <tuple>

#include "swm/perfmodel.hpp"

using namespace tfx::swm;
using tfx::arch::fugaku_node;

TEST(PerfModel, FusedStepMatchesFrozenFusionRows) {
  // The modeled rows of BENCH_fusion.json at Fig. 5's largest grid:
  // update loops, update bytes and step bytes exactly, and the step
  // time to the seven significant digits the file prints.
  struct row {
    precision_config config;
    std::uint64_t update_sweeps;
    std::uint64_t update_bytes;
    std::uint64_t bytes_moved;
    const char* seconds;
  };
  const row rows[] = {
      {config_float64(), 4, 1620000000, 5364000000, "9.410811e-02"},
      {config_float32(), 4, 810000000, 2682000000, "4.705548e-02"},
      {config_float16(), 4, 459000000, 1395000000, "2.447967e-02"},
      {config_float16_32(), 8, 945000000, 1881000000, "3.299905e-02"},
  };
  for (const row& r : rows) {
    const step_cost c = predict_step(fugaku_node, 3000, 1500, r.config);
    EXPECT_EQ(c.update_sweeps, r.update_sweeps) << r.config.name;
    EXPECT_EQ(c.update_bytes, r.update_bytes) << r.config.name;
    EXPECT_EQ(c.bytes_moved, r.bytes_moved) << r.config.name;
    char printed[32];
    std::snprintf(printed, sizeof printed, "%.6e", c.seconds);
    EXPECT_STREQ(printed, r.seconds) << r.config.name;
  }
}

TEST(PerfModel, ConfigsDescribeThePaperVariants) {
  EXPECT_EQ(config_float64().elem_bytes, 8u);
  EXPECT_FALSE(config_float64().mixed());
  EXPECT_TRUE(config_float16().compensated);
  EXPECT_TRUE(config_float16_32().mixed());
  EXPECT_EQ(config_float16_32().prog_elem_bytes, 4u);
}

TEST(PerfModel, Float16ApproachesFourXAtPaperSize) {
  // "approaches 4x speedups over Float64 for large problems (3000x1500
  // grid points)" - Fig. 5 / § III-B; the measured figure was 3.6x
  // (Fig. 4 caption).
  const double s = speedup_vs_float64(fugaku_node, 3000, 1500,
                                      config_float16());
  EXPECT_GE(s, 3.2);
  EXPECT_LE(s, 4.0);
}

TEST(PerfModel, Float32AboutTwoXOverWideRange) {
  for (const auto& [nx, ny] : {std::pair{500, 250}, std::pair{1000, 500},
                              std::pair{3000, 1500}}) {
    const double s = speedup_vs_float64(fugaku_node, nx, ny,
                                        config_float32());
    EXPECT_GE(s, 1.6) << nx << "x" << ny;
    EXPECT_LE(s, 2.3) << nx << "x" << ny;
  }
}

TEST(PerfModel, MixedPrecisionSitsBetweenFloat32AndFloat16) {
  // Fig. 5: the Float16/32 curve lies above Float32 but below pure
  // Float16 (the compensated variant "clearly outperforms" mixed).
  const int nx = 3000, ny = 1500;
  const double s16 = speedup_vs_float64(fugaku_node, nx, ny, config_float16());
  const double s32 = speedup_vs_float64(fugaku_node, nx, ny, config_float32());
  const double smx =
      speedup_vs_float64(fugaku_node, nx, ny, config_float16_32());
  EXPECT_GT(smx, s32);
  EXPECT_GT(s16, smx);
}

TEST(PerfModel, SpeedupCollapsesAtSmallGrids) {
  // Fixed per-step overheads dominate tiny problems: Fig. 5's curves
  // start near 1x.
  const double s = speedup_vs_float64(fugaku_node, 32, 16, config_float16());
  EXPECT_LT(s, 1.5);
  EXPECT_GE(s, 0.9);
}

TEST(PerfModel, Float16SpeedupGrowsWithProblemSize) {
  double prev = 0.0;
  for (const auto& [nx, ny] :
       {std::pair{32, 16}, std::pair{128, 64}, std::pair{512, 256},
        std::pair{1500, 750}, std::pair{3000, 1500}}) {
    const double s = speedup_vs_float64(fugaku_node, nx, ny,
                                        config_float16());
    EXPECT_GE(s, prev * 0.95) << nx << "x" << ny;
    prev = s;
  }
}

TEST(PerfModel, CompensationCostsAboutFivePercent) {
  // "Float16 has by default a compensated time integration [...] which
  // causes an about 5% overhead in runtime" (Fig. 5 caption).
  precision_config plain = config_float16();
  plain.compensated = false;
  const auto with = predict_step(fugaku_node, 3000, 1500, config_float16());
  const auto without = predict_step(fugaku_node, 3000, 1500, plain);
  const double overhead = with.seconds / without.seconds - 1.0;
  EXPECT_GE(overhead, 0.01);
  EXPECT_LE(overhead, 0.10);
}

TEST(PerfModel, TrafficScalesWithElementSize) {
  const auto t64 = predict_step(fugaku_node, 1000, 500, config_float64());
  const auto t32 = predict_step(fugaku_node, 1000, 500, config_float32());
  const auto t16 = predict_step(fugaku_node, 1000, 500, config_float16());
  EXPECT_NEAR(static_cast<double>(t64.bytes_moved) /
                  static_cast<double>(t32.bytes_moved),
              2.0, 0.05);
  // Compensation adds a little traffic on top of the pure 4x.
  EXPECT_GT(static_cast<double>(t64.bytes_moved) /
                static_cast<double>(t16.bytes_moved),
            3.5);
}

TEST(PerfModel, LargeProblemIsMemoryBound) {
  // The premise of the whole Fig. 5 story (§ III-B: "As
  // ShallowWaters.jl is a memory-bound application...").
  for (const auto& config : {config_float64(), config_float32(),
                             config_float16(), config_float16_32()}) {
    const auto t = predict_step(fugaku_node, 3000, 1500, config);
    EXPECT_GT(t.memory_seconds, t.compute_seconds) << config.name;
  }
}

TEST(PerfModel, Fig4RuntimeRatioNearMeasured) {
  // Fig. 4's caption: "The equivalent Float64 simulation [...] ran
  // 3.6x slower" at 3000x1500. Our model should land in that decade.
  const double ratio =
      predict_step(fugaku_node, 3000, 1500, config_float64()).seconds /
      predict_step(fugaku_node, 3000, 1500, config_float16()).seconds;
  EXPECT_NEAR(ratio, 3.6, 0.5);
}

// ---------------------------------------------------------------------------
// Comm-aware scaling model: the placement-aware predict_halo overload
// (docs/TOPOLOGY.md). Traffic is a property of the decomposition, not
// the placement - messages/bytes must be bit-equal to the flat
// overload (and therefore to the swm.halo_* obs counters the flat
// overload is pinned against in swm_halo_test) - while the placement
// changes only the modeled costs.
// ---------------------------------------------------------------------------

TEST(HaloTopology, PlacementOverloadKeepsTrafficExact) {
  const tfx::mpisim::tofud_params net;
  for (const auto mode : {halo_mode::per_field, halo_mode::aggregated,
                          halo_mode::aggregated_overlap}) {
    for (const auto& place :
         {tfx::mpisim::torus_placement::line(8),
          tfx::mpisim::torus_placement({2, 2, 2}, 4),
          tfx::mpisim::torus_placement({4, 4, 1}, 2)}) {
      const int ranks = place.rank_count();
      const auto flat = predict_halo(net, 96, 8, ranks, mode);
      for (int r = 0; r < ranks; ++r) {
        const auto placed = predict_halo(net, place, r, 96, 8, ranks, mode);
        EXPECT_EQ(placed.messages, flat.messages) << "rank " << r;
        EXPECT_EQ(placed.bytes, flat.bytes) << "rank " << r;
        EXPECT_GE(placed.contended_seconds, placed.seconds) << "rank " << r;
        EXPECT_GE(placed.link_wait_seconds, 0.0) << "rank " << r;
      }
    }
  }
}

TEST(HaloTopology, BlockPlacedRingHaloIsCongestionFree) {
  // The headline finding the docs record: under the block placement
  // the ring halo's dimension-ordered routes never share a directed
  // link (neighbouring ranks share a node or sit on adjacent nodes),
  // so the contention term is pure store-and-forward - no queueing.
  const tfx::mpisim::tofud_params net;
  for (const auto& place : {tfx::mpisim::torus_placement::line(8),
                            tfx::mpisim::torus_placement({4, 4, 1}, 4)}) {
    const int ranks = place.rank_count();
    for (int r = 0; r < ranks; ++r) {
      const auto placed = predict_halo(net, place, r, 64, 8, ranks,
                                       halo_mode::aggregated);
      EXPECT_LE(placed.max_link_flows, 1u) << "rank " << r;
      EXPECT_EQ(placed.link_wait_seconds, 0.0) << "rank " << r;
    }
  }
}

TEST(HaloTopology, IntraNodeNeighboursAreCheaperThanTorusNeighbours) {
  // 4 ranks/node: rank 1's both neighbours share its node, rank 3's up
  // neighbour crosses a link. The placement overload must price them
  // differently; the flat overload cannot.
  const tfx::mpisim::tofud_params net;
  const tfx::mpisim::torus_placement place({4, 1, 1}, 4);
  const auto inner = predict_halo(net, place, 1, 96, 8, 16,
                                  halo_mode::aggregated);
  const auto border = predict_halo(net, place, 3, 96, 8, 16,
                                   halo_mode::aggregated);
  EXPECT_EQ(inner.messages, border.messages);
  EXPECT_EQ(inner.bytes, border.bytes);
  EXPECT_LT(inner.seconds, border.seconds);
}

TEST(HaloTopology, FlatOverloadReportsNoContentionByConstruction) {
  const tfx::mpisim::tofud_params net;
  const auto flat = predict_halo(net, 128, 8, 16, halo_mode::aggregated);
  EXPECT_EQ(flat.contended_seconds, flat.seconds);
  EXPECT_EQ(flat.link_wait_seconds, 0.0);
  EXPECT_EQ(flat.max_link_flows, 0u);
}

TEST(HaloTopology, ScatteredPlacementShowsTheContentionTerm) {
  // A deliberately bad layout - ring neighbours far apart - shares
  // links between flows, so the queueing term fires for some rank and
  // contended strictly exceeds the uncontended bound. Using every
  // fourth rank of a wide allocation spreads neighbours three nodes
  // apart along x with size-4 wrap ties.
  const tfx::mpisim::tofud_params net;
  const tfx::mpisim::torus_placement place({2, 2, 1}, 1);
  // ranks == node_count: ring over 4 nodes; the size-2 dimensions
  // tie-break both directions to +1, so up and down flows collide.
  std::uint64_t worst = 0;
  double wait = 0;
  for (int r = 0; r < place.rank_count(); ++r) {
    const auto placed = predict_halo(net, place, r, 96, 8,
                                     place.rank_count(),
                                     halo_mode::aggregated);
    worst = std::max(worst, placed.max_link_flows);
    wait += placed.link_wait_seconds;
    EXPECT_GE(placed.contended_seconds, placed.seconds);
  }
  EXPECT_GE(worst, 2u);
  EXPECT_GT(wait, 0.0);
}
