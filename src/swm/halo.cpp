#include "swm/halo.hpp"

namespace tfx::swm {

rhs_compute_split split_rhs_compute(double seconds_per_eval, int local_ny) {
  rhs_compute_split out;
  if (seconds_per_eval <= 0) return out;
  // Both terms are pure functions of (s, local_ny) evaluated only
  // here, so the threaded model and the DES program charge
  // bit-identical doubles (EXPECT_DOUBLE_EQ in the cross-pin test).
  // `s` prices the five passes over the slab's own rows; the two halo
  // rows each of passes 1-2 recompute cost the same per pass-row.
  const int n = local_ny;
  const double per_pass_row = seconds_per_eval / (5.0 * n);
  const int interior_rows = 2 * (n - 2) + 3 * std::max(0, n - 4);
  const int pass_rows = 2 * (n + 2) + 3 * n;
  out.interior = per_pass_row * static_cast<double>(interior_rows);
  out.boundary = per_pass_row * static_cast<double>(pass_rows - interior_rows);
  return out;
}

mpisim::sim_program make_halo_program(int p, int nx, std::size_t elem_bytes,
                                      int steps, double rhs_seconds_per_eval,
                                      int local_ny) {
  mpisim::sim_program prog(p);
  const rhs_compute_split cs =
      split_rhs_compute(rhs_seconds_per_eval, local_ny);
  const std::size_t packed = static_cast<std::size_t>(halo_message_rows) *
                             static_cast<std::size_t>(nx) * elem_bytes;
  for (int r = 0; r < p; ++r) {
    auto& ops = prog.rank(r);
    const int up = (r + 1) % p;
    const int down = (r - 1 + p) % p;
    // Mirrors distributed_model::charge: a zero charge is not emitted
    // (and advance(0) does not move a clock), so the guards agree.
    auto charge = [&ops](double s) {
      if (s > 0) ops.push_back(mpisim::sim_op::compute_for(s));
    };
    // One exchange per RK4 stage. On one rank the wrap is local: no
    // messages, compute still charged.
    for (int stage = 0; stage < 4 * steps; ++stage) {
      if (p > 1) {  // start(): both sends post eagerly
        ops.push_back(mpisim::sim_op::send_to(up, packed));
        ops.push_back(mpisim::sim_op::send_to(down, packed));
      }
      charge(cs.interior);  // interior rows, payloads in flight
      if (p > 1) {  // finish(): wait down, then up
        ops.push_back(mpisim::sim_op::recv_from(down, packed));
        ops.push_back(mpisim::sim_op::recv_from(up, packed));
      }
      charge(cs.boundary);
    }
  }
  return prog;
}

}  // namespace tfx::swm
