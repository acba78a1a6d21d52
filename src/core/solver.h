// Problem Solver (Section IV-B.3).
//
// Given the database's per-server quadratic projections, the Solver finds
// the power allocation ratios (PAR) that maximise total rack performance:
//
//   maximise  sum_i  count_i * Perf_i(ratio_i * P_total / count_i)
//   s.t.      sum_i ratio_i <= 1,  ratio_i >= 0
//
// where Perf_i is the clamped projection (zero below the server's operating
// range, flat above it) and servers of one type share their group's power
// equally.  The surplus ratio 1 - sum(ratio_i) is left for battery charging.
//
// Solver::solve is exact: the objective is a sum of clamped quadratics, and
// once the active set (which groups get any power) is fixed, the KKT
// conditions give the optimum in closed form.  The solver sweeps active sets
// for up to 16 groups and validates every candidate against the full
// clamped objective.  solve_grid (a brute-force simplex scan) remains as the
// Manual policy's engine and the tests' reference.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "core/database.h"
#include "util/units.h"

namespace greenhetero {

class SolverError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What the Solver knows about one server group: the fitted projection, the
/// observed operating range, and the group size.
struct GroupModel {
  Quadratic fit;          ///< per-server Perf = a*P^2 + b*P + c
  Watts min_power{0.0};   ///< below this a server cannot operate
  Watts max_power{0.0};   ///< above this performance is flat
  int count = 1;

  /// Clamped per-server projection (paper Equations 6-7 semantics).
  [[nodiscard]] double perf_at(Watts per_server) const;
  /// Per-server power beyond which more watts buy nothing (the smaller of
  /// max_power and the fitted vertex when the parabola opens downward).
  [[nodiscard]] Watts saturation_power() const;

  /// Build from a database record.
  [[nodiscard]] static GroupModel from_record(const ProfileRecord& record,
                                              int count);

};

/// A solved allocation: one ratio per group (of the total supply), summing
/// to <= 1, plus the model-predicted rack performance.
///
/// `active_counts` is empty for the paper's policies (every server of a
/// group shares its power).  The subset-activation extension fills it: the
/// group's power goes to that many servers and the rest sleep.
struct Allocation {
  std::vector<double> ratios;
  double predicted_perf = 0.0;
  std::vector<int> active_counts;

  [[nodiscard]] double ratio_sum() const;
};

class Solver {
 public:
  /// Main entry, 1..16 groups (more throws SolverError): the closed-form
  /// KKT active-set sweep.  Each group is either off or powered within
  /// [idle floor, saturation]; for every active set the strictly concave
  /// members are water-filled by sweeping the Lagrange multiplier down their
  /// marginal-utility breakpoints, degenerate (near-linear / convex) members
  /// are enumerated at their endpoints plus one residual absorber, and a
  /// weak-duality bound prunes sets that cannot beat the incumbent.  Ties
  /// break toward spending the supply: when leaving every group off is
  /// optimal, the Uniform split (which is then no worse) is returned.
  [[nodiscard]] static Allocation solve(std::span<const GroupModel> groups,
                                        Watts total_supply);

  /// Subset-activation extension (beyond the paper): like solve(), but each
  /// group may concentrate its share on k <= count servers and sleep the
  /// rest — under deep scarcity, fully powering a few servers beats
  /// spreading watts below everyone's floor.  Fills
  /// Allocation::active_counts.
  [[nodiscard]] static Allocation solve_subset(
      std::span<const GroupModel> groups, Watts total_supply);

  /// Best performance a group can extract from `group_budget` when it may
  /// choose how many of its servers to wake; also reports that count.
  [[nodiscard]] static double best_subset_perf(const GroupModel& group,
                                               Watts group_budget,
                                               int* active_out = nullptr);

  /// Exhaustive simplex scan at `granularity` ratio steps — the reference
  /// oracle for tests and the engine of the Manual policy (10% granularity).
  [[nodiscard]] static Allocation solve_grid(std::span<const GroupModel> groups,
                                             Watts total_supply,
                                             double granularity);

  /// Model-predicted performance of an arbitrary ratio vector.
  [[nodiscard]] static double evaluate(std::span<const GroupModel> groups,
                                       std::span<const double> ratios,
                                       Watts total_supply);
};

}  // namespace greenhetero
