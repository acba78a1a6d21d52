// Differential solver oracle: an independent brute-force reference for the
// Solver's quadratic Perf maximisation, plus a reference EPU accumulator.
//
// The oracle re-derives the clamped projection semantics (paper Equations
// 6-7) and the simplex objective from scratch — it shares no code with
// core/solver.cpp — and enumerates the ratio simplex at a configurable
// resolution.  Because the grid is a subset of the feasible region, the
// oracle's objective value is a *lower bound* on the true optimum: a correct
// fast solver must never fall meaningfully below it, and its claimed
// predicted_perf must agree with the oracle's independent evaluation of the
// returned ratios.
//
// run_oracle() is the differential harness: randomized GroupModel sets —
// deliberately including degenerate fits (curvature l ~ 0, inverted/convex
// curvature, idle ~ peak) — are solved by Solver::solve and the
// subset-activation variant and compared against the oracle; the reference
// EPU accumulator is cross-checked against EpuMeter over random step
// sequences in the same pass.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/solver.h"
#include "util/rng.h"
#include "util/units.h"

namespace greenhetero::check {

struct OracleConfig {
  /// Ratio-simplex step of the brute-force enumeration.
  double granularity = 0.02;
  /// Relative slack when comparing against the grid optimum (absorbs the
  /// subset solver's refinement precision).
  double rel_tolerance = 0.02;
  /// Absolute slack in objective units (dominates near-zero objectives).
  double abs_tolerance = 1.0;
  /// Group sets per run (each also gets a subset-solver and an EPU check).
  int max_groups = 3;
};

/// Independent clamped per-server projection (zero below idle, flat above
/// peak, floored at zero) — the oracle's own restatement of
/// GroupModel::perf_at.
[[nodiscard]] double oracle_perf_per_server(const GroupModel& group,
                                            double per_server_w);

/// Independent rack objective for an arbitrary ratio vector.
[[nodiscard]] double oracle_objective(std::span<const GroupModel> groups,
                                      std::span<const double> ratios,
                                      Watts total_supply);

struct OracleSolution {
  std::vector<double> ratios;
  double perf = 0.0;
};

/// Enumerate the ratio simplex at `granularity` and return the best grid
/// point.  Exhaustive and slow by design; supports any group count.
[[nodiscard]] OracleSolution oracle_solve(std::span<const GroupModel> groups,
                                          Watts total_supply,
                                          double granularity);

/// Reference EPU accumulator: plain running energy sums, independent of
/// core/epu.cpp.
class ReferenceEpu {
 public:
  void record(Watts green_supply, Watts useful_draw, Minutes dt);
  [[nodiscard]] double epu() const;

 private:
  double supplied_wh_ = 0.0;
  double useful_wh_ = 0.0;
};

/// Random solver instances for the harness (also reused by tests and the
/// scenario fuzzer).  Draws group count, power ranges, curvature — with a
/// deliberate share of degenerate fits — and the supply level from `rng`.
[[nodiscard]] std::vector<GroupModel> random_group_models(Rng& rng,
                                                          int max_groups = 3);
[[nodiscard]] Watts random_supply(Rng& rng);

/// One fast-vs-oracle mismatch, with enough detail to reproduce it offline.
struct OracleDisagreement {
  std::string what;
  std::vector<GroupModel> groups;
  double supply_w = 0.0;
  double fast_perf = 0.0;
  double reference_perf = 0.0;

  /// One-line human-readable rendering (instance coefficients included).
  [[nodiscard]] std::string describe() const;
};

struct OracleReport {
  int runs = 0;
  std::vector<OracleDisagreement> disagreements;
  [[nodiscard]] bool ok() const { return disagreements.empty(); }
};

/// Optional replacement for the solver under test (the fuzzer's mutation
/// harness injects deliberately broken solvers through this).
using SolveFn =
    std::function<Allocation(std::span<const GroupModel>, Watts)>;

/// The differential harness: `runs` random instances, each checked for
/// (a) structural validity of the solver's solution, (b) agreement to near
/// machine precision between its claimed objective and the oracle's
/// independent evaluation of its ratios, (c) the solver not falling below
/// the brute-force grid optimum, (d) the subset-activation solver
/// dominating the whole-group optimum, and (e) EpuMeter matching the
/// reference accumulator.
[[nodiscard]] OracleReport run_oracle(std::uint64_t seed, int runs,
                                      const OracleConfig& config = {},
                                      const SolveFn& solve_fn = {});

}  // namespace greenhetero::check
