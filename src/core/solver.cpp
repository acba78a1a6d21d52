#include "core/solver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "telemetry/probe.h"
#include "telemetry/telemetry.h"
#include "util/optimize.h"

namespace greenhetero {

double GroupModel::perf_at(Watts per_server) const {
  if (per_server.value() < min_power.value()) return 0.0;
  const double x = std::min(per_server.value(), max_power.value());
  return std::max(fit(x), 0.0);
}

Watts GroupModel::saturation_power() const {
  if (fit.a < 0.0) {
    const double vertex = fit.vertex();
    if (vertex > min_power.value() && vertex < max_power.value()) {
      return Watts{vertex};
    }
  }
  return max_power;
}

GroupModel GroupModel::from_record(const ProfileRecord& record, int count) {
  if (count <= 0) {
    throw SolverError("group model: count must be positive");
  }
  return GroupModel{record.fit, record.min_power, record.max_power, count};
}

double Allocation::ratio_sum() const {
  double total = 0.0;
  for (double r : ratios) total += r;
  return total;
}

namespace {

/// One group's admission check.  A fitted quadratic that evaluates to a
/// non-finite Perf anywhere on [idle, peak] would poison the solver's
/// comparisons (NaN compares false, so the "best" candidate is arbitrary);
/// finite values at both endpoints of the bounded range imply finite
/// coefficients and therefore finite values everywhere between them, so the
/// two evaluations below are a complete check.  Rejecting here — instead of
/// silently clamping downstream — surfaces the corrupted database record to
/// the caller (the controller catches SolverError and falls back to a safe
/// allocation).
void validate_group(const GroupModel& g, std::size_t index) {
  if (g.count <= 0) {
    throw SolverError("solver: group count must be positive");
  }
  if (g.max_power.value() <= g.min_power.value()) {
    throw SolverError("solver: group power range is empty");
  }
  if (!std::isfinite(g.fit(g.min_power.value())) ||
      !std::isfinite(g.fit(g.max_power.value()))) {
    throw SolverError(
        "solver: group " + std::to_string(index) +
        " has a non-finite fitted Perf inside its operating range"
        " (a=" + std::to_string(g.fit.a) + ", b=" + std::to_string(g.fit.b) +
        ", c=" + std::to_string(g.fit.c) +
        ", range=[" + std::to_string(g.min_power.value()) + ", " +
        std::to_string(g.max_power.value()) + "] W)");
  }
}

/// The active-set sweep enumerates subsets of a 16-bit mask; wider racks
/// are rejected rather than solved approximately.
constexpr std::size_t kMaxGroups = 16;

void validate_inputs(std::span<const GroupModel> groups, Watts total_supply,
                     std::size_t max_groups) {
  if (groups.empty() || groups.size() > max_groups) {
    throw SolverError("solver: group count out of range");
  }
  if (total_supply.value() <= 0.0) {
    throw SolverError("solver: total supply must be positive");
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    validate_group(groups[i], i);
  }
}

/// Ratio giving group `g` exactly `per_server` watts per server.
double ratio_for(const GroupModel& g, Watts per_server, Watts total) {
  return per_server.value() * static_cast<double>(g.count) / total.value();
}

/// Highest ratio worth giving to a group (beyond it, watts buy nothing).
double cap_ratio(const GroupModel& g, Watts total) {
  return std::min(1.0, ratio_for(g, g.saturation_power(), total));
}

/// Per-group performance when it receives `ratio` of the supply.
double group_perf(const GroupModel& g, double ratio, Watts total) {
  const Watts per_server{ratio * total.value() / static_cast<double>(g.count)};
  return static_cast<double>(g.count) * g.perf_at(per_server);
}

}  // namespace

double Solver::evaluate(std::span<const GroupModel> groups,
                        std::span<const double> ratios, Watts total_supply) {
  if (ratios.size() != groups.size()) {
    throw SolverError("solver: ratio/group size mismatch");
  }
  double perf = 0.0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    perf += group_perf(groups[i], ratios[i], total_supply);
  }
  return perf;
}

namespace {

/// Counter + trace event for one solver entry-point call (no-op outside a
/// telemetry scope; benches hammering the solver directly stay clean).
/// `iterations` is the solver's unit of search work — objective
/// evaluations — so gh_solver_iterations_total divided by
/// gh_solver_calls_total exposes each entry point's per-call search cost.
void report_solve(const char* backend, std::span<const GroupModel> groups,
                  Watts total_supply, const Allocation& result,
                  std::uint64_t iterations) {
  telemetry::Telemetry* t = telemetry::current();
  if (t == nullptr) return;
  t->metrics()
      .counter("gh_solver_calls_total", {{"backend", backend}})
      .increment();
  t->metrics()
      .counter("gh_solver_iterations_total", {{"backend", backend}})
      .increment(static_cast<double>(iterations));
  t->emit("solve", {{"backend", backend},
                    {"groups", groups.size()},
                    {"supply_w", total_supply.value()},
                    {"ratios", result.ratios},
                    {"predicted_perf", result.predicted_perf}});
}

/// Output sanity guard: a solver must never hand the Enforcer a non-finite
/// or out-of-range allocation.  Non-finite or negative ratios become 0, an
/// over-committed sum is renormalised, and the performance estimate is
/// recomputed after a repair.  (A ratio beyond a group's saturation cap is
/// wasteful but valid — enforcement clamps it — so it is not treated as a
/// defect.)  Repairs count into gh_solver_repairs_total; healthy solves
/// never trip this, so the metric stays absent (and the pass free) in clean
/// runs.
void sanitize_allocation(std::span<const GroupModel> groups, Watts total,
                         bool recompute_perf, Allocation& result) {
  int repairs = 0;
  for (double& r : result.ratios) {
    if (!std::isfinite(r) || r < 0.0) {
      r = 0.0;
      ++repairs;
    }
  }
  const double sum = result.ratio_sum();
  if (sum > 1.0 + 1e-9) {
    for (double& r : result.ratios) r /= sum;
    ++repairs;
  }
  if (!std::isfinite(result.predicted_perf)) {
    result.predicted_perf = 0.0;
    ++repairs;
  }
  if (repairs == 0) return;
  if (recompute_perf && result.ratios.size() == groups.size()) {
    // A poisoned fit can re-introduce NaN through evaluate; clamp once more.
    result.predicted_perf = Solver::evaluate(groups, result.ratios, total);
    if (!std::isfinite(result.predicted_perf)) result.predicted_perf = 0.0;
  }
  if (telemetry::Telemetry* t = telemetry::current()) {
    t->metrics().counter("gh_solver_repairs_total").increment(repairs);
  }
}

}  // namespace

double Solver::best_subset_perf(const GroupModel& group, Watts group_budget,
                                int* active_out) {
  if (group.count <= 0) {
    throw SolverError("subset solver: count must be positive");
  }
  double best = 0.0;
  int best_k = 0;
  // Tolerance for a candidate count that lands a hair below the idle floor:
  // k * min_power divided back by k can dip one ULP under min_power, and
  // perf_at's off-below-idle cliff would zero a feasible activation.  The
  // snap window matches the invariant checker's power tolerance (1e-6 W),
  // so enforcement accepts the snapped plan.  (The saturation boundary has
  // no cliff — perf_at is flat there — so only the floor needs the snap.)
  constexpr double kFloorSnapW = 1e-6;
  for (int k = 1; k <= group.count; ++k) {
    Watts per_server = group_budget / static_cast<double>(k);
    if (per_server.value() < group.min_power.value() &&
        group.min_power.value() - per_server.value() <= kFloorSnapW) {
      per_server = group.min_power;
    }
    const double perf = static_cast<double>(k) * group.perf_at(per_server);
    if (perf > best) {
      best = perf;
      best_k = k;
    }
  }
  if (active_out != nullptr) {
    *active_out = best_k;
  }
  return best;
}

Allocation Solver::solve_subset(std::span<const GroupModel> groups,
                                Watts total_supply) {
  GH_PROBE("gh_solver_solve_subset_ns");
  validate_inputs(groups, total_supply, /*max_groups=*/3);
  const Watts total = total_supply;
  std::uint64_t evals = 0;
  const auto subset_perf = [&](std::size_t g, double ratio) {
    ++evals;
    return best_subset_perf(groups[g], total * std::max(0.0, ratio));
  };

  Allocation best;
  best.predicted_perf = -1.0;
  const auto consider = [&](std::vector<double> ratios) {
    double perf = 0.0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      perf += subset_perf(g, ratios[g]);
    }
    if (perf > best.predicted_perf) {
      best = Allocation{std::move(ratios), perf, {}};
    }
  };

  if (groups.size() == 1) {
    consider({std::min(1.0, cap_ratio(groups[0], total))});
  } else if (groups.size() == 2) {
    const auto objective = [&](double r0) {
      return subset_perf(0, r0) + subset_perf(1, 1.0 - r0);
    };
    ScalarOptimum opt = grid_refine_maximize(objective, 0.0, 1.0, 200);
    // Kinks now exist at every per-server activation boundary of both
    // groups (k servers at min or saturation power).
    auto consider_r0 = [&](double r0) {
      r0 = std::clamp(r0, 0.0, 1.0);
      const double value = objective(r0);
      if (value > opt.value) opt = ScalarOptimum{r0, value};
    };
    for (std::size_t g = 0; g < 2; ++g) {
      for (int k = 1; k <= groups[g].count; ++k) {
        for (const Watts p : {groups[g].min_power,
                              groups[g].saturation_power()}) {
          const double r = p.value() * k / total.value();
          consider_r0(g == 0 ? r : 1.0 - r);
        }
      }
    }
    consider({opt.x, 1.0 - opt.x});
  } else {
    const auto objective = [&](double r0, double r1) {
      const double r2 = std::max(0.0, 1.0 - r0 - r1);
      return subset_perf(0, r0) + subset_perf(1, r1) + subset_perf(2, r2);
    };
    const PlanarOptimum opt =
        grid_refine_maximize_2d(objective, 0.0, 1.0, 0.0, 1.0, 1.0, 64, 5);
    consider({opt.x, opt.y, std::max(0.0, 1.0 - opt.x - opt.y)});
  }

  // Derive the activation counts and trim each ratio to what its subset can
  // actually use (the surplus goes to battery charging).
  best.active_counts.assign(groups.size(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    int k = 0;
    (void)best_subset_perf(groups[g], total * best.ratios[g], &k);
    best.active_counts[g] = k;
    if (k > 0) {
      const double usable =
          groups[g].saturation_power().value() * k / total.value();
      best.ratios[g] = std::min(best.ratios[g], usable);
    } else {
      best.ratios[g] = 0.0;
    }
  }
  best.predicted_perf = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    best.predicted_perf += subset_perf(g, best.ratios[g]);
  }
  // Subset performance is computed against activation counts, so a repair
  // must not overwrite it with the whole-group estimate.
  sanitize_allocation(groups, total_supply, /*recompute_perf=*/false, best);
  report_solve("subset", groups, total_supply, best, evals);
  return best;
}

Allocation Solver::solve_grid(std::span<const GroupModel> groups,
                              Watts total_supply, double granularity) {
  GH_PROBE("gh_solver_solve_grid_ns");
  validate_inputs(groups, total_supply, /*max_groups=*/8);
  if (granularity <= 0.0 || granularity > 0.5) {
    throw SolverError("solver: granularity must be in (0, 0.5]");
  }
  const int steps = static_cast<int>(std::lround(1.0 / granularity));
  Allocation best;
  best.predicted_perf = -1.0;
  std::uint64_t evals = 0;
  const auto consider = [&](const std::vector<double>& ratios) {
    ++evals;
    const double perf = evaluate(groups, ratios, total_supply);
    if (perf > best.predicted_perf) {
      best = Allocation{ratios, perf, {}};
    }
  };
  // Recursive simplex enumeration: groups 0..n-2 scan the remaining steps,
  // the last group takes whatever is left (giving it less never helps the
  // others, and extra power beyond its saturation is harmlessly clamped).
  std::vector<double> ratios(groups.size(), 0.0);
  const auto enumerate = [&](auto&& self, std::size_t g,
                             int steps_left) -> void {
    if (g + 1 == groups.size()) {
      ratios[g] = static_cast<double>(steps_left) / steps;
      consider(ratios);
      return;
    }
    for (int i = 0; i <= steps_left; ++i) {
      ratios[g] = static_cast<double>(i) / steps;
      self(self, g + 1, steps_left - i);
    }
  };
  enumerate(enumerate, 0, steps);
  sanitize_allocation(groups, total_supply, /*recompute_perf=*/true, best);
  report_solve("grid", groups, total_supply, best, evals);
  return best;
}

namespace {

// ---------------------------------------------------------------------------
// The closed-form KKT / water-filling sweep behind Solver::solve.
//
// Each group's feasible per-server power is {0} ∪ [lo, hi]: the idle cliff
// makes the problem non-convex, but once an *active set* is fixed (which
// groups get any power at all) the objective is a sum of clamped quadratics
// and the KKT conditions solve it in closed form.  The sweep enumerates
// active sets (pruned by a weak-duality bound built from the incumbent's
// multiplier), water-fills each set's strictly concave members by sweeping
// the Lagrange multiplier down the sorted marginal-utility breakpoints, and
// enumerates endpoint configurations for degenerate (near-linear / convex)
// members.  Every candidate is validated against the full clamped objective
// through the same ratio round-trip evaluate() performs, so the winning
// value is exactly what the caller will observe.
//
// All working state is fixed-capacity and lives on the caller's stack: a
// solve allocates only its returned ratio vector, on any thread.
// ---------------------------------------------------------------------------

/// Curvature above this is treated as degenerate (near-linear or convex):
/// the interior stationary point either does not exist or hides behind an
/// ill-conditioned division by 2a, so the group is handled by endpoint
/// enumeration instead of water-filling.
constexpr double kEdgeCurvature = -1e-6;

/// Endpoint-configuration budget per active set.  More than 8 degenerate
/// members is pathological; the overflow is pinned at its better endpoint
/// (the candidate is still validated against the clamped objective).
constexpr int kMaxEdgeBits = 8;

using Ratios = std::array<double, kMaxGroups>;

/// One group's precomputed KKT view.  No default member initialisers:
/// KktSweep holds kMaxGroups of them and kkt_precompute value-initialises
/// only the ones it fills.
struct KktGroup {
  const GroupModel* model;
  double n;       ///< server count
  double a;       ///< fit curvature
  double b;       ///< fit slope at 0 W
  double min_w;   ///< the off-below-idle cliff
  double lo;      ///< effective floor: cliff, lifted to the fit's first zero
                  ///< when Perf(min_w) clamps to 0
  double hi;      ///< saturation: beyond this more watts buy nothing
  double w_lo;    ///< n * lo
  double w_hi;    ///< n * hi
  double f_lo;    ///< clamped per-server Perf at lo
  double f_hi;    ///< clamped per-server Perf at hi
  double d_lo;    ///< fit slope at lo (the marginal entering the range)
  double d_hi;    ///< fit slope at hi
  double na;      ///< n / (2a) (0 when the curvature vanishes)
  double nb;      ///< n * b / (2a)
  double inv_2a;  ///< 1 / (2a) — the water-filling response slope
  double z;       ///< n * Perf at 0 W (non-zero only when min_w == 0)
  double u;       ///< n * max(f_lo, f_hi) - z: crude subset bound term
  std::size_t index;  ///< position in the caller's group list
  bool edge;          ///< degenerate curvature: endpoint treatment
};

/// Build the KKT view of one (already validated) group.  Returns false when
/// the group cannot contribute positive performance anywhere in its range —
/// it is left out of the active-set sweep and always gets ratio 0.
bool kkt_precompute(const GroupModel& model, std::size_t index, KktGroup& g) {
  g = KktGroup{};
  g.model = &model;
  g.index = index;
  g.n = static_cast<double>(model.count);
  g.a = model.fit.a;
  g.b = model.fit.b;
  g.min_w = model.min_power.value();
  const double c = model.fit.c;
  const auto per_server = [&](double p) { return model.perf_at(Watts{p}); };
  double hi = model.saturation_power().value();
  double lo = g.min_w;
  if (model.fit(g.min_w) < 0.0) {
    if (model.fit(hi) <= 0.0) return false;  // Perf <= 0 on the useful range
    // The fit's first zero in (min_w, hi]: powering the group below it
    // yields zero Perf, so the effective floor moves up to the root.
    // Stable roots via the q-formula; linear root when curvature vanishes.
    double root = hi;
    if (std::fabs(g.a) > 1e-300) {
      const double disc = g.b * g.b - 4.0 * g.a * c;
      if (disc > 0.0) {
        const double q = -0.5 * (g.b + std::copysign(std::sqrt(disc), g.b));
        double found = std::numeric_limits<double>::infinity();
        const double r1 = q / g.a;
        const double r2 =
            q != 0.0 ? c / q : std::numeric_limits<double>::infinity();
        for (double r : {r1, r2}) {
          if (std::isfinite(r) && r > g.min_w && r <= hi && r < found) {
            found = r;
          }
        }
        if (std::isfinite(found)) root = found;
      }
    } else if (g.b != 0.0) {
      const double r = -c / g.b;
      if (std::isfinite(r) && r > g.min_w && r <= hi) root = r;
    }
    lo = root;
  }
  if (lo > hi) lo = hi;
  g.lo = lo;
  g.hi = hi;
  g.w_lo = g.n * lo;
  g.w_hi = g.n * hi;
  g.f_lo = per_server(lo);
  g.f_hi = per_server(hi);
  g.z = g.n * per_server(0.0);
  g.u = g.n * std::max(g.f_lo, g.f_hi) - g.z;
  if (g.n * std::max(g.f_lo, g.f_hi) <= 0.0) return false;
  g.d_lo = 2.0 * g.a * lo + g.b;
  g.d_hi = 2.0 * g.a * hi + g.b;
  if (g.a != 0.0) {
    g.inv_2a = 1.0 / (2.0 * g.a);
    g.na = g.n / (2.0 * g.a);
    g.nb = g.n * g.b / (2.0 * g.a);
  }
  g.edge = g.a >= kEdgeCurvature;
  return true;
}

/// The best candidate seen so far: its clamped-objective value, its ratio
/// vector (indexed like the caller's group list), and the multiplier of the
/// configuration that produced it (used for the dual pruning bound).
struct Candidate {
  double value = -std::numeric_limits<double>::infinity();
  Ratios ratios{};
  double lambda = 0.0;
};

/// One solve's working state.
struct KktSweep {
  std::array<KktGroup, kMaxGroups> groups;  ///< useful groups, first m
  std::size_t m = 0;
  std::size_t total_groups = 0;  ///< the caller's group count
  double P = 0.0;                ///< total supply (W)
  std::uint64_t evals = 0;
  Candidate best;
  Ratios cand{};

  [[nodiscard]] std::span<const KktGroup> useful() const {
    return {groups.data(), m};
  }

  /// Convert a per-server candidate (indexed like `groups`, 0 = inactive)
  /// into `cand` ratios and return its value through the same ratio round
  /// trip evaluate() performs.  A ratio meant to put a group exactly on a
  /// floor can land one ULP below it after the round trip, which the idle
  /// cliff would punish with the whole group's performance — nudge such
  /// ratios up until the round trip clears the cliff.
  double assemble(std::span<const double> per_server) {
    ++evals;
    std::fill_n(cand.begin(), total_groups, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      const KktGroup& g = groups[j];
      const double p = per_server[j];
      if (p <= 0.0) continue;
      double ratio = g.n * p / P;
      if (p >= g.min_w) {
        for (int guard = 0; guard < 4 && ratio * P / g.n < g.min_w; ++guard) {
          ratio = std::nextafter(ratio, 2.0);
        }
      }
      cand[g.index] = ratio;
    }
    double value = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const KktGroup& g = groups[j];
      value += group_perf(*g.model, cand[g.index], Watts{P});
    }
    return value;
  }

  /// Keep `cand` (worth `value`, produced at multiplier `lambda`) when it
  /// strictly beats the incumbent, so the first achiever of the optimum
  /// wins.
  void offer(double value, double lambda) {
    if (value > best.value) {
      best.value = value;
      best.lambda = lambda;
      best.ratios = cand;
    }
  }

  double solve_mask(std::uint32_t mask);
};

/// Solve one active set: enumerate its endpoint configurations, water-fill
/// the strictly concave members per configuration, validate every candidate
/// and offer it to the incumbent.  Returns the best value this mask
/// achieved, or -inf when its floors alone blow the budget.
double KktSweep::solve_mask(std::uint32_t mask) {
  const std::span<const KktGroup> gs = useful();
  std::array<std::uint8_t, kMaxGroups> concave{};
  std::array<std::uint8_t, kMaxGroups> edge{};
  std::array<std::uint8_t, kMaxGroups> pinned{};
  int n_concave = 0, n_edge = 0, n_pinned = 0;
  double floor_w = 0.0;
  for (std::uint32_t mm = mask; mm != 0; mm &= mm - 1) {
    const int j = std::countr_zero(mm);
    const KktGroup& g = gs[static_cast<std::size_t>(j)];
    floor_w += g.w_lo;
    if (g.hi - g.lo < 1e-12) {
      pinned[n_pinned++] = static_cast<std::uint8_t>(j);
    } else if (g.edge) {
      edge[n_edge++] = static_cast<std::uint8_t>(j);
    } else {
      concave[n_concave++] = static_cast<std::uint8_t>(j);
    }
  }
  if (floor_w > P) return -std::numeric_limits<double>::infinity();

  double concave_floor = 0.0;
  for (int k = 0; k < n_concave; ++k) {
    concave_floor += gs[concave[static_cast<std::size_t>(k)]].w_lo;
  }

  double mask_best = -std::numeric_limits<double>::infinity();
  std::array<double, kMaxGroups> p{};

  const auto consider = [&](double lambda) {
    const double value = assemble({p.data(), m});
    if (value > mask_best) mask_best = value;
    offer(value, lambda);
  };

  /// Concave members' per-server response at multiplier λ, written into p.
  const auto place_concave = [&](double lambda) {
    double used = 0.0;
    for (int k = 0; k < n_concave; ++k) {
      const std::uint8_t j = concave[static_cast<std::size_t>(k)];
      const KktGroup& g = gs[j];
      double pj = g.lo;
      if (g.d_lo > 0.0) {
        pj = std::clamp((lambda - g.b) * g.inv_2a, g.lo, g.hi);
      }
      p[j] = pj;
      used += g.n * pj;
    }
    return used;
  };

  // Outer loop: which degenerate member (if any) absorbs the budget at an
  // interior point.  A convex member can sit strictly inside (lo, hi) at
  // the optimum only as the single budget-balancing absorber — two interior
  // convex members could trade watts for a second-order gain — so trying
  // one absorber at a time is exhaustive.  A near-linear absorber fills at
  // its flat marginal λ = b instead of via the 1/(2a) root machinery.
  for (int absorber = -1; absorber < n_edge; ++absorber) {
    const KktGroup* ab = nullptr;
    std::uint8_t ab_index = 0;
    if (absorber >= 0) {
      ab_index = edge[static_cast<std::size_t>(absorber)];
      ab = &gs[ab_index];
    }
    std::array<std::uint8_t, kMaxGroups> free_edges{};
    int n_free = 0;
    for (int k = 0; k < n_edge; ++k) {
      if (k != absorber) free_edges[n_free++] = edge[static_cast<std::size_t>(k)];
    }
    const int cfg_bits = std::min(n_free, kMaxEdgeBits);

    for (int cfg = 0; cfg < (1 << cfg_bits); ++cfg) {
      p.fill(0.0);
      double fixed_w = 0.0;
      for (int k = 0; k < n_pinned; ++k) {
        const KktGroup& g = gs[pinned[static_cast<std::size_t>(k)]];
        p[pinned[static_cast<std::size_t>(k)]] = g.lo;
        fixed_w += g.w_lo;
      }
      for (int k = 0; k < n_free; ++k) {
        const KktGroup& g = gs[free_edges[static_cast<std::size_t>(k)]];
        const bool at_hi = k < cfg_bits ? ((cfg >> k) & 1) != 0
                                        : g.f_hi > g.f_lo;
        p[free_edges[static_cast<std::size_t>(k)]] = at_hi ? g.hi : g.lo;
        fixed_w += at_hi ? g.w_hi : g.w_lo;
      }
      if (fixed_w + concave_floor + (ab != nullptr ? ab->w_lo : 0.0) > P) {
        continue;  // this configuration overdraws even at the floors
      }
      const double budget = P - fixed_w;

      if (ab != nullptr && ab->a < 1e-6) {
        // Near-linear absorber: its marginal is essentially the constant b,
        // so dV/dλ flips sign exactly at λ = b — the joint optimum fills
        // the concave members to that marginal and hands the remainder to
        // the absorber.  (This sidesteps the ill-conditioned 1/(2a) root
        // machinery entirely; the O(|a|·range²) curvature term is far
        // below the oracle's tolerance.)
        const double lambda = std::max(ab->b, 0.0);
        const double used = place_concave(lambda);
        const double leftover = budget - used;
        if (leftover >= ab->w_lo - 1e-9) {
          p[ab_index] = std::min(ab->hi, std::max(ab->lo, leftover / ab->n));
          consider(lambda);
        }
        continue;
      }

      // λ-breakpoint sweep.  Each member's per-server response
      // p_i(λ) = clamp((λ - b_i) / (2 a_i), lo_i, hi_i) is piecewise linear
      // in λ, so the set's total draw is too; walk λ down the sorted
      // breakpoints (the fit marginals at each member's lo and hi) and
      // solve each linear segment for budget crossings.  Without an
      // absorber the draw is monotone (first crossing wins); the convex
      // absorber's draw *rises* with λ, so every segment's root is a KKT
      // candidate and all of them are evaluated.
      struct Breakpoint {
        double lam;
        std::uint8_t j;
        std::uint8_t kind;  ///< 0/1 concave leaves-lo/saturates;
                            ///< 2/3 absorber leaves-hi/reaches-lo
      };
      std::array<Breakpoint, 2 * kMaxGroups + 2> bps;
      int n_bps = 0;
      double w_base = concave_floor;  // watts of members clamped at an endpoint
      double sum_a = 0.0;             // Σ n/(2a) over free members
      double sum_b = 0.0;             // Σ n*b/(2a) over free members
      for (int k = 0; k < n_concave; ++k) {
        const std::uint8_t j = concave[static_cast<std::size_t>(k)];
        const KktGroup& g = gs[j];
        if (g.d_lo <= 0.0) continue;  // marginal never positive: stays at lo
        bps[n_bps++] = {g.d_lo, j, 0};
        if (g.d_hi > 0.0) bps[n_bps++] = {g.d_hi, j, 1};
      }
      if (ab != nullptr) {
        w_base += ab->w_hi;  // at λ = ∞ a convex absorber clamps at hi
        if (ab->d_hi > 0.0) bps[n_bps++] = {ab->d_hi, ab_index, 2};
        if (ab->d_lo > 0.0) bps[n_bps++] = {ab->d_lo, ab_index, 3};
      }
      // Insertion sort: n_bps <= 2 * kMaxGroups and typically < 8, where
      // this beats std::sort.  The (lam, j, kind) key is unique per entry,
      // so any correct sort yields the same sequence.
      const auto bp_before = [](const Breakpoint& x, const Breakpoint& y) {
        if (x.lam != y.lam) return x.lam > y.lam;
        if (x.j != y.j) return x.j < y.j;
        return x.kind < y.kind;
      };
      for (int k = 1; k < n_bps; ++k) {
        const Breakpoint key = bps[static_cast<std::size_t>(k)];
        int t = k - 1;
        while (t >= 0 && bp_before(key, bps[static_cast<std::size_t>(t)])) {
          bps[static_cast<std::size_t>(t + 1)] = bps[static_cast<std::size_t>(t)];
          --t;
        }
        bps[static_cast<std::size_t>(t + 1)] = key;
      }

      const auto place_absorber = [&](double lambda) {
        if (ab == nullptr) return;
        p[ab_index] = std::clamp((lambda - ab->b) * ab->inv_2a, ab->lo, ab->hi);
      };
      const auto try_root = [&](double lam_lo, double lam_hi) {
        if (sum_a == 0.0) return false;
        const double lam_r = (budget - w_base + sum_b) / sum_a;
        if (!(lam_r >= lam_lo - 1e-9 && lam_r <= lam_hi + 1e-9)) return false;
        const double lambda =
            std::max(std::clamp(lam_r, lam_lo, lam_hi), 0.0);
        place_concave(lambda);
        place_absorber(lambda);
        consider(lambda);
        return true;
      };

      double lam_prev = std::numeric_limits<double>::infinity();
      bool crossed = false;
      for (int k = 0; k < n_bps; ++k) {
        const double lam_k = std::max(bps[k].lam, 0.0);
        if (ab != nullptr) {
          // Non-monotone draw: harvest every segment's budget crossing.
          crossed = try_root(lam_k, lam_prev) || crossed;
        } else {
          const double w_at = w_base + sum_a * lam_k - sum_b;
          if (w_at >= budget) {
            const double lambda =
                sum_a < 0.0 ? std::clamp((budget - w_base + sum_b) / sum_a,
                                         lam_k, lam_prev)
                            : lam_k;
            place_concave(std::max(lambda, 0.0));
            consider(std::max(lambda, 0.0));
            crossed = true;
            break;
          }
        }
        if (bps[k].lam <= 0.0) break;  // λ* >= 0: lower breakpoints moot
        const KktGroup& g = gs[bps[k].j];
        switch (bps[k].kind) {
          case 0:  // concave member leaves its floor
            w_base -= g.w_lo;
            sum_a += g.na;
            sum_b += g.nb;
            break;
          case 1:  // concave member saturates
            sum_a -= g.na;
            sum_b -= g.nb;
            w_base += g.w_hi;
            break;
          case 2:  // absorber drops below hi into the interior
            w_base -= g.w_hi;
            sum_a += g.na;
            sum_b += g.nb;
            break;
          default:  // absorber reaches its floor
            sum_a -= g.na;
            sum_b -= g.nb;
            w_base += g.w_lo;
            break;
        }
        lam_prev = lam_k;
      }
      if (ab != nullptr) {
        // The final segment [0, lam_prev] can hold one more root.  A
        // root-free absorber configuration produces no candidate at all:
        // its endpoint variants are covered by the absorber-less pass.
        (void)try_root(0.0, lam_prev);
      } else if (!crossed) {
        // No binding crossing at λ >= 0.  Either the final segment still
        // crosses, or the set cannot use the budget and the surplus
        // charges the battery.
        double lambda = 0.0;
        const double w_at0 = w_base - sum_b;
        if (w_at0 >= budget && sum_a < 0.0) {
          lambda = std::clamp((budget - w_base + sum_b) / sum_a, 0.0,
                              lam_prev);
        }
        lambda = std::max(lambda, 0.0);
        const double used = place_concave(lambda);
        consider(lambda);
        // Leftover handed to a degenerate member held at its floor
        // (splitting it never beats a single recipient at this curvature);
        // covers surplus the λ machinery leaves behind.
        const double leftover = std::max(0.0, budget - used);
        if (leftover > 1e-9) {
          for (int k = 0; k < n_free; ++k) {
            const std::uint8_t j = free_edges[static_cast<std::size_t>(k)];
            const KktGroup& g = gs[j];
            if (p[j] != g.lo || g.hi <= g.lo) continue;
            const double saved = p[j];
            p[j] = std::min(g.hi, g.lo + leftover / g.n);
            consider(lambda);
            p[j] = saved;
          }
        }
      }
    }
  }
  return mask_best;
}

/// Sweep the active sets of the useful groups; leaves the optimum in
/// `s.best`.
void kkt_sweep(KktSweep& s) {
  const std::size_t m = s.m;
  const std::span<const KktGroup> gs = s.useful();
  const double P = s.P;

  // Baseline candidate: everything off (it is the only feasible point when
  // every floor exceeds the budget, and it anchors comparisons when groups
  // are live at 0 W because their floor is 0).
  std::array<double, kMaxGroups> p{};
  s.offer(s.assemble({p.data(), m}), 0.0);
  if (m == 0) return;

  double sum_w_hi = 0.0;
  double z_total = 0.0;
  for (const KktGroup& g : gs) {
    sum_w_hi += g.w_hi;
    z_total += g.z;
  }
  if (sum_w_hi <= P) {
    // Abundance fast path: every group can afford its own best point, so
    // the optimum decouples into per-group argmaxes over {off, lo, hi}
    // (concave members rise to hi; a decreasing or convex fit may prefer
    // its floor or staying off).
    for (std::size_t j = 0; j < m; ++j) {
      const KktGroup& g = gs[j];
      const double f0 = g.z / g.n;
      if (g.f_hi >= g.f_lo && g.f_hi >= f0) {
        p[j] = g.hi;
      } else if (g.f_lo >= f0) {
        p[j] = g.lo;
      } else {
        p[j] = 0.0;
      }
    }
    s.offer(s.assemble({p.data(), m}), 0.0);
    return;
  }

  const std::uint32_t full = (std::uint32_t{1} << m) - 1;
  const double full_value = s.solve_mask(full);

  // Weak-duality pruning bound.  For any λ >= 0 and any candidate of any
  // mask:  value <= λ·P + Σ_{i∉mask} z_i + Σ_{i∈mask} score_i(λ), where
  // score_i = max_p (n·Perf_i(p) - λ·n·p) over p ∈ [lo, hi].  With λ taken
  // from the incumbent's configuration the bound is tight at the optimum,
  // so subsets that merely re-shuffle watts are rejected without being
  // solved.  Rebuilt every time the incumbent improves, which keeps it
  // tight as the enumeration runs.
  std::array<double, kMaxGroups> adj{};
  const bool have_dual = full_value > -std::numeric_limits<double>::infinity();
  double dual_base = z_total;
  const auto rebuild_dual = [&](double lam) {
    dual_base = lam * P + z_total;
    for (std::size_t j = 0; j < m; ++j) {
      const KktGroup& g = gs[j];
      double sc = std::max(g.n * g.f_lo - lam * g.w_lo,
                           g.n * g.f_hi - lam * g.w_hi);
      // A concave member's score peaks strictly inside (lo, hi) only when
      // λ sits between the endpoint marginals; otherwise the clamped
      // interior point is one of the endpoints above.
      if (g.a < 0.0 && lam < g.d_lo && lam > g.d_hi) {
        const double pp = (lam - g.b) * g.inv_2a;
        sc = std::max(sc, g.n * g.model->perf_at(Watts{pp}) - lam * g.n * pp);
      }
      adj[j] = sc - g.z;
    }
  };
  if (have_dual) rebuild_dual(std::max(s.best.lambda, 0.0));

  // Exact bound test for one mask, used on the few masks that survive the
  // droppable-set filter below (and on every mask when no dual bound is
  // available).  Returns true when the incumbent improved.
  const auto test_and_solve = [&](std::uint32_t mask) {
    double ub = z_total;
    double floors = 0.0;
    double dual = dual_base;
    for (std::uint32_t mm = mask; mm != 0; mm &= mm - 1) {
      const auto j = static_cast<std::size_t>(std::countr_zero(mm));
      ub += gs[j].u;
      floors += gs[j].w_lo;
      dual += adj[j];
    }
    if (floors > P) return false;
    const double bound = have_dual ? std::min(ub, dual) : ub;
    if (bound < s.best.value) return false;
    const double before = s.best.value;
    (void)s.solve_mask(mask);
    return s.best.value > before;
  };

  if (!have_dual) {
    // The full set cannot pay its floors: no dual multiplier exists, so
    // fall back to the crude bound over every proper subset.
    for (std::uint32_t mask = full - 1; mask != 0; --mask) {
      (void)test_and_solve(mask);
    }
    return;
  }

  // Droppable-set enumeration.  A mask survives the dual bound only if
  // bound(mask) = bound(full) - Σ_{j∈C} adj_j >= T for its complement C,
  // which forces every j ∈ C to satisfy
  //   max(adj_j, 0) <= bound(full) - T - Σ_k min(adj_k, 0).
  // Only subsets of that droppable set D are enumerated — typically a
  // handful of masks instead of 2^m.  When a solve improves the incumbent,
  // the dual is rebuilt around it and the (now smaller) family is
  // re-derived; solved masks are remembered so every mask is solved at
  // most once and the rounds terminate.
  std::array<std::uint64_t, (std::size_t{1} << kMaxGroups) / 64> solved;
  std::fill_n(solved.begin(), (std::size_t{full} >> 6) + 1, 0);
  for (bool improved = true; improved;) {
    improved = false;
    double sum_adj = 0.0;
    double neg_sum = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      sum_adj += adj[j];
      neg_sum += std::min(adj[j], 0.0);
    }
    const double bound_full = dual_base + sum_adj;
    const double slack = bound_full - s.best.value - neg_sum + 1e-6;
    std::uint32_t droppable = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (std::max(adj[j], 0.0) <= slack) droppable |= std::uint32_t{1} << j;
    }
    // Non-empty subsets of `droppable` in ascending order (single drops
    // come before their unions).
    for (std::uint32_t comp = (0u - droppable) & droppable; comp != 0;
         comp = (comp - droppable) & droppable) {
      const std::uint32_t mask = full ^ comp;
      if (mask == 0) continue;
      std::uint64_t& word = solved[mask >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (mask & 63);
      if ((word & bit) != 0) continue;
      word |= bit;
      if (test_and_solve(mask)) {
        rebuild_dual(std::max(s.best.lambda, 0.0));
        improved = true;
        break;
      }
    }
  }
}

}  // namespace

Allocation Solver::solve(std::span<const GroupModel> groups,
                         Watts total_supply) {
  GH_PROBE("gh_solver_solve_ns");
  validate_inputs(groups, total_supply, kMaxGroups);
  KktSweep s;
  s.total_groups = groups.size();
  s.P = total_supply.value();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (kkt_precompute(groups[i], i, s.groups[s.m])) ++s.m;
  }
  kkt_sweep(s);

  // The best value was computed through the exact ratio round trip
  // evaluate() performs (groups left out of the sweep contribute an exact
  // 0.0), so it already *is* the validated objective.
  Allocation result{
      std::vector<double>(s.best.ratios.begin(),
                          s.best.ratios.begin() +
                              static_cast<std::ptrdiff_t>(groups.size())),
      s.best.value,
      {}};
  // Break ties toward spending the supply: when leaving every group off is
  // optimal (every floor exceeds the budget, or no group can earn anything),
  // the Uniform split earns no less and keeps the supply in use.
  if (result.ratio_sum() == 0.0) {
    double servers = 0.0;
    for (const GroupModel& g : groups) servers += static_cast<double>(g.count);
    std::vector<double> uniform;
    uniform.reserve(groups.size());
    for (const GroupModel& g : groups) {
      uniform.push_back(static_cast<double>(g.count) / servers);
    }
    ++s.evals;
    const double value = evaluate(groups, uniform, total_supply);
    if (value >= result.predicted_perf) {
      result = Allocation{std::move(uniform), value, {}};
    }
  }
  sanitize_allocation(groups, total_supply, /*recompute_perf=*/true, result);
  report_solve("kkt", groups, total_supply, result, s.evals);
  return result;
}

}  // namespace greenhetero
