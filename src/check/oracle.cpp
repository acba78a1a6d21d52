#include "check/oracle.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/epu.h"

namespace greenhetero::check {

double oracle_perf_per_server(const GroupModel& group, double per_server_w) {
  // Deliberately restated from the paper (Eq. 6-7 semantics) rather than
  // calling GroupModel::perf_at: below the idle floor the server sleeps and
  // contributes nothing; above peak the curve is flat; negative projections
  // floor at zero.
  if (per_server_w < group.min_power.value()) return 0.0;
  const double p = std::min(per_server_w, group.max_power.value());
  const double value =
      group.fit.a * p * p + group.fit.b * p + group.fit.c;
  return value > 0.0 ? value : 0.0;
}

double oracle_objective(std::span<const GroupModel> groups,
                        std::span<const double> ratios, Watts total_supply) {
  double perf = 0.0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const double count = static_cast<double>(groups[i].count);
    const double per_server =
        std::max(0.0, ratios[i]) * total_supply.value() / count;
    perf += count * oracle_perf_per_server(groups[i], per_server);
  }
  return perf;
}

OracleSolution oracle_solve(std::span<const GroupModel> groups,
                            Watts total_supply, double granularity) {
  const int steps = std::max(1, static_cast<int>(std::lround(1.0 / granularity)));
  const double step = 1.0 / steps;
  std::vector<double> current(groups.size(), 0.0);
  OracleSolution best;
  best.ratios.assign(groups.size(), 0.0);
  best.perf = oracle_objective(groups, best.ratios, total_supply);

  // Enumerate every grid point of the simplex sum(r_i) <= 1 (the surplus is
  // the battery-charging share, so the last coordinate is NOT forced to take
  // the remainder).
  const auto enumerate = [&](auto&& self, std::size_t index,
                             int remaining) -> void {
    if (index + 1 == groups.size()) {
      for (int k = 0; k <= remaining; ++k) {
        current[index] = k * step;
        const double perf = oracle_objective(groups, current, total_supply);
        if (perf > best.perf) {
          best.perf = perf;
          best.ratios = current;
        }
      }
      return;
    }
    for (int k = 0; k <= remaining; ++k) {
      current[index] = k * step;
      self(self, index + 1, remaining - k);
    }
  };
  enumerate(enumerate, 0, steps);
  return best;
}

void ReferenceEpu::record(Watts green_supply, Watts useful_draw, Minutes dt) {
  const double supply_w = green_supply.value();
  const double useful_w = std::min(useful_draw.value(), supply_w);
  supplied_wh_ += supply_w * dt.value() / 60.0;
  useful_wh_ += useful_w * dt.value() / 60.0;
}

double ReferenceEpu::epu() const {
  if (supplied_wh_ <= 0.0) return 0.0;
  return std::clamp(useful_wh_ / supplied_wh_, 0.0, 1.0);
}

std::vector<GroupModel> random_group_models(Rng& rng, int max_groups) {
  const int n = rng.uniform_int(1, std::max(1, max_groups));
  std::vector<GroupModel> groups;
  groups.reserve(static_cast<std::size_t>(n));
  for (int g = 0; g < n; ++g) {
    GroupModel model;
    const double lo = rng.uniform(20.0, 120.0);
    // 1 in 10 instances: idle ~ peak (an almost-empty operating range, the
    // narrowest the validator accepts).
    const double width = rng.bernoulli(0.1) ? rng.uniform(0.2, 2.0)
                                            : rng.uniform(20.0, 150.0);
    const double hi = lo + width;
    double a;
    const int curvature = rng.uniform_int(0, 9);
    if (curvature == 0) {
      a = rng.uniform(-1e-7, 1e-7);  // l ~ 0: essentially linear
    } else if (curvature == 1) {
      a = rng.uniform(5e-4, 2e-2);   // inverted curvature (convex fit)
    } else {
      a = -rng.uniform(5e-4, 5e-2);  // the usual concave case
    }
    // Positive slope entering the range so the curve is not trivially dead.
    const double b = rng.uniform(1.0, 12.0) - 2.0 * a * lo;
    const double c = rng.uniform(-200.0, 50.0);
    model.fit = Quadratic{a, b, c};
    model.min_power = Watts{lo};
    model.max_power = Watts{hi};
    model.count = rng.uniform_int(1, 6);
    groups.push_back(model);
  }
  return groups;
}

Watts random_supply(Rng& rng) { return Watts{rng.uniform(100.0, 3000.0)}; }

std::string OracleDisagreement::describe() const {
  std::ostringstream out;
  out << what << " (fast=" << fast_perf << ", reference=" << reference_perf
      << ", supply=" << supply_w << " W";
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupModel& g = groups[i];
    out << "; g" << i << ": a=" << g.fit.a << " b=" << g.fit.b
        << " c=" << g.fit.c << " range=[" << g.min_power.value() << ","
        << g.max_power.value() << "]W count=" << g.count;
  }
  out << ")";
  return out.str();
}

namespace {

double tolerance(const OracleConfig& config, double scale) {
  return std::max(config.abs_tolerance,
                  config.rel_tolerance * std::fabs(scale));
}

/// Structural validity of a fast solution; returns a complaint or "".
std::string structural_complaint(const Allocation& a, std::size_t expected) {
  if (a.ratios.size() != expected) return "wrong ratio-vector size";
  double sum = 0.0;
  for (double r : a.ratios) {
    if (!std::isfinite(r)) return "non-finite ratio";
    if (r < -1e-9) return "negative ratio";
    sum += r;
  }
  if (sum > 1.0 + 1e-6) return "ratios sum beyond 1";
  if (!std::isfinite(a.predicted_perf)) return "non-finite predicted perf";
  return "";
}

}  // namespace

OracleReport run_oracle(std::uint64_t seed, int runs,
                        const OracleConfig& config, const SolveFn& solve_fn) {
  OracleReport report;
  const Rng master(seed);
  for (int run = 0; run < runs; ++run) {
    Rng rng = master.fork(static_cast<std::uint64_t>(run));
    const std::vector<GroupModel> groups =
        random_group_models(rng, config.max_groups);
    const Watts supply = random_supply(rng);
    ++report.runs;

    const auto disagree = [&](std::string what, double fast,
                              double reference) {
      report.disagreements.push_back(OracleDisagreement{
          std::move(what), groups, supply.value(), fast, reference});
    };

    const OracleSolution reference =
        oracle_solve(groups, supply, config.granularity);

    // (a)+(b)+(c): the main solver (or the injected replacement).  The
    // solver claims exactness on the continuous simplex, so its claimed
    // objective must match the oracle's independent evaluation of its
    // ratios to near machine precision, and it must not fall below the
    // brute-force grid optimum (any grid point bounds the true optimum from
    // below).
    Allocation fast;
    try {
      fast = solve_fn ? solve_fn(groups, supply) : Solver::solve(groups, supply);
    } catch (const std::exception& e) {
      disagree(std::string("solver rejected a valid instance: ") + e.what(),
               0.0, reference.perf);
      continue;
    }
    const std::string complaint =
        structural_complaint(fast, groups.size());
    if (!complaint.empty()) {
      disagree("fast solution invalid: " + complaint, fast.predicted_perf,
               reference.perf);
      continue;
    }
    const double audited = oracle_objective(groups, fast.ratios, supply);
    if (std::fabs(fast.predicted_perf - audited) >
        1e-6 * std::max(1.0, std::fabs(audited))) {
      disagree("claimed objective disagrees with the oracle's evaluation of "
               "the returned ratios",
               fast.predicted_perf, audited);
      continue;
    }
    if (fast.predicted_perf < reference.perf - tolerance(config,
                                                         reference.perf)) {
      disagree("fast solver fell below the brute-force grid optimum",
               fast.predicted_perf, reference.perf);
      continue;
    }

    if (!solve_fn) {
      // (d) subset-activation variant: waking every server is always one of
      // its options, so it must dominate the whole-group optimum.  It only
      // supports up to 3 groups.
      if (groups.size() <= 3) try {
        const Allocation subset = Solver::solve_subset(groups, supply);
        const std::string subset_complaint =
            structural_complaint(subset, groups.size());
        if (!subset_complaint.empty()) {
          disagree("subset solution invalid: " + subset_complaint,
                   subset.predicted_perf, reference.perf);
        } else if (subset.predicted_perf <
                   reference.perf - tolerance(config, reference.perf)) {
          disagree("subset solver fell below the brute-force grid optimum",
                   subset.predicted_perf, reference.perf);
        }
      } catch (const std::exception& e) {
        disagree(std::string("subset solver rejected a valid instance: ") +
                     e.what(),
                 0.0, reference.perf);
      }
    }

    // (e) EPU accumulators agree on a random step sequence.
    Rng epu_rng = rng.fork(0xE9);
    EpuMeter meter;
    ReferenceEpu ref_epu;
    for (int s = 0; s < 40; ++s) {
      const Watts step_supply{epu_rng.uniform(0.0, 3000.0)};
      // Deliberately overshoot sometimes: both sides must cap at the supply.
      const Watts useful{step_supply.value() * epu_rng.uniform(0.0, 1.2)};
      const Minutes dt{epu_rng.uniform(0.1, 10.0)};
      meter.record(step_supply, useful, dt);
      ref_epu.record(step_supply, useful, dt);
    }
    if (std::fabs(meter.epu() - ref_epu.epu()) > 1e-9) {
      disagree("EpuMeter disagrees with the reference EPU accumulator",
               meter.epu(), ref_epu.epu());
    }
  }
  return report;
}

}  // namespace greenhetero::check
