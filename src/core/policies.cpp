#include "core/policies.h"

#include <algorithm>
#include <numeric>

namespace greenhetero {

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kUniform:
      return "Uniform";
    case PolicyKind::kManual:
      return "Manual";
    case PolicyKind::kGreenHeteroP:
      return "GreenHetero-p";
    case PolicyKind::kGreenHeteroA:
      return "GreenHetero-a";
    case PolicyKind::kGreenHetero:
      return "GreenHetero";
    case PolicyKind::kGreenHeteroS:
      return "GreenHetero-s";
  }
  return "?";
}

std::vector<GroupModel> group_models_from_db(const Rack& rack,
                                             const PerfPowerDatabase& db) {
  std::vector<GroupModel> models;
  models.reserve(rack.group_count());
  for (std::size_t i = 0; i < rack.group_count(); ++i) {
    const ProfileKey key{rack.group(i).model, rack.group_workload(i)};
    GroupModel model =
        GroupModel::from_record(db.record(key), rack.group(i).count);
    // The operating window is *system* knowledge, not something to learn:
    // the Server Power Controller builds each server's power-state set S_N
    // (Section IV-B.4), so its lowest/highest state powers bound the
    // feasible allocations exactly.  The database contributes the learned
    // curve *shape*; outside its sampled range the quadratic extrapolates
    // (and the online updates of Algorithm 1 correct it as scarce epochs
    // visit the lower states).
    const DvfsLadder& ladder = rack.group_representative(i).ladder();
    model.min_power = ladder.idle_power();
    model.max_power = ladder.peak_power();
    models.push_back(model);
  }
  return models;
}

namespace {

class UniformPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kUniform;
  }

  [[nodiscard]] Allocation allocate(const Rack& rack,
                                    const PerfPowerDatabase& /*db*/,
                                    Watts /*budget*/) const override {
    // Equal power per *server*, oblivious to type.
    const double total = rack.total_servers();
    Allocation allocation;
    for (std::size_t i = 0; i < rack.group_count(); ++i) {
      allocation.ratios.push_back(
          static_cast<double>(rack.group(i).count) / total);
    }
    return allocation;
  }
};

class ManualPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kManual; }

  [[nodiscard]] Allocation allocate(const Rack& rack,
                                    const PerfPowerDatabase& /*db*/,
                                    Watts budget) const override {
    // Offline oracle: tries every 10%-granular split against the *measured*
    // (ground-truth) curves — this is what a human operator statically
    // sweeping the knobs would find.
    constexpr int kSteps = 10;
    const auto true_perf = [&](std::span<const double> ratios) {
      double total = 0.0;
      for (std::size_t i = 0; i < rack.group_count(); ++i) {
        const double count = rack.group(i).count;
        const Watts per_server{ratios[i] * budget.value() / count};
        const double t = rack.group_curve(i).throughput_at(per_server);
        // Below the operating floor the server sleeps.
        total += per_server.value() >=
                         rack.group_curve(i).idle_power().value()
                     ? count * t
                     : 0.0;
      }
      return total;
    };

    Allocation best;
    best.predicted_perf = -1.0;
    const auto consider = [&](std::vector<double> ratios) {
      const double perf = true_perf(ratios);
      if (perf > best.predicted_perf) {
        best = Allocation{std::move(ratios), perf, {}};
      }
    };
    if (rack.group_count() == 1) {
      consider({1.0});
    } else if (rack.group_count() == 2) {
      for (int i = 0; i <= kSteps; ++i) {
        const double r = static_cast<double>(i) / kSteps;
        consider({r, 1.0 - r});
      }
    } else {
      for (int i = 0; i <= kSteps; ++i) {
        for (int j = 0; i + j <= kSteps; ++j) {
          const double r0 = static_cast<double>(i) / kSteps;
          const double r1 = static_cast<double>(j) / kSteps;
          consider({r0, r1, 1.0 - r0 - r1});
        }
      }
    }
    return best;
  }
};

class GreenHeteroPPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kGreenHeteroP;
  }
  [[nodiscard]] bool needs_database() const override { return true; }

  [[nodiscard]] Allocation allocate(const Rack& rack,
                                    const PerfPowerDatabase& db,
                                    Watts budget) const override {
    // Greedy: rank groups by database energy efficiency, fill each to its
    // peak power before moving to the next.
    const std::vector<GroupModel> models = group_models_from_db(rack, db);
    std::vector<std::size_t> order(models.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const ProfileKey ka{rack.group(a).model, rack.group_workload(a)};
      const ProfileKey kb{rack.group(b).model, rack.group_workload(b)};
      return db.record(ka).peak_efficiency() > db.record(kb).peak_efficiency();
    });

    Allocation allocation;
    allocation.ratios.assign(models.size(), 0.0);
    double remaining = 1.0;
    for (std::size_t idx : order) {
      const GroupModel& g = models[idx];
      const double want = std::min(
          remaining, g.max_power.value() * static_cast<double>(g.count) /
                         budget.value());
      allocation.ratios[idx] = want;
      remaining -= want;
      if (remaining <= 1e-9) break;
    }
    allocation.predicted_perf =
        Solver::evaluate(models, allocation.ratios, budget);
    return allocation;
  }
};

class SolverPolicy final : public AllocationPolicy {
 public:
  SolverPolicy(PolicyKind kind, bool updates) : kind_(kind), updates_(updates) {}

  [[nodiscard]] PolicyKind kind() const override { return kind_; }
  [[nodiscard]] bool needs_database() const override { return true; }
  [[nodiscard]] bool updates_database() const override { return updates_; }

  [[nodiscard]] Allocation allocate(const Rack& rack,
                                    const PerfPowerDatabase& db,
                                    Watts budget) const override {
    return Solver::solve(group_models_from_db(rack, db), budget);
  }

 private:
  PolicyKind kind_;
  bool updates_;
};

class SubsetSolverPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kGreenHeteroS;
  }
  [[nodiscard]] bool needs_database() const override { return true; }
  [[nodiscard]] bool updates_database() const override { return true; }

  [[nodiscard]] Allocation allocate(const Rack& rack,
                                    const PerfPowerDatabase& db,
                                    Watts budget) const override {
    return Solver::solve_subset(group_models_from_db(rack, db), budget);
  }
};

}  // namespace

std::unique_ptr<AllocationPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kUniform:
      return std::make_unique<UniformPolicy>();
    case PolicyKind::kManual:
      return std::make_unique<ManualPolicy>();
    case PolicyKind::kGreenHeteroP:
      return std::make_unique<GreenHeteroPPolicy>();
    case PolicyKind::kGreenHeteroA:
      return std::make_unique<SolverPolicy>(PolicyKind::kGreenHeteroA, false);
    case PolicyKind::kGreenHetero:
      return std::make_unique<SolverPolicy>(PolicyKind::kGreenHetero, true);
    case PolicyKind::kGreenHeteroS:
      return std::make_unique<SubsetSolverPolicy>();
  }
  throw std::invalid_argument("unknown policy kind");
}

}  // namespace greenhetero
