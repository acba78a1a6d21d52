// Power allocation policies (Table III of the paper).
//
//   Uniform        heterogeneity-oblivious equal power per server (baseline)
//   Manual         offline oracle trying every allocation at 10% granularity
//                  against measured (ground-truth) behaviour
//   GreenHetero-p  greedy by database energy efficiency (throughput/watt)
//   GreenHetero-a  Solver on the training-run database, never updated
//   GreenHetero    Solver + online database updates every epoch
#pragma once

#include <memory>
#include <string_view>

#include "core/database.h"
#include "core/solver.h"
#include "server/rack.h"
#include "util/units.h"

namespace greenhetero {

enum class PolicyKind {
  kUniform,
  kManual,
  kGreenHeteroP,
  kGreenHeteroA,
  kGreenHetero,
  /// Extension beyond the paper: like GreenHetero, but each group may wake
  /// only a subset of its servers (Solver::solve_subset) — the paper's
  /// equal-split-within-type rule wastes the whole group share when it
  /// falls below everyone's floor.
  kGreenHeteroS,
};

/// The paper's five Table III policies (the subset extension is compared
/// separately, in its own ablation).
inline constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::kUniform, PolicyKind::kManual, PolicyKind::kGreenHeteroP,
    PolicyKind::kGreenHeteroA, PolicyKind::kGreenHetero};

[[nodiscard]] std::string_view to_string(PolicyKind kind);

class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;

  [[nodiscard]] virtual PolicyKind kind() const = 0;

  /// Decide the PAR vector for `rack` under `budget` total watts.
  [[nodiscard]] virtual Allocation allocate(const Rack& rack,
                                            const PerfPowerDatabase& db,
                                            Watts budget) const = 0;

  /// Does the policy consult the performance-power database?  (Triggers a
  /// training run for unseen (server, workload) pairs — Algorithm 1.)
  [[nodiscard]] virtual bool needs_database() const { return false; }
  /// Does the policy refit the database with runtime feedback?
  [[nodiscard]] virtual bool updates_database() const { return false; }
};

[[nodiscard]] std::unique_ptr<AllocationPolicy> make_policy(PolicyKind kind);

/// Build the Solver's view of the rack from database records; throws
/// DatabaseError when a record is missing.
[[nodiscard]] std::vector<GroupModel> group_models_from_db(
    const Rack& rack, const PerfPowerDatabase& db);

}  // namespace greenhetero
