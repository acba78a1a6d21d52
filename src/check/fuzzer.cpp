#include "check/fuzzer.h"

#include <array>
#include <cmath>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "check/invariants.h"
#include "check/oracle.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "server/server_spec.h"
#include "trace/load_pattern.h"
#include "trace/solar.h"
#include "util/rng.h"
#include "workload/workload_spec.h"

namespace greenhetero::check {
namespace {

// Scenario geometry.  The epoch length is fixed (fleet lockstep requires a
// single length anyway) and the fault plan is always derived for the maximum
// run duration, so shrinking the epoch count never re-rolls the plan.
constexpr double kEpochMinutes = 15.0;
constexpr int kMaxEpochs = 10;
constexpr int kMaxRacks = 3;
/// Ascending-search ceiling when shrinking an unlimited fault budget; safely
/// above anything make_random_plan emits.
constexpr int kFaultShrinkCap = 24;
/// Total scenario re-executions the shrinker may spend.
constexpr int kShrinkBudget = 40;

/// The five CPU platforms (GPU racks need the Rodinia-only workload set and
/// are out of scope for the fuzzer's uniform-workload racks).
constexpr std::array<ServerModel, 5> kCpuModels = {
    ServerModel::kXeonE5_2620, ServerModel::kXeonE5_2650,
    ServerModel::kXeonE5_2603, ServerModel::kCoreI7_8700K,
    ServerModel::kCoreI5_4460};

/// Everything derived for one rack.  Derivation draws only from the rack's
/// own fork of the run RNG, so racks are independent and prefix-stable.
RackSimulator make_rack_sim(const FuzzScenario& scenario, int rack_index) {
  Rng rack_rng = Rng(scenario.seed)
                     .fork(static_cast<std::uint64_t>(scenario.run_index))
                     .fork(1000 + static_cast<std::uint64_t>(rack_index));

  const int group_count = rack_rng.uniform_int(1, 3);
  std::vector<ServerGroup> groups;
  for (int g = 0; g < group_count; ++g) {
    ServerGroup group;
    group.model = kCpuModels[static_cast<std::size_t>(
        rack_rng.uniform_int(0, static_cast<int>(kCpuModels.size()) - 1))];
    group.count = rack_rng.uniform_int(1, 4);
    groups.push_back(group);
  }

  const std::span<const Workload> pool = figure9_workloads();
  Workload workload =
      pool[static_cast<std::size_t>(rack_rng.uniform_int(
          0, static_cast<int>(pool.size()) - 1))];
  for (const ServerGroup& group : groups) {
    if (!default_catalog().runnable(group.model, workload)) {
      workload = Workload::kSpecJbb;
      break;
    }
  }
  Rack rack{std::move(groups), workload};

  SimConfig cfg;
  cfg.controller.policy = kAllPolicies[static_cast<std::size_t>(
      rack_rng.uniform_int(0, static_cast<int>(std::size(kAllPolicies)) - 1))];
  cfg.controller.epoch = Minutes{kEpochMinutes};
  cfg.controller.profiling_noise = rack_rng.uniform(0.0, 0.05);
  cfg.controller.seed =
      static_cast<std::uint64_t>(rack_rng.uniform_int(0, 1 << 30));
  constexpr std::array<double, 3> kSubsteps = {1.0, 2.5, 5.0};
  cfg.substep = Minutes{kSubsteps[static_cast<std::size_t>(
      rack_rng.uniform_int(0, 2))]};
  cfg.rapl_enforcement = rack_rng.bernoulli(0.2);
  cfg.telemetry.loss_ledger = rack_rng.bernoulli(0.5);
  cfg.check = true;

  if (rack_rng.bernoulli(0.5)) {
    cfg.demand_trace = generate_load_trace(
        LoadPatternModel{}, rack.peak_demand(), 1,
        static_cast<std::uint64_t>(rack_rng.uniform_int(0, 1 << 30)));
  }

  if (rack_rng.bernoulli(0.6)) {
    // Fixed-window derivation: the plan never depends on the (shrinkable)
    // epoch count; events past the run end simply never fire.
    FaultPlan plan = make_random_plan(
        static_cast<std::uint64_t>(rack_rng.uniform_int(0, 1 << 30)),
        Minutes{kMaxEpochs * kEpochMinutes}, rack.group_count());
    if (scenario.max_faults >= 0 &&
        plan.size() > static_cast<std::size_t>(scenario.max_faults)) {
      FaultPlan truncated;
      for (std::size_t i = 0;
           i < static_cast<std::size_t>(scenario.max_faults); ++i) {
        truncated.add(plan.events()[i]);
      }
      plan = std::move(truncated);
    }
    cfg.faults = std::move(plan);
  }

  if (scenario.solver) {
    // Solver-focused mode: force a solver-driven policy (alternating the
    // two solver-driven kinds across racks) so Solver::solve runs every
    // epoch.  The override consumes no RNG draws, so the rest of the
    // derivation stays identical to the non-solver scenario with the same
    // coordinates.
    cfg.controller.policy = rack_index % 2 == 0 ? PolicyKind::kGreenHetero
                                                : PolicyKind::kGreenHeteroA;
  }

  const Watts capacity{rack_rng.uniform(600.0, 3000.0)};
  const SolarModel solar_model = rack_rng.bernoulli(0.5)
                                     ? high_solar_model(capacity)
                                     : low_solar_model(capacity);
  PowerTrace solar = generate_solar_trace(
      solar_model, 2,
      static_cast<std::uint64_t>(rack_rng.uniform_int(0, 1 << 30)));

  GridSpec grid;
  grid.budget = Watts{500.0};  // overwritten by the fleet each epoch
  return RackSimulator{std::move(rack),
                       make_standard_plant(std::move(solar), grid),
                       std::move(cfg)};
}

struct FleetParams {
  Watts total_grid_budget{0.0};
  GridShareMode mode = GridShareMode::kStatic;
  bool pretrain = false;
};

FleetParams derive_fleet_params(const FuzzScenario& scenario) {
  Rng fleet_rng = Rng(scenario.seed)
                      .fork(static_cast<std::uint64_t>(scenario.run_index))
                      .fork(2000);
  FleetParams params;
  params.total_grid_budget = Watts{fleet_rng.uniform(200.0, 2500.0)};
  params.mode = fleet_rng.bernoulli(0.5) ? GridShareMode::kDemandProportional
                                         : GridShareMode::kStatic;
  params.pretrain = fleet_rng.bernoulli(0.7);
  return params;
}

struct ExecutionArtifacts {
  FleetReport report;
  std::string trace;
  /// Per-rack ledger conservation error (Wh) after the run.
  std::vector<double> conservation_error;
  /// Per-rack run-level EPU straight from the simulator.
  std::vector<double> overall_epu;
};

ExecutionArtifacts execute(const FuzzScenario& scenario, std::size_t threads,
                           std::size_t shards = 1) {
  const FleetParams params = derive_fleet_params(scenario);
  std::vector<RackSimulator> racks;
  for (int r = 0; r < scenario.racks; ++r) {
    racks.push_back(make_rack_sim(scenario, r));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = params.total_grid_budget;
  cfg.mode = params.mode;
  cfg.threads = threads;
  cfg.shards = shards;
  cfg.check = true;
  Fleet fleet{std::move(racks), cfg};
  if (params.pretrain) fleet.pretrain();

  ExecutionArtifacts artifacts;
  artifacts.report = fleet.run(Minutes{scenario.epochs * kEpochMinutes});
  std::ostringstream trace;
  fleet.write_trace_jsonl(trace);
  artifacts.trace = trace.str();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    artifacts.conservation_error.push_back(
        fleet.rack(i).ledger().conservation_error());
    artifacts.overall_epu.push_back(fleet.rack(i).overall_epu());
  }
  return artifacts;
}

#define GH_FUZZ_EXPECT_EQ(a, b, what)                                    \
  do {                                                                   \
    if (!((a) == (b))) {                                                 \
      std::ostringstream msg;                                            \
      msg << "sequential/parallel divergence: " << what << " (" << (a)   \
          << " vs " << (b) << ")";                                       \
      return msg.str();                                                  \
    }                                                                    \
  } while (false)

/// Byte-for-byte comparison of the sequential and parallel executions;
/// returns a description of the first divergence, or nullopt.
std::optional<std::string> compare_executions(const ExecutionArtifacts& seq,
                                              const ExecutionArtifacts& par) {
  const FleetReport& a = seq.report;
  const FleetReport& b = par.report;
  GH_FUZZ_EXPECT_EQ(a.total_work, b.total_work, "fleet total_work");
  GH_FUZZ_EXPECT_EQ(a.grid_energy.value(), b.grid_energy.value(),
                    "fleet grid_energy");
  GH_FUZZ_EXPECT_EQ(a.grid_cost, b.grid_cost, "fleet grid_cost");
  GH_FUZZ_EXPECT_EQ(a.peak_grid_allocation.value(),
                    b.peak_grid_allocation.value(),
                    "fleet peak_grid_allocation");
  GH_FUZZ_EXPECT_EQ(a.racks.size(), b.racks.size(), "rack count");
  for (std::size_t i = 0; i < a.racks.size(); ++i) {
    const RunReport& ra = a.racks[i];
    const RunReport& rb = b.racks[i];
    GH_FUZZ_EXPECT_EQ(ra.total_work, rb.total_work,
                      "rack " << i << " total_work");
    GH_FUZZ_EXPECT_EQ(ra.overall_epu, rb.overall_epu,
                      "rack " << i << " overall_epu");
    GH_FUZZ_EXPECT_EQ(ra.battery_cycles, rb.battery_cycles,
                      "rack " << i << " battery_cycles");
    GH_FUZZ_EXPECT_EQ(ra.grid_cost, rb.grid_cost, "rack " << i << " grid_cost");
    GH_FUZZ_EXPECT_EQ(ra.grid_energy.value(), rb.grid_energy.value(),
                      "rack " << i << " grid_energy");
    GH_FUZZ_EXPECT_EQ(ra.epochs.size(), rb.epochs.size(),
                      "rack " << i << " epoch count");
    for (std::size_t e = 0; e < ra.epochs.size(); ++e) {
      const EpochRecord& ea = ra.epochs[e];
      const EpochRecord& eb = rb.epochs[e];
      GH_FUZZ_EXPECT_EQ(ea.start.value(), eb.start.value(),
                        "rack " << i << " epoch " << e << " start");
      GH_FUZZ_EXPECT_EQ(ea.training, eb.training,
                        "rack " << i << " epoch " << e << " training");
      GH_FUZZ_EXPECT_EQ(static_cast<int>(ea.source_case),
                        static_cast<int>(eb.source_case),
                        "rack " << i << " epoch " << e << " source_case");
      GH_FUZZ_EXPECT_EQ(ea.budget.value(), eb.budget.value(),
                        "rack " << i << " epoch " << e << " budget");
      GH_FUZZ_EXPECT_EQ(ea.ratios == eb.ratios, true,
                        "rack " << i << " epoch " << e << " ratios");
      GH_FUZZ_EXPECT_EQ(ea.throughput, eb.throughput,
                        "rack " << i << " epoch " << e << " throughput");
      GH_FUZZ_EXPECT_EQ(ea.epu, eb.epu,
                        "rack " << i << " epoch " << e << " epu");
      GH_FUZZ_EXPECT_EQ(ea.battery_soc, eb.battery_soc,
                        "rack " << i << " epoch " << e << " battery_soc");
      GH_FUZZ_EXPECT_EQ(ea.grid_power.value(), eb.grid_power.value(),
                        "rack " << i << " epoch " << e << " grid_power");
      GH_FUZZ_EXPECT_EQ(ea.shortfall.value(), eb.shortfall.value(),
                        "rack " << i << " epoch " << e << " shortfall");
    }
  }
  GH_FUZZ_EXPECT_EQ(seq.trace == par.trace, true, "merged JSONL trace");
  return std::nullopt;
}

#undef GH_FUZZ_EXPECT_EQ

/// Post-run audit of the sequential execution: ledger conservation, EPU
/// bounds and every recorded PAR vector (after the optional test mutation).
std::optional<std::string> audit(const ExecutionArtifacts& artifacts,
                                 const AllocationMutation& mutation) {
  for (std::size_t i = 0; i < artifacts.report.racks.size(); ++i) {
    const RunReport& rack = artifacts.report.racks[i];
    const double conservation = artifacts.conservation_error[i];
    if (!(conservation <= 1e-5)) {
      std::ostringstream msg;
      msg << "rack " << i << " energy-ledger conservation error "
          << conservation << " Wh exceeds 1e-5";
      return msg.str();
    }
    const double epu = artifacts.overall_epu[i];
    if (!(epu >= 0.0 && epu <= 1.0)) {
      std::ostringstream msg;
      msg << "rack " << i << " run EPU " << epu << " outside [0, 1]";
      return msg.str();
    }
    for (std::size_t e = 0; e < rack.epochs.size(); ++e) {
      const EpochRecord& record = rack.epochs[e];
      if (!(record.epu >= 0.0 && record.epu <= 1.0 + 1e-9)) {
        std::ostringstream msg;
        msg << "rack " << i << " epoch " << e << " EPU " << record.epu
            << " outside [0, 1]";
        return msg.str();
      }
      std::vector<double> ratios = record.ratios;
      if (mutation) mutation(ratios);
      try {
        InvariantChecker::check_ratios(ratios, record.start.value(),
                                       static_cast<long>(e));
      } catch (const InvariantViolation& violation) {
        std::ostringstream msg;
        msg << "rack " << i << ": " << violation.what();
        return msg.str();
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::string FuzzScenario::command_line() const {
  std::ostringstream out;
  out << "greenhetero fuzz --seed " << seed << " --runs 1 --run " << run_index
      << " --racks " << racks << " --epochs " << epochs;
  if (shards > 1) out << " --shards " << shards;
  if (max_faults >= 0) out << " --max-faults " << max_faults;
  if (solver) out << " --solver on";
  return out.str();
}

std::optional<std::string> run_scenario(const FuzzScenario& scenario,
                                        const AllocationMutation& mutation) {
  ExecutionArtifacts sequential;
  ExecutionArtifacts parallel;
  try {
    // The reference is always the historical flat path; the parallel
    // execution layers the derived shard hierarchy on top, so one compare
    // covers both the threads and the shards byte-identity contract.
    sequential = execute(scenario, 1);
    parallel = execute(scenario, 4,
                       static_cast<std::size_t>(std::max(1, scenario.shards)));
  } catch (const InvariantViolation& violation) {
    return std::string("invariant violation: ") + violation.what();
  } catch (const std::exception& e) {
    return std::string("run aborted: ") + e.what();
  }

  if (auto divergence = compare_executions(sequential, parallel)) {
    return divergence;
  }
  if (auto complaint = audit(sequential, mutation)) {
    return complaint;
  }

  // Differential-oracle spot check on the run's own side instances; solver
  // mode samples more instances at a larger group count, exercising the
  // solver's active-set sweep harder.
  OracleConfig oracle_config;
  int oracle_runs = 2;
  if (scenario.solver) {
    oracle_config.max_groups = 4;
    oracle_runs = 8;
  }
  const OracleReport oracle = run_oracle(
      scenario.seed * 0x9E3779B97F4A7C15ULL +
          static_cast<std::uint64_t>(scenario.run_index),
      oracle_runs, oracle_config);
  if (!oracle.ok()) {
    return "oracle disagreement: " + oracle.disagreements.front().describe();
  }
  return std::nullopt;
}

namespace {

/// Greedy shrink: for each dimension in turn, ascending linear search for
/// the smallest value that still fails (ascending keeps minimality exact;
/// every dimension is small enough for it to fit the attempt budget).
FuzzFailure shrink(const FuzzFailure& original,
                   const AllocationMutation& mutation, std::ostream* log) {
  FuzzFailure best = original;
  int budget = kShrinkBudget;

  const auto try_scenario =
      [&](const FuzzScenario& candidate) -> std::optional<std::string> {
    if (budget <= 0) return std::nullopt;
    --budget;
    return run_scenario(candidate, mutation);
  };

  const auto shrink_dim = [&](auto&& get, auto&& set, int floor, int current) {
    for (int value = floor; value < current && budget > 0; ++value) {
      FuzzScenario candidate = best.scenario;
      set(candidate, value);
      if (auto failure = try_scenario(candidate)) {
        best.scenario = candidate;
        best.what = *failure;
        if (log) {
          *log << "fuzz: shrank to " << candidate.command_line() << "\n";
        }
        return;
      }
    }
    (void)get;
  };

  shrink_dim([](const FuzzScenario& s) { return s.epochs; },
             [](FuzzScenario& s, int v) { s.epochs = v; }, 1,
             best.scenario.epochs);
  shrink_dim([](const FuzzScenario& s) { return s.racks; },
             [](FuzzScenario& s, int v) { s.racks = v; }, 1,
             best.scenario.racks);
  const int fault_ceiling =
      best.scenario.max_faults >= 0 ? best.scenario.max_faults
                                    : kFaultShrinkCap;
  shrink_dim([](const FuzzScenario& s) { return s.max_faults; },
             [](FuzzScenario& s, int v) { s.max_faults = v; }, 0,
             fault_ceiling);
  return best;
}

}  // namespace

FuzzReport run_fuzzer(const FuzzOptions& options) {
  FuzzReport report;
  for (int run = 0; run < options.runs; ++run) {
    const int run_index = options.only_run >= 0 ? options.only_run : run;

    FuzzScenario scenario;
    scenario.seed = options.seed;
    scenario.run_index = run_index;
    Rng dims = Rng(options.seed)
                   .fork(static_cast<std::uint64_t>(run_index))
                   .fork(3000);
    scenario.racks = dims.uniform_int(1, kMaxRacks);
    scenario.epochs = dims.uniform_int(3, kMaxEpochs);
    // Drawn after racks/epochs so pre-existing seeds derive the same
    // geometry they always did.
    scenario.shards = dims.uniform_int(1, 3);
    if (options.racks >= 0) scenario.racks = options.racks;
    if (options.epochs >= 0) scenario.epochs = options.epochs;
    if (options.shards >= 1) scenario.shards = options.shards;
    if (options.max_faults >= 0) scenario.max_faults = options.max_faults;
    scenario.solver = options.solver;

    if (options.log) {
      *options.log << "fuzz: run " << run_index << " (racks="
                   << scenario.racks << ", epochs=" << scenario.epochs
                   << ", shards=" << scenario.shards
                   << (scenario.solver ? ", solver mode" : "") << ")\n";
    }
    ++report.runs_executed;
    const std::optional<std::string> failure =
        run_scenario(scenario, options.allocation_mutation);
    if (!failure) continue;

    ++report.scenarios_failed;
    report.first_failure = FuzzFailure{scenario, *failure};
    if (options.log) {
      *options.log << "fuzz: FAILURE in run " << run_index << ": " << *failure
                   << "\nfuzz: shrinking...\n";
    }
    report.shrunk =
        shrink(*report.first_failure, options.allocation_mutation,
               options.log);
    if (options.log) {
      *options.log << "fuzz: minimal repro: "
                   << report.shrunk->scenario.command_line() << "\n"
                   << "fuzz: failure: " << report.shrunk->what << "\n";
    }
    break;  // the shrunk repro matters more than counting repeat failures
  }
  return report;
}

}  // namespace greenhetero::check
