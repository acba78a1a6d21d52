// Seed-replayable scenario fuzzer with greedy shrinking.
//
// Each run derives a complete random scenario — rack composition, workload
// mix, solar traces, policies, substep length, demand pattern and fault
// plan — purely from (seed, run index), builds the same fleet twice, and
// executes it sequentially (1 thread, 1 shard) and in parallel (4 threads,
// a derived 1-3 shard hierarchy) with the runtime invariant checker enabled
// on every rack and on the coordinator.
// A run fails when any invariant trips, the two executions diverge in any
// report field or trace byte, a post-run audit (energy conservation, EPU
// bounds, per-epoch PAR vectors) rejects the report, or the differential
// solver oracle flags a disagreement on the run's side instances.
//
// On failure the fuzzer greedily shrinks the scenario — fewer epochs, then
// fewer racks, then fewer fault events — re-running each candidate, and
// reports a minimal scenario plus the exact `greenhetero fuzz ...` command
// line that replays it.  Shrinking is stable because every rack derives its
// parameters from an order-insensitive fork of the run RNG: dropping later
// racks, epochs or fault events leaves the surviving prefix bit-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace greenhetero::check {

/// One fully-resolved fuzz scenario: the RNG coordinates plus the three
/// shrinkable dimensions.  Rack/fleet details are re-derived from
/// (seed, run_index) at execution time.
struct FuzzScenario {
  std::uint64_t seed = 1;
  int run_index = 0;
  int racks = 1;
  int epochs = 4;
  /// Shard count for the parallel execution (the sequential reference is
  /// always the flat --shards 1 fleet), so every run also cross-checks the
  /// sharded hierarchy against the flat path byte for byte.
  int shards = 1;
  /// Number of fault events kept from the derived plan; -1 = all of them.
  int max_faults = -1;
  /// Solver-focused mode: every rack runs a solver-driven policy, so
  /// Solver::solve decides every planned epoch of both the sequential and
  /// the parallel execution.  The per-run differential oracle also samples
  /// more instances at a larger group count in this mode.
  bool solver = false;

  /// The exact CLI invocation that replays this scenario.
  [[nodiscard]] std::string command_line() const;
};

/// Test hook: applied to a copy of every non-training epoch's recorded PAR
/// vector before it is re-validated — a planted-bug harness for the fuzzer
/// itself (see fuzzer_test.cpp).
using AllocationMutation = std::function<void(std::vector<double>&)>;

struct FuzzOptions {
  std::uint64_t seed = 1;
  int runs = 25;
  /// Replay exactly this run index instead of 0..runs-1 (-1 = all).
  int only_run = -1;
  /// Overrides for the derived scenario dimensions (-1 = derive from the
  /// RNG); used to replay a shrunk repro.
  int racks = -1;
  int epochs = -1;
  int shards = -1;
  int max_faults = -1;
  /// Solver-focused mode (see FuzzScenario::solver).
  bool solver = false;
  /// Progress / failure narration (null = silent).
  std::ostream* log = nullptr;
  AllocationMutation allocation_mutation;
};

struct FuzzFailure {
  FuzzScenario scenario;
  std::string what;
};

struct FuzzReport {
  int runs_executed = 0;
  int scenarios_failed = 0;
  /// The first failing scenario as originally derived.
  std::optional<FuzzFailure> first_failure;
  /// The same failure after greedy shrinking (always set when a run failed;
  /// equals first_failure when nothing could be removed).
  std::optional<FuzzFailure> shrunk;

  [[nodiscard]] bool ok() const { return scenarios_failed == 0; }
};

/// Execute one scenario end to end; returns the failure description, or
/// nullopt when every check passed.
[[nodiscard]] std::optional<std::string> run_scenario(
    const FuzzScenario& scenario, const AllocationMutation& mutation = {});

/// The fuzz loop: derive, execute and (on failure) shrink `runs` scenarios.
/// Stops at the first failing run — the shrunk repro is worth more than a
/// tally of later failures from the same root cause.
[[nodiscard]] FuzzReport run_fuzzer(const FuzzOptions& options);

}  // namespace greenhetero::check
