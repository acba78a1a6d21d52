// Ablation A1 (google-benchmark): the closed-form KKT solver (the
// production path) against exhaustive grids at several granularities,
// timed on representative 2-, 3- and 5-group problems.
//
// A custom main runs the google-benchmark suite and then re-times the key
// entry points with a plain steady_clock loop to emit the machine-readable
// BENCH_solver_micro.json via BenchReport.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "core/solver.h"

namespace {

using namespace greenhetero;

std::vector<GroupModel> two_groups() {
  return {
      GroupModel{Quadratic{-0.015, 7.0, -250.0}, Watts{88.0}, Watts{178.0}, 5},
      GroupModel{Quadratic{-0.030, 9.0, -150.0}, Watts{47.0}, Watts{96.0}, 5},
  };
}

std::vector<GroupModel> three_groups() {
  auto groups = two_groups();
  groups.push_back(
      GroupModel{Quadratic{-0.05, 7.0, -100.0}, Watts{58.0}, Watts{79.0}, 5});
  return groups;
}

void BM_SolveTwoGroups(benchmark::State& state) {
  const auto groups = two_groups();
  const Watts supply{static_cast<double>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solver::solve(groups, supply));
  }
}
BENCHMARK(BM_SolveTwoGroups)->Arg(500)->Arg(900)->Arg(1400);

void BM_SolveThreeGroups(benchmark::State& state) {
  const auto groups = three_groups();
  const Watts supply{static_cast<double>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solver::solve(groups, supply));
  }
}
BENCHMARK(BM_SolveThreeGroups)->Arg(900)->Arg(1500);

std::vector<GroupModel> five_groups() {
  auto groups = three_groups();
  groups.push_back(
      GroupModel{Quadratic{-0.02, 6.0, -120.0}, Watts{66.0}, Watts{112.0}, 5});
  groups.push_back(
      GroupModel{Quadratic{-0.04, 11.0, -140.0}, Watts{39.0}, Watts{88.0}, 5});
  return groups;
}

void BM_SolveFiveGroups(benchmark::State& state) {
  const auto groups = five_groups();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solver::solve(groups, Watts{2000.0}));
  }
}
BENCHMARK(BM_SolveFiveGroups);

void BM_SolveGridTenPercent(benchmark::State& state) {
  const auto groups = two_groups();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solver::solve_grid(groups, Watts{900.0}, 0.10));
  }
}
BENCHMARK(BM_SolveGridTenPercent);

void BM_SolveGridFine(benchmark::State& state) {
  const auto groups = two_groups();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solver::solve_grid(groups, Watts{900.0}, 0.001));
  }
}
BENCHMARK(BM_SolveGridFine);

// Optimality gap of the production solver vs a very fine brute force,
// reported as a counter (x1000) alongside the timing.
void BM_SolveOptimalityGap(benchmark::State& state) {
  const auto groups = two_groups();
  double worst_gap = 0.0;
  for (auto _ : state) {
    for (double supply : {500.0, 700.0, 900.0, 1100.0, 1400.0}) {
      const Allocation fast = Solver::solve(groups, Watts{supply});
      const Allocation brute =
          Solver::solve_grid(groups, Watts{supply}, 0.0005);
      if (brute.predicted_perf > 0.0) {
        worst_gap = std::max(
            worst_gap, 1.0 - fast.predicted_perf / brute.predicted_perf);
      }
    }
  }
  state.counters["worst_gap_x1000"] = worst_gap * 1000.0;
}
BENCHMARK(BM_SolveOptimalityGap)->Iterations(1);

/// Mean ns per call of `fn`, hand-timed over enough iterations to smooth
/// scheduler noise.  Best-of-5: each repeat averages `iterations` calls and
/// the minimum wins, so one preempted repeat cannot poison the figure the
/// benchdiff gate compares against bench/baselines/.
template <typename Fn>
double time_ns_per_op(Fn&& fn, int iterations = 2000) {
  // Warm-up pass so lazy initialisation does not land in the measurement.
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) {
      benchmark::DoNotOptimize(fn());
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    best = std::min(
        best, std::chrono::duration<double, std::nano>(elapsed).count() /
                  iterations);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  greenhetero::bench::BenchReport report("solver_micro");
  const auto g2 = two_groups();
  const auto g3 = three_groups();
  const auto g5 = five_groups();
  report.set("solve_2groups_ns", time_ns_per_op([&] {
               return Solver::solve(g2, Watts{900.0});
             }));
  report.set("solve_3groups_ns", time_ns_per_op([&] {
               return Solver::solve(g3, Watts{1500.0});
             }));
  // The 5-group key keeps its historical name so the trajectory stays
  // comparable: it always timed this closed-form sweep.
  report.set("solve_analytic_ngroups_ns", time_ns_per_op([&] {
               return Solver::solve(g5, Watts{2000.0});
             }));
  report.set("solve_grid_10pct_ns", time_ns_per_op([&] {
               return Solver::solve_grid(g2, Watts{900.0}, 0.10);
             }, 200));
  report.write();
  return 0;
}
