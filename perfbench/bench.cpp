// perfbench: the repository benchmark of the rack-epoch loop.
//
//   perfbench --workload <fleet_day|fleet_observed|scarce_3group>
//             --seed N --seconds S [--trace-seconds S2] [--threads T]
//             --out DIR
//   perfbench --selftest
//
// One run builds the workload's inputs from the seed, then runs
//   1. a reference episode, untraced, whose record digest every later
//      episode must reproduce: the fleets run it on one thread, while
//      scarce_3group, single-threaded anyway, uses its first measured one;
//   2. untraced episodes, each set up afresh, until S seconds of measured
//      run time have passed (end-to-end metrics).  After each fleet
//      episode, every kLatencyStride-th rack of the same mix is stepped
//      standalone through RackSimulator::step_epoch for the latency
//      sample, because Fleet::run exposes no per-rack-epoch boundary
//      (scarce_3group is stepped that way already);
//   3. after each measured episode, kSetupRepetitions set-up-only
//      repetitions, so set-up time is a median over the whole run;
//   4. traced episodes with the profiler on (per-layer metrics): one, or
//      S2 seconds' worth.
// It prints one "name value unit" line per metric, then one JSON object
// with every metric.  README.md lists the metrics and the layers they cover.
//
// The library is driven only through public calls.  Workloads set inputs
// (rack mix, traces, grid budget, fault plan, duration, threads, sinks),
// never a backend or feature flag.
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arith.h"
#include "checkpoint/checkpoint.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "telemetry/profiler.h"
#include "trace/load_pattern.h"
#include "trace/solar.h"
#include "util/logging.h"

int run_selftest();

namespace {

namespace gh = greenhetero;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// splitmix64: independent per-rack seeds from the run seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kFleetDay, kFleetObserved, kScarce };

// fleet_day / fleet_observed: the CLI `fleet` mix.
constexpr int kFleetRacks = 256;
constexpr double kFleetHours = 24.0;
constexpr double kAsymmetry = 0.5;
constexpr double kGridPerRack = 800.0;
// fleet_observed's sinks.
constexpr int kCheckpointEvery = 8;
constexpr double kRollupWindowMin = 60.0;
// Standalone latency sample after every fleet episode: every 16th rack.
constexpr int kLatencyStride = 16;

// scarce_3group: Comb5 racks under a Low trace with a grid budget near the
// rack's idle power, a small battery, a load trace that keeps demand above
// idle, and a chaos fault plan.
constexpr int kScarceRacks = 32;
constexpr int kScarceDays = 7;
constexpr double kScarceSolarW = 1400.0;
constexpr double kScarceGridW = 1000.0;
constexpr double kScarceBatteryWh = 3000.0;
constexpr double kScarceNightLoad = 0.75;

constexpr std::size_t kMinEpisodes = 3;
// Set-up-only repetitions after each measured episode.
constexpr std::size_t kSetupRepetitions = 3;

struct Inputs {
  Kind kind = Kind::kFleetDay;
  std::uint64_t seed = 1;
  fs::path out;
};

/// What one episode produced.
struct Episode {
  std::vector<gh::RunReport> racks;
  double traces_s = 0.0;
  double build_s = 0.0;
  double pretrain_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::size_t fleet_epochs = 0;
  /// scarce_3group: host latency of every step_epoch, microseconds.
  std::vector<double> step_us;
  gh::telemetry::ProfileReport profile;
  double trace_bytes = 0.0;
  double trace_stalls = 0.0;
  double checkpoint_bytes = 0.0;
  double checkpoint_ms = 0.0;

  std::size_t rack_epochs = 0;

  [[nodiscard]] double setup_s() const {
    return traces_s + build_s + pretrain_s;
  }
};

std::size_t count_rack_epochs(const std::vector<gh::RunReport>& racks) {
  std::size_t n = 0;
  for (const auto& r : racks) n += r.epochs.size();
  return n;
}

gh::TelemetryConfig rack_telemetry(const Inputs& in, bool traced) {
  gh::TelemetryConfig t;
  t.profile = traced;
  if (in.kind == Kind::kFleetObserved) t.rollup_window_min = kRollupWindowMin;
  return t;
}

/// Solar trace of the fleet mix's rack i: provisioning spread linearly
/// around 1.8 kW by +/- asymmetry.
gh::PowerTrace fleet_solar(const Inputs& in, int i) {
  const double spread = -1.0 + 2.0 * i / (kFleetRacks - 1.0);
  const gh::Watts capacity{1800.0 * (1.0 + kAsymmetry * spread)};
  const int days = static_cast<int>(std::ceil(kFleetHours / 24.0)) + 1;
  return gh::generate_solar_trace(
      gh::high_solar_model(capacity), days,
      mix(in.seed, 2 * static_cast<std::uint64_t>(i)));
}

gh::RackSimulator make_fleet_rack(const Inputs& in, int i,
                                  gh::PowerTrace solar, bool traced) {
  gh::SimConfig cfg;
  cfg.controller.policy = gh::PolicyKind::kGreenHetero;
  cfg.controller.seed = mix(in.seed, 2 * static_cast<std::uint64_t>(i) + 1);
  cfg.telemetry = rack_telemetry(in, traced);
  return gh::RackSimulator{
      gh::Rack{gh::default_runtime_rack(), gh::Workload::kSpecJbb},
      gh::make_standard_plant(std::move(solar), gh::GridSpec{}),
      std::move(cfg)};
}

/// The report Fleet::run assembles for each of its racks.
gh::RunReport standalone_report(const gh::RackSimulator& sim,
                                std::vector<gh::EpochRecord> epochs) {
  gh::RunReport r;
  r.epochs = std::move(epochs);
  r.ledger = sim.ledger();
  r.total_work = sim.rack().total_work();
  r.overall_epu = sim.overall_epu();
  r.battery_cycles = sim.plant().battery().equivalent_cycles();
  r.grid_cost = sim.plant().grid().total_cost();
  r.grid_energy = sim.plant().grid().total_energy();
  r.metrics = sim.metrics_snapshot();
  return r;
}

/// Step independent racks epoch-major through step_epoch on this thread,
/// timing every call into `step_us`.
std::vector<gh::RunReport> step_standalone(
    std::vector<gh::RackSimulator>& sims, std::size_t epochs,
    std::vector<double>& step_us) {
  std::vector<std::vector<gh::EpochRecord>> records(sims.size());
  for (auto& r : records) r.reserve(epochs);
  step_us.reserve(step_us.size() + epochs * sims.size());
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t i = 0; i < sims.size(); ++i) {
      const auto t0 = Clock::now();
      records[i].push_back(sims[i].step_epoch());
      step_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
  }
  std::vector<gh::RunReport> reports;
  for (std::size_t i = 0; i < sims.size(); ++i) {
    reports.push_back(standalone_report(sims[i], std::move(records[i])));
  }
  return reports;
}

void reset_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

Episode run_fleet(const Inputs& in, std::size_t threads, bool traced,
                  bool setup_only) {
  Episode ep;
  const bool observed = in.kind == Kind::kFleetObserved;
  const fs::path trace_path = in.out / "trace.jsonl";
  const fs::path ckpt_dir = in.out / "ckpt";
  if (observed) reset_dir(in.out);

  auto t0 = Clock::now();
  std::vector<gh::PowerTrace> solar;
  solar.reserve(kFleetRacks);
  for (int i = 0; i < kFleetRacks; ++i) solar.push_back(fleet_solar(in, i));
  ep.traces_s = seconds_since(t0);

  t0 = Clock::now();
  std::vector<gh::RackSimulator> sims;
  sims.reserve(kFleetRacks);
  for (int i = 0; i < kFleetRacks; ++i) {
    sims.push_back(make_fleet_rack(in, i, std::move(solar[i]), traced));
  }
  gh::FleetConfig cfg;
  cfg.total_grid_budget = gh::Watts{kGridPerRack * kFleetRacks};
  cfg.mode = gh::GridShareMode::kDemandProportional;
  cfg.threads = threads;
  cfg.telemetry.profile = traced;
  if (observed) {
    cfg.trace_stream = gh::telemetry::StreamSinkConfig{trace_path};
    cfg.checkpoint_dir = ckpt_dir.string();
    cfg.checkpoint_every = kCheckpointEvery;
  }
  gh::Fleet fleet{std::move(sims), cfg};
  ep.build_s = seconds_since(t0);

  t0 = Clock::now();
  fleet.pretrain();
  ep.pretrain_s = seconds_since(t0);
  if (setup_only) return ep;

  const double cpu0 = process_cpu_s();
  t0 = Clock::now();
  gh::FleetReport report = fleet.run(gh::Minutes{kFleetHours * 60.0});
  if (observed) {
    fleet.save_rollup_jsonl(in.out / "rollup.jsonl");
    fleet.stream()->close();
  }
  ep.run_s = seconds_since(t0);
  ep.cpu_s = process_cpu_s() - cpu0;
  ep.fleet_epochs = report.racks.front().epochs.size();
  if (observed) {
    ep.trace_bytes = static_cast<double>(fs::file_size(trace_path));
    if (const auto* e = report.metrics.find("gh_trace_stalls_total")) {
      ep.trace_stalls = e->value;
    }
    t0 = Clock::now();
    fleet.write_checkpoint();
    ep.checkpoint_ms = 1e3 * seconds_since(t0);
    ep.checkpoint_bytes = static_cast<double>(
        fs::file_size(gh::checkpoint::list_snapshots(ckpt_dir).back()));
  }
  if (traced) ep.profile = fleet.profile_report();
  ep.racks = std::move(report.racks);
  ep.rack_epochs = count_rack_epochs(ep.racks);
  return ep;
}

gh::Rack scarce_rack() {
  return gh::Rack{gh::combination_by_name("Comb5").groups,
                  gh::Workload::kSpecJbb};
}

Episode run_scarce(const Inputs& in, bool traced, bool setup_only) {
  Episode ep;
  const gh::Watts peak = scarce_rack().peak_demand();
  const gh::Minutes duration{kScarceDays * 24.0 * 60.0};

  auto t0 = Clock::now();
  std::vector<gh::PowerTrace> solar;
  std::vector<gh::PowerTrace> demand;
  std::vector<gh::FaultPlan> faults;
  for (int i = 0; i < kScarceRacks; ++i) {
    const auto base = 3 * static_cast<std::uint64_t>(i);
    solar.push_back(gh::generate_solar_trace(
        gh::low_solar_model(gh::Watts{kScarceSolarW}), kScarceDays + 1,
        mix(in.seed, base)));
    demand.push_back(gh::generate_load_trace(
        gh::LoadPatternModel{.night_level = kScarceNightLoad}, peak,
        kScarceDays + 1, mix(in.seed, base + 1)));
    faults.push_back(gh::make_random_plan(mix(in.seed, base + 2), duration,
                                          scarce_rack().group_count()));
  }
  ep.traces_s = seconds_since(t0);

  t0 = Clock::now();
  std::vector<gh::RackSimulator> sims;
  sims.reserve(kScarceRacks);
  for (int i = 0; i < kScarceRacks; ++i) {
    gh::SimConfig cfg;
    cfg.controller.policy = gh::PolicyKind::kGreenHetero;
    cfg.controller.seed = mix(in.seed, 1000 + static_cast<std::uint64_t>(i));
    cfg.demand_trace = std::move(demand[i]);
    cfg.faults = std::move(faults[i]);
    cfg.telemetry = rack_telemetry(in, traced);
    sims.emplace_back(
        scarce_rack(),
        gh::RackPowerPlant{
            gh::SolarArray{std::move(solar[i])},
            gh::Battery{gh::lead_acid_spec(gh::WattHours{kScarceBatteryWh})},
            gh::GridSupply{gh::GridSpec{.budget = gh::Watts{kScarceGridW}}}},
        std::move(cfg));
  }
  ep.build_s = seconds_since(t0);

  t0 = Clock::now();
  for (auto& sim : sims) sim.pretrain();
  ep.pretrain_s = seconds_since(t0);
  if (setup_only) return ep;

  const auto epochs = static_cast<std::size_t>(kScarceDays) * 96;
  const double cpu0 = process_cpu_s();
  t0 = Clock::now();
  ep.racks = step_standalone(sims, epochs, ep.step_us);
  ep.run_s = seconds_since(t0);
  ep.rack_epochs = count_rack_epochs(ep.racks);
  ep.cpu_s = process_cpu_s() - cpu0;
  ep.fleet_epochs = epochs;
  if (traced) {
    for (const auto& sim : sims) {
      gh::telemetry::merge_profile(ep.profile,
                                   sim.telemetry().profiler().report());
    }
  }
  return ep;
}

Episode run_episode(const Inputs& in, std::size_t threads, bool traced,
                    bool setup_only = false) {
  return in.kind == Kind::kScarce ? run_scarce(in, traced, setup_only)
                                  : run_fleet(in, threads, traced, setup_only);
}

/// Fleet workloads: every kLatencyStride-th rack of the mix, on its static
/// grid share, stepped standalone.
std::vector<gh::RunReport> fleet_latency_sample(const Inputs& in,
                                                std::vector<double>& step_us) {
  std::vector<gh::RackSimulator> sims;
  for (int i = 0; i < kFleetRacks; i += kLatencyStride) {
    sims.push_back(make_fleet_rack(in, i, fleet_solar(in, i), false));
    sims.back().set_grid_budget(gh::Watts{kGridPerRack});
    sims.back().pretrain();
  }
  return step_standalone(sims, static_cast<std::size_t>(kFleetHours * 4.0),
                         step_us);
}

// ---------------------------------------------------------------------------
// Correctness

struct Check {
  bool ok = true;
  std::string why;
  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

/// Every record finite, EPU in [0, 1], PARs non-negative and summing to at
/// most 1 (above 0 under a live budget), and the expected epoch count.
void check_reports(const std::vector<gh::RunReport>& reports,
                   std::size_t expected_epochs, Check& check) {
  const auto finite = [](double x) { return std::isfinite(x); };
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const gh::RunReport& rep = reports[k];
    const std::string rack = "rack " + std::to_string(k);
    if (rep.epochs.size() != expected_epochs) {
      check.fail(rack + ": " + std::to_string(rep.epochs.size()) +
                 " epochs, expected " + std::to_string(expected_epochs));
    }
    for (const auto& r : rep.epochs) {
      double sum = 0.0;
      bool ok = true;
      for (double x : r.ratios) {
        ok = ok && finite(x) && x >= 0.0;
        sum += x;
      }
      ok = ok && finite(r.start.value()) &&
           finite(r.predicted_renewable.value()) &&
           finite(r.actual_renewable.value()) && finite(r.budget.value()) &&
           finite(r.throughput) && finite(r.epu) && finite(r.battery_soc) &&
           finite(r.battery_discharge.value()) &&
           finite(r.battery_charge.value()) && finite(r.grid_power.value()) &&
           finite(r.shortfall.value());
      ok = ok && r.epu >= 0.0 && r.epu <= 1.0;
      // The solver's contract (core/solver.h): sum(PAR) <= 1, the rest
      // charges the battery.
      ok = ok && sum <= 1.0 + 1e-9;
      if (r.budget.value() > 0.0 && !r.training) ok = ok && sum > 0.0;
      if (!ok) {
        check.fail(rack + ": invalid record at minute " +
                   std::to_string(r.start.value()) + " (budget " +
                   std::to_string(r.budget.value()) + " W, PAR sum " +
                   std::to_string(sum) + ", EPU " + std::to_string(r.epu) +
                   ")");
        return;
      }
    }
    if (!finite(rep.overall_epu) || rep.overall_epu < 0.0 ||
        rep.overall_epu > 1.0 || !finite(rep.total_work) ||
        !finite(rep.grid_energy.value())) {
      check.fail(rack + ": invalid run totals");
    }
  }
}

std::uint64_t digest(const std::vector<gh::RunReport>& reports) {
  perfbench::Digest d;
  for (const auto& r : reports) d.add(r);
  return d.value();
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Rack-epochs matching `pred`.
template <class Pred>
double count_epochs(const std::vector<gh::RunReport>& reports, Pred pred) {
  double n = 0.0;
  for (const auto& r : reports) {
    n += static_cast<double>(
        std::count_if(r.epochs.begin(), r.epochs.end(), pred));
  }
  return n;
}

/// Epochs planned in safe mode: the health tracker's safe-mode plans plus
/// solver/database fallbacks, both counted by the controller.
double safe_mode_epochs(const std::vector<gh::RunReport>& reports) {
  double n = 0.0;
  for (const auto& r : reports) {
    for (const char* name :
         {"gh_safe_mode_epochs_total", "gh_solver_failures_total"}) {
      if (const auto* e = r.metrics.find(name)) n += e->value;
    }
  }
  return n;
}

/// Workload properties, from the reference episode: what share of the
/// workload has the property an optimisation exploits.
std::vector<Metric> workload_metrics(const std::vector<gh::RunReport>& ref,
                                     const gh::Rack& rack) {
  const double total = count_epochs(ref, [](const auto&) { return true; });
  const auto frac = [&](auto pred) { return count_epochs(ref, pred) / total; };
  std::vector<Metric> m = {
      {"workload.scarce_epoch_frac", frac([&](const gh::EpochRecord& e) {
         return e.budget > rack.idle_demand() && e.budget < rack.peak_demand();
       }),
       "ratio"},
      {"workload.safe_mode_epochs", safe_mode_epochs(ref), "count"},
      {"workload.shortfall_epochs",
       count_epochs(ref,
                    [](const gh::EpochRecord& e) {
                      return e.shortfall.value() > 0.0;
                    }),
       "count"},
  };
  constexpr std::array<std::pair<gh::PowerCase, const char*>, 4> kCases = {{
      {gh::PowerCase::kRenewableSufficient, "renewable"},
      {gh::PowerCase::kJointSupply, "joint"},
      {gh::PowerCase::kBatteryOnly, "battery"},
      {gh::PowerCase::kGridFallback, "grid"},
  }};
  for (const auto& [c, name] : kCases) {
    m.push_back({std::string("workload.case_") + name + "_frac",
                 frac([c = c](const gh::EpochRecord& e) {
                   return e.source_case == c;
                 }),
                 "ratio"});
  }
  return m;
}

/// Per-layer costs per rack-epoch from the traced episodes' profiles
/// (median over episodes).  ns are self thread-CPU time.
std::vector<Metric> layer_metrics(const std::vector<Episode>& traced) {
  using Node = gh::telemetry::ProfileNode;
  const auto per_epoch = [&](const char* path, auto field) {
    std::vector<double> v;
    for (const Episode& ep : traced) {
      const auto it = ep.profile.find(path);
      const double x =
          it == ep.profile.end() ? 0.0 : static_cast<double>(field(it->second));
      v.push_back(x / static_cast<double>(ep.rack_epochs));
    }
    return median(v);
  };
  const auto ns = [](const Node& n) { return n.self_cpu_ns; };
  const auto allocs = [](const Node& n) { return n.self_alloc_count; };
  const auto calls = [](const Node& n) { return n.calls; };
  const auto all_allocs = [](const Node& n) { return n.alloc_count; };
  return {
      {"core.controller.feedback_ns", per_epoch("epoch/feedback", ns), "ns"},
      {"core.controller.feedback_allocs", per_epoch("epoch/feedback", allocs),
       "count"},
      {"core.solver.ns", per_epoch("epoch/plan/solve", ns), "ns"},
      {"core.solver.allocs", per_epoch("epoch/plan/solve", allocs), "count"},
      {"core.solver.calls", per_epoch("epoch/plan/solve", calls), "count"},
      {"core.source_selector.ns", per_epoch("epoch/plan/select_source", ns),
       "ns"},
      {"core.source_selector.allocs",
       per_epoch("epoch/plan/select_source", allocs), "count"},
      {"core.predictor.ns", per_epoch("epoch/plan/predict", ns), "ns"},
      {"core.enforcer.ns", per_epoch("epoch/enforce", ns), "ns"},
      {"core.enforcer.allocs", per_epoch("epoch/enforce", allocs), "count"},
      {"core.controller.plan_ns", per_epoch("epoch/plan", ns), "ns"},
      {"core.controller.plan_allocs", per_epoch("epoch/plan", allocs),
       "count"},
      {"sim.substeps_ns", per_epoch("epoch/substeps", ns), "ns"},
      {"sim.epoch_ns", per_epoch("epoch", ns), "ns"},
      {"sim.epoch_allocs", per_epoch("epoch", allocs), "count"},
      {"allocs_per_rack_epoch", per_epoch("epoch", all_allocs), "count"},
  };
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double trace_seconds = 0.0;
  std::size_t threads = 4;
  fs::path out = "perfbench-out";
};

int run(const Options& opt) {
  Inputs in;
  if (opt.workload == "fleet_day") {
    in.kind = Kind::kFleetDay;
  } else if (opt.workload == "fleet_observed") {
    in.kind = Kind::kFleetObserved;
  } else if (opt.workload == "scarce_3group") {
    in.kind = Kind::kScarce;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  in.seed = opt.seed;
  in.out = opt.out;
  const bool fleet = in.kind != Kind::kScarce;
  const std::size_t threads = fleet ? std::max<std::size_t>(1, opt.threads) : 1;
  const std::size_t epochs_per_rack =
      fleet ? static_cast<std::size_t>(kFleetHours * 4.0)
            : static_cast<std::size_t>(kScarceDays) * 96;

  Check check;
  // 1. The fleets' reference, on one thread.  scarce_3group is
  //    single-threaded anyway: its first measured episode is the reference.
  //    Only the reference's records are kept; every other episode drops
  //    its records once checked, so peak RSS is one episode's worth.
  std::vector<gh::RunReport> ref;
  std::uint64_t ref_digest = 0;
  if (fleet) {
    ref = run_episode(in, 1, false).racks;
    check_reports(ref, epochs_per_rack, check);
    ref_digest = digest(ref);
  }

  // 2. Untraced, measured episodes, each followed by the fleets' latency
  //    sample and 3. set-up-only repetitions, so both spread over the run.
  std::vector<Episode> eps;
  std::vector<double> lat_us;
  std::vector<double> setup;
  std::vector<double> traces_s;
  std::vector<double> pretrain_s;
  const auto add_setup = [&](const Episode& ep) {
    setup.push_back(ep.setup_s());
    traces_s.push_back(ep.traces_s);
    pretrain_s.push_back(ep.pretrain_s);
  };
  double measured = 0.0;
  while (measured < opt.seconds || eps.size() < kMinEpisodes) {
    Episode ep = run_episode(in, threads, false);
    measured += ep.run_s;
    add_setup(ep);
    check_reports(ep.racks, epochs_per_rack, check);
    const std::uint64_t d = digest(ep.racks);
    if (ref.empty()) {
      ref_digest = d;
      ref = std::move(ep.racks);
    } else if (d != ref_digest) {
      check.fail("untraced digest differs from the reference");
    }
    if (fleet) {
      check_reports(fleet_latency_sample(in, lat_us), epochs_per_rack, check);
    } else {
      lat_us.insert(lat_us.end(), ep.step_us.begin(), ep.step_us.end());
    }
    ep.racks = {};
    ep.step_us = {};
    eps.push_back(std::move(ep));
    for (std::size_t i = 0; i < kSetupRepetitions; ++i) {
      add_setup(run_episode(in, threads, false, /*setup_only=*/true));
    }
  }
  const double rss = peak_rss_mib();

  const std::size_t lat_n = lat_us.size();
  const double tail_q = perfbench::highest_supported_percentile(lat_n);
  if (tail_q < 0.99) check.fail("too few latency samples for p99");

  // 4. Traced episodes: the profiler must not move the records.
  std::vector<Episode> traced;
  double traced_s = 0.0;
  while (traced.empty() || traced_s < opt.trace_seconds) {
    Episode ep = run_episode(in, threads, true);
    traced_s += ep.run_s;
    if (digest(ep.racks) != ref_digest) {
      check.fail("traced digest differs from the reference");
    }
    ep.racks = {};
    traced.push_back(std::move(ep));
  }

  std::vector<double> rate, run_us, util, ckpt_ms, stalls;
  std::size_t attempted = 0;
  for (const Episode& ep : eps) {
    const auto n = static_cast<double>(ep.rack_epochs);
    attempted += ep.rack_epochs;
    rate.push_back(n / ep.run_s);
    run_us.push_back(1e6 * ep.run_s / n);
    util.push_back(ep.cpu_s / (static_cast<double>(threads) * ep.run_s));
    ckpt_ms.push_back(ep.checkpoint_ms);
    stalls.push_back(ep.trace_stalls);
  }
  std::vector<double> idle, traced_us;
  for (const Episode& ep : traced) {
    traced_us.push_back(1e6 * ep.run_s /
                        static_cast<double>(ep.rack_epochs));
    if (!fleet) continue;
    const auto it = ep.profile.find("epoch");
    const double epoch_wall_ns =
        it == ep.profile.end() ? 0.0 : static_cast<double>(it->second.wall_ns);
    idle.push_back((1e9 * ep.run_s -
                    epoch_wall_ns / static_cast<double>(threads)) /
                   static_cast<double>(ep.fleet_epochs));
  }

  perfbench::EpuTotals epu;
  double work = 0.0;
  double grid_wh = 0.0;
  for (const auto& r : ref) {
    epu.add(r);
    work += r.total_work;
    grid_wh += r.grid_energy.value();
  }
  const double p50 = perfbench::percentile(lat_us, 0.50);
  const double p99 = perfbench::percentile(lat_us, 0.99);
  const double tail = perfbench::percentile(lat_us, tail_q);

  std::vector<Metric> m = {
      {"rack_epochs_per_s", median(rate), "1/s"},
      {"rack_epoch_us_p50", p50, "us"},
      {"rack_epoch_us_p99", p99, "us"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mib", rss, "MiB"},
      {"epu", epu.epu(), "ratio"},
      {"work", work, "work_h"},
      {"grid_kwh", grid_wh / 1000.0, "kWh"},
  };
  const std::vector<Metric> layers = layer_metrics(traced);
  m.insert(m.end(), layers.begin(), layers.end());
  const Episode& last = eps.back();
  const std::vector<Metric> rest = {
      {"fleet.idle_ns", median(idle), "ns"},
      {"fleet.cpu_util", median(util), "ratio"},
      {"telemetry.trace_bytes", last.trace_bytes, "B"},
      {"telemetry.trace_stalls", median(stalls), "count"},
      {"checkpoint.bytes", last.checkpoint_bytes, "B"},
      {"checkpoint.write_ms", median(ckpt_ms), "ms"},
      {"setup.traces_s", median(traces_s), "s"},
      {"setup.pretrain_s", median(pretrain_s), "s"},
      {"telemetry.profile_overhead", median(traced_us) / median(run_us) - 1.0,
       "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  const std::vector<Metric> props = workload_metrics(
      ref,
      fleet ? gh::Rack{gh::default_runtime_rack(), gh::Workload::kSpecJbb}
            : scarce_rack());
  m.insert(m.end(), props.begin(), props.end());

  std::printf("# %s seed %llu, %zu thread(s): %zu untraced + %zu traced "
              "episode(s) (rack-epochs/s %.0f..%.0f), %zu setups, %zu "
              "latency samples (highest supported tail p%g = %.1f us), "
              "digest %016llx%s%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              threads, eps.size(), traced.size(),
              *std::min_element(rate.begin(), rate.end()),
              *std::max_element(rate.begin(), rate.end()), setup.size(), lat_n,
              100.0 * tail_q, tail,
              static_cast<unsigned long long>(ref_digest),
              check.ok ? "" : ", CHECK FAILED: ", check.why.c_str());
  // A failed check fails every rack-epoch the run measured.
  print_result(check.ok, attempted, check.ok ? 0 : attempted, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool selftest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        opt.workload = next();
      } else if (a == "--seed") {
        opt.seed = std::stoull(next());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (a == "--trace-seconds") {
        opt.trace_seconds = std::stod(next());
      } else if (a == "--threads") {
        opt.threads = std::stoul(next());
      } else if (a == "--out") {
        opt.out = next();
      } else if (a == "--selftest") {
        selftest = true;
      } else {
        throw std::invalid_argument("unknown argument '" + a + "'");
      }
    }
    if (selftest) return run_selftest();
    greenhetero::Logger::instance().set_level(greenhetero::LogLevel::kOff);
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
