// The benchmark's own arithmetic: record digests, latency percentiles and
// the fleet-level EPU aggregate.  Kept apart from the measurement loop so
// selftest.cpp can check each rule on hand-built inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sim/run_report.h"

namespace perfbench {

/// Streaming FNV-1a over the exact bit patterns of the values fed in, so a
/// one-ulp change anywhere changes the digest.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const greenhetero::EpochRecord& r) {
    add(r.start.value());
    add(static_cast<std::uint64_t>(r.training));
    add(static_cast<std::uint64_t>(r.source_case));
    add(r.predicted_renewable.value());
    add(r.actual_renewable.value());
    add(r.budget.value());
    add(static_cast<std::uint64_t>(r.ratios.size()));
    for (double x : r.ratios) add(x);
    add(r.throughput);
    add(r.epu);
    add(r.battery_soc);
    add(r.battery_discharge.value());
    add(r.battery_charge.value());
    add(r.grid_power.value());
    add(r.shortfall.value());
  }
  /// Every per-epoch record plus the run-level totals the metrics use.
  void add(const greenhetero::RunReport& report) {
    add(static_cast<std::uint64_t>(report.epochs.size()));
    for (const auto& r : report.epochs) add(r);
    add(report.total_work);
    add(report.overall_epu);
    add(report.grid_energy.value());
    add(report.ledger.green_load_energy().value());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// 1-based nearest rank of the q-th percentile of n samples; the epsilon
/// keeps q * n from rounding up past an exact integer (0.99 * 1000).
inline std::size_t nearest_rank(std::size_t n, double q) {
  return static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
}

/// Nearest-rank percentile (q in (0, 1]) of `samples`; sorts in place.
inline double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank =
      std::clamp<std::size_t>(nearest_rank(samples.size(), q), 1,
                              samples.size());
  return samples[rank - 1];
}

/// Samples strictly above the nearest-rank q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - std::min(nearest_rank(n, q), n);
}

/// The highest of the candidate tail percentiles that leaves at least ten
/// samples beyond it; 0 when even p50 has fewer than ten beyond.
inline double highest_supported_percentile(std::size_t n) {
  for (double q : {0.9999, 0.999, 0.99, 0.95, 0.9, 0.5}) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.0;
}

/// Paper Eq. 1 over a whole set of runs: sum(useful) / sum(supply).  A
/// report carries its useful green energy (the ledger's green-to-load
/// total) and its own energy-weighted EPU, so its supply is useful / EPU.
/// A run with no useful energy adds nothing to either sum.
struct EpuTotals {
  double useful_wh = 0.0;
  double supply_wh = 0.0;

  void add(const greenhetero::RunReport& report) {
    const double useful = report.ledger.green_load_energy().value();
    if (useful <= 0.0 || report.overall_epu <= 0.0) return;
    useful_wh += useful;
    supply_wh += useful / report.overall_epu;
  }
  [[nodiscard]] double epu() const {
    return supply_wh > 0.0 ? useful_wh / supply_wh : 0.0;
  }
};

}  // namespace perfbench
