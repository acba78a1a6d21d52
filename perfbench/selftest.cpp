// Self-tests of the benchmark's own arithmetic (arith.h).  run.py runs them
// before every measurement; a failure aborts the run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.h"
#include "core/epu.h"
#include "power/power_bus.h"

namespace {

namespace gh = greenhetero;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

/// A report whose ledger holds `useful_wh` of green-to-load energy and whose
/// energy-weighted EPU is `epu`.
gh::RunReport report(double useful_wh, double epu) {
  gh::RunReport r;
  gh::PowerFlows f;
  f.renewable_to_load = gh::Watts{useful_wh};
  r.ledger.post(f, gh::Minutes{60.0});
  r.overall_epu = epu;
  return r;
}

void energy_weighted_epu() {
  // Rack A: 900 Wh useful of 1000 Wh supplied (0.9).  Rack B: 10 Wh useful
  // of 100 Wh (0.1).  Energy-weighted: 910 / 1100; the mean of the two
  // per-run values would be 0.5.
  perfbench::EpuTotals t;
  t.add(report(900.0, 0.9));
  t.add(report(10.0, 0.1));
  expect(std::fabs(t.epu() - 910.0 / 1100.0) < 1e-12,
         "EPU is sum(useful) / sum(supply)");
  expect(std::fabs(t.epu() - 0.5) > 0.1, "EPU is not a mean of runs");
  // Epoch-level: two one-hour epochs, 0.9 and 0.1, where the second had ten
  // times less supply.  One run's EPU already weights them by energy.
  gh::EpuMeter meter;
  meter.record(gh::Watts{1000.0}, gh::Watts{900.0}, gh::Minutes{60.0});
  meter.record(gh::Watts{100.0}, gh::Watts{10.0}, gh::Minutes{60.0});
  gh::RunReport r = report(meter.useful().value(), meter.epu());
  r.epochs.resize(2);
  r.epochs[0].epu = 0.9;
  r.epochs[1].epu = 0.1;
  perfbench::EpuTotals one;
  one.add(r);
  const double epoch_mean = 0.5 * (r.epochs[0].epu + r.epochs[1].epu);
  expect(std::fabs(one.epu() - 910.0 / 1100.0) < 1e-12,
         "one run's EPU is energy-weighted over its epochs");
  expect(std::fabs(one.epu() - epoch_mean) > 0.1,
         "EPU differs from the mean of epoch EPUs");
  perfbench::EpuTotals none;
  none.add(report(0.0, 0.0));
  expect(none.epu() == 0.0, "no green supply gives EPU 0, not NaN");
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(perfbench::percentile(v, 0.5) == 500.0, "nearest-rank p50");
  expect(perfbench::percentile(v, 0.99) == 990.0, "nearest-rank p99");
  expect(perfbench::samples_beyond(1000, 0.99) == 10, "10 beyond p99 of 1000");
  expect(perfbench::highest_supported_percentile(1000) == 0.99,
         "1000 samples support p99 and no higher");
  expect(perfbench::highest_supported_percentile(999) == 0.95,
         "999 samples leave 9 beyond p99");
  expect(perfbench::highest_supported_percentile(10000) == 0.999,
         "10000 samples support p99.9");
  expect(perfbench::highest_supported_percentile(19) == 0.0,
         "19 samples support no percentile");
}

void digest_sensitivity() {
  gh::RunReport r;
  r.epochs.resize(3);
  for (std::size_t i = 0; i < r.epochs.size(); ++i) {
    r.epochs[i].start = gh::Minutes{15.0 * static_cast<double>(i)};
    r.epochs[i].ratios = {0.25, 0.75};
    r.epochs[i].throughput = 1234.5;
    r.epochs[i].epu = 0.8;
  }
  perfbench::Digest a;
  a.add(r);
  perfbench::Digest same;
  same.add(r);
  expect(a.value() == same.value(), "digest is deterministic");
  gh::RunReport ulp = r;
  ulp.epochs[1].ratios[1] = std::nextafter(0.75, 1.0);
  perfbench::Digest b;
  b.add(ulp);
  expect(a.value() != b.value(), "one-ulp change in a ratio moves the digest");
  ulp = r;
  ulp.epochs[2].throughput = std::nextafter(1234.5, 0.0);
  perfbench::Digest c;
  c.add(ulp);
  expect(a.value() != c.value(),
         "one-ulp change in a throughput moves the digest");
}

}  // namespace

int run_selftest() {
  energy_weighted_epu();
  percentile_rule();
  digest_sensitivity();
  if (failures == 0) std::printf("selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
