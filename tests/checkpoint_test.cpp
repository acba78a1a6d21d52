// Checkpoint subsystem: serializer round-trips for the stateful components
// a snapshot must restore exactly (RNG stream position, battery charge and
// wear, the health state machine, the perf-power database with its fits,
// the fault-delivery cursor), and the container's rejection of everything
// that is not a pristine snapshot — flipped payload bytes, truncated files,
// foreign magic, future versions, trailing garbage.
#include "checkpoint/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/serializer.h"
#include "core/database.h"
#include "core/health.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "power/battery.h"
#include "sim/epoch_store.h"
#include "util/rng.h"

namespace greenhetero {
namespace {

namespace fs = std::filesystem;

/// Unique per-process scratch directory, removed on destruction (ctest may
/// run several processes of this binary concurrently).
class ScratchDir {
 public:
  ScratchDir() {
    static std::atomic<int> counter{0};
    dir_ = fs::temp_directory_path() /
           ("gh-checkpoint-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] fs::path operator/(const std::string& name) const {
    return dir_ / name;
  }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Serializer primitives.
// ---------------------------------------------------------------------------

TEST(Serializer, RoundTripsEveryPrimitive) {
  checkpoint::Writer w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-1.5e300);
  w.boolean(true);
  const std::string with_nul("hello\0world", 11);
  w.str(with_nul);  // embedded NUL survives length-prefixed strings
  w.seq(3);
  for (std::uint8_t i = 0; i < 3; ++i) w.u8(i);

  checkpoint::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -1.5e300);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), with_nul);
  EXPECT_EQ(r.seq(), 3u);
  for (std::uint8_t i = 0; i < 3; ++i) EXPECT_EQ(r.u8(), i);
  EXPECT_TRUE(r.done());
}

TEST(Serializer, ReaderThrowsOnShortBuffer) {
  checkpoint::Writer w;
  w.u64(1);
  const std::string& buf = w.buffer();
  checkpoint::Reader r(std::string_view(buf.data(), buf.size() - 1));
  EXPECT_THROW((void)r.u64(), checkpoint::CheckpointError);
}

TEST(Serializer, RoundTripsBulkArrays) {
  const std::vector<double> doubles{0.0, -1.5, 6.02e23,
                                    std::numeric_limits<double>::infinity()};
  const std::vector<std::uint8_t> bytes{0, 1, 255, 42};
  checkpoint::Writer w;
  w.f64_array(doubles);
  w.u8_array(bytes);
  w.f64_array({});  // empty arrays must round-trip too
  w.u8_array({});

  checkpoint::Reader r(w.buffer());
  std::vector<double> doubles_back;
  std::vector<std::uint8_t> bytes_back;
  r.f64_array(doubles_back);
  r.u8_array(bytes_back);
  EXPECT_EQ(doubles_back, doubles);
  EXPECT_EQ(bytes_back, bytes);
  r.f64_array(doubles_back);
  r.u8_array(bytes_back);
  EXPECT_TRUE(doubles_back.empty());
  EXPECT_TRUE(bytes_back.empty());
  EXPECT_TRUE(r.done());
}

TEST(Serializer, ArrayReaderThrowsOnOversizedLength) {
  // A corrupt length prefix larger than the remaining payload must throw,
  // not attempt a multi-exabyte reserve.
  checkpoint::Writer w;
  w.u64(std::numeric_limits<std::uint64_t>::max());
  checkpoint::Reader r(w.buffer());
  std::vector<double> out;
  EXPECT_THROW(r.f64_array(out), checkpoint::CheckpointError);
}

TEST(Checkpoint, EpochRecordStoreRoundTripsColumns) {
  EpochRecordStore store;
  store.reset(3);
  for (std::size_t e = 0; e < 5; ++e) {
    std::vector<EpochRecord> row(3);
    for (std::size_t r = 0; r < 3; ++r) {
      EpochRecord& rec = row[r];
      rec.start = Minutes{60.0 * static_cast<double>(e)};
      rec.training = e == 0;
      rec.source_case = PowerCase::kJointSupply;
      rec.predicted_renewable = Watts{100.0 + static_cast<double>(10 * e + r)};
      rec.actual_renewable = Watts{90.0 + static_cast<double>(r)};
      rec.budget = Watts{500.0};
      rec.throughput = 1.0 + static_cast<double>(e);
      rec.epu = 0.5;
      rec.battery_soc = 0.8;
      rec.battery_discharge = Watts{5.0};
      rec.battery_charge = Watts{2.0};
      rec.grid_power = Watts{50.0};
      rec.shortfall = Watts{0.0};
      // Ragged ratios stress the shared pool extents.
      rec.ratios.assign(r + e % 2, 0.25 * static_cast<double>(r + 1));
      row[r] = rec;
    }
    store.append_epoch(row);
  }
  ASSERT_EQ(store.epochs(), 5u);
  EXPECT_GT(store.bytes(), 0u);

  checkpoint::Writer w;
  store.save_state(w);
  EpochRecordStore restored;
  restored.reset(3);
  checkpoint::Reader r(w.buffer());
  restored.load_state(r);
  EXPECT_TRUE(r.done());

  ASSERT_EQ(restored.racks(), 3u);
  ASSERT_EQ(restored.epochs(), 5u);
  // bytes() reports reserved capacity, which differs between incremental
  // growth and load_state's exact reserve — only its order matters.
  EXPECT_GT(restored.bytes(), 0u);
  EXPECT_LE(restored.bytes(), store.bytes());
  for (std::size_t rack = 0; rack < 3; ++rack) {
    std::vector<EpochRecord> want;
    std::vector<EpochRecord> got;
    store.fill_report(rack, want);
    restored.fill_report(rack, got);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t e = 0; e < want.size(); ++e) {
      EXPECT_EQ(got[e].start.value(), want[e].start.value());
      EXPECT_EQ(got[e].training, want[e].training);
      EXPECT_EQ(got[e].source_case, want[e].source_case);
      EXPECT_EQ(got[e].predicted_renewable.value(), want[e].predicted_renewable.value());
      EXPECT_EQ(got[e].ratios, want[e].ratios);
      EXPECT_EQ(got[e].throughput, want[e].throughput);
    }
  }
}

TEST(Checkpoint, EpochRecordStoreRejectsTornColumns) {
  EpochRecordStore store;
  store.reset(2);
  std::vector<EpochRecord> row(2);
  row[0].ratios = {0.5, 0.5};
  store.append_epoch(row);
  checkpoint::Writer w;
  store.save_state(w);
  // Truncating the payload mid-column must throw, never partially restore.
  const std::string& buf = w.buffer();
  checkpoint::Reader r(std::string_view(buf.data(), buf.size() - 8));
  EpochRecordStore restored;
  restored.reset(2);
  EXPECT_THROW(restored.load_state(r), checkpoint::CheckpointError);
}

// ---------------------------------------------------------------------------
// Component round-trips.
// ---------------------------------------------------------------------------

TEST(Checkpoint, RngResumesTheExactStream) {
  Rng original{1234};
  // Consume an odd amount so the engine is mid-stream, not at a seed point.
  for (int i = 0; i < 37; ++i) (void)original.uniform(0.0, 1.0);

  checkpoint::Writer w;
  original.save_state(w);

  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(original.gaussian(0.0, 1.0));
  const Rng expected_child = original.fork(9);

  Rng restored{999};  // deliberately wrong seed; load_state must replace it
  checkpoint::Reader r(w.buffer());
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(restored.gaussian(0.0, 1.0), expected[i]) << "draw " << i;
  }
  // Forking depends on the master seed, which must survive the round trip.
  Rng a = expected_child;
  Rng b = restored.fork(9);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Checkpoint, BatteryRestoresChargeWearAndFault) {
  Battery original{lead_acid_spec(WattHours{12000.0})};
  (void)original.discharge(Watts{1000.0}, Minutes{60.0});
  (void)original.charge(Watts{500.0}, Minutes{30.0});
  original.set_fault_derate(0.2);

  checkpoint::Writer w;
  original.save_state(w);

  Battery restored{lead_acid_spec(WattHours{12000.0})};
  checkpoint::Reader r(w.buffer());
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.stored().value(), original.stored().value());
  EXPECT_EQ(restored.fault_derate(), original.fault_derate());
  EXPECT_EQ(restored.total_discharged().value(),
            original.total_discharged().value());
  EXPECT_EQ(restored.total_charged_input().value(),
            original.total_charged_input().value());
  EXPECT_EQ(restored.equivalent_cycles(), original.equivalent_cycles());
  EXPECT_EQ(restored.effective_capacity().value(),
            original.effective_capacity().value());
}

TEST(Checkpoint, HealthTrackerRestoresStateAndHysteresis) {
  HealthTracker original;
  HealthSignals bad;
  bad.divergent_samples = true;
  (void)original.observe_epoch(bad);  // normal -> degraded
  (void)original.observe_epoch(bad);  // degraded, consecutive_bad = 2
  ASSERT_EQ(original.state(), HealthState::kDegraded);

  checkpoint::Writer w;
  original.save_state(w);

  HealthTracker restored;
  checkpoint::Reader r(w.buffer());
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.state(), original.state());
  EXPECT_EQ(restored.consecutive_bad(), original.consecutive_bad());
  EXPECT_EQ(restored.consecutive_good(), original.consecutive_good());
  // One more bad epoch must complete the safe_after=3 streak on both.
  (void)original.observe_epoch(bad);
  (void)restored.observe_epoch(bad);
  EXPECT_EQ(restored.state(), original.state());
  EXPECT_EQ(original.state(), HealthState::kSafe);
}

TEST(Checkpoint, HealthTrackerRejectsBadStateTag) {
  checkpoint::Writer w;
  w.u8(17);  // not a HealthState
  w.i64(0);
  w.i64(0);
  HealthTracker tracker;
  checkpoint::Reader r(w.buffer());
  EXPECT_THROW(tracker.load_state(r), checkpoint::CheckpointError);
}

TEST(Checkpoint, DatabaseRestoresSamplesAndExactFit) {
  constexpr ProfileKey kKey{ServerModel::kXeonE5_2620, Workload::kSpecJbb};
  PerfPowerDatabase original;
  std::vector<ServerSample> training;
  for (double p : {90.0, 110.0, 130.0, 150.0, 170.0}) {
    training.push_back({Watts{p}, -0.02 * p * p + 8.0 * p - 300.0});
  }
  original.add_training_samples(kKey, training);
  // Runtime feedback moves the fit off the pristine training quadratic.
  original.add_runtime_sample(kKey, {Watts{142.0}, 520.0});
  original.add_runtime_sample(kKey, {Watts{121.5}, 470.0});

  checkpoint::Writer w;
  original.save_state(w);

  PerfPowerDatabase restored;
  checkpoint::Reader r(w.buffer());
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  ASSERT_TRUE(restored.contains(kKey));
  const ProfileRecord& a = original.record(kKey);
  const ProfileRecord& b = restored.record(kKey);
  EXPECT_EQ(b.powers, a.powers);
  EXPECT_EQ(b.perfs, a.perfs);
  EXPECT_EQ(b.pinned, a.pinned);
  EXPECT_EQ(b.refit_count, a.refit_count);
  // Bit-exact fit: the next allocation must be identical, so the restored
  // coefficients cannot come from a re-fit.
  EXPECT_EQ(b.fit.a, a.fit.a);
  EXPECT_EQ(b.fit.b, a.fit.b);
  EXPECT_EQ(b.fit.c, a.fit.c);
  EXPECT_EQ(b.projected_perf(Watts{133.0}), a.projected_perf(Watts{133.0}));
}

TEST(Checkpoint, FaultInjectorResumesDeliveryCursor) {
  const FaultPlan plan = make_random_plan(5, Minutes{24.0 * 60.0}, 4);
  ASSERT_GT(plan.size(), 0u);
  FaultInjector original{plan};
  (void)original.take_due(Minutes{6.0 * 60.0});
  const std::size_t pending = original.pending();

  checkpoint::Writer w;
  original.save_state(w);

  // A fresh injector from the same plan restores to the same cursor; the
  // remaining delivery stream matches action for action.
  FaultInjector restored{plan};
  checkpoint::Reader r(w.buffer());
  restored.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.pending(), pending);
  const auto expect_actions = original.take_due(Minutes{24.0 * 60.0});
  const auto got_actions = restored.take_due(Minutes{24.0 * 60.0});
  ASSERT_EQ(got_actions.size(), expect_actions.size());
  for (std::size_t i = 0; i < got_actions.size(); ++i) {
    EXPECT_EQ(got_actions[i].at.value(), expect_actions[i].at.value());
    EXPECT_EQ(got_actions[i].kind, expect_actions[i].kind);
    EXPECT_EQ(got_actions[i].begin, expect_actions[i].begin);
    EXPECT_EQ(got_actions[i].target, expect_actions[i].target);
    EXPECT_EQ(got_actions[i].value, expect_actions[i].value);
  }
}

TEST(Checkpoint, FaultInjectorRejectsForeignPlan) {
  FaultPlan two_events;
  two_events.add({Minutes{10.0}, FaultKind::kGridOutage, Minutes{30.0}});
  two_events.add({Minutes{90.0}, FaultKind::kSolarDropout, Minutes{30.0}});
  FaultInjector original{two_events};
  checkpoint::Writer w;
  original.save_state(w);

  // A plan with a different action count — the cursor would land on the
  // wrong schedule, so load must refuse.
  FaultPlan one_event;
  one_event.add({Minutes{10.0}, FaultKind::kGridOutage, Minutes{30.0}});
  FaultInjector other{one_event};
  checkpoint::Reader r(w.buffer());
  EXPECT_THROW(other.load_state(r), checkpoint::CheckpointError);
}

// ---------------------------------------------------------------------------
// Snapshot container: write/load, pruning, corruption rejection.
// ---------------------------------------------------------------------------

TEST(Snapshot, WriteLoadRoundTrip) {
  ScratchDir scratch;
  const std::string payload = "resumable state bytes \x01\x02\xFF";
  checkpoint::write_snapshot(scratch.path(), 42, 0xC0FFEEu, payload);

  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 1u);
  const checkpoint::Snapshot snap = checkpoint::load_snapshot(files[0]);
  EXPECT_EQ(snap.epoch_index, 42u);
  EXPECT_EQ(snap.config_hash, 0xC0FFEEu);
  EXPECT_EQ(snap.payload, payload);
  EXPECT_EQ(snap.path, files[0]);
}

TEST(Snapshot, KeepLastPrunesOldest) {
  ScratchDir scratch;
  for (std::uint64_t e = 1; e <= 5; ++e) {
    checkpoint::write_snapshot(scratch.path(), e, 1, "p", /*keep_last=*/2);
  }
  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(checkpoint::load_snapshot(files[0]).epoch_index, 4u);
  EXPECT_EQ(checkpoint::load_snapshot(files[1]).epoch_index, 5u);
}

TEST(Snapshot, KeepAllWhenNonPositive) {
  ScratchDir scratch;
  for (std::uint64_t e = 1; e <= 5; ++e) {
    checkpoint::write_snapshot(scratch.path(), e, 1, "p", /*keep_last=*/0);
  }
  EXPECT_EQ(checkpoint::list_snapshots(scratch.path()).size(), 5u);
}

TEST(Snapshot, RejectsFlippedPayloadByte) {
  ScratchDir scratch;
  checkpoint::write_snapshot(scratch.path(), 7, 1, "payload bytes here");
  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 1u);

  std::string bytes = read_file(files[0]);
  bytes[bytes.size() - 3] ^= 0x40;  // corrupt inside the payload
  write_file(files[0], bytes);
  EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
               checkpoint::CheckpointError);
}

TEST(Snapshot, RejectsTruncatedFile) {
  ScratchDir scratch;
  checkpoint::write_snapshot(scratch.path(), 7, 1, "payload bytes here");
  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 1u);

  const std::string bytes = read_file(files[0]);
  // Every proper prefix must be rejected, whether it tears the header or
  // the payload.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{20},
        bytes.size() - 1}) {
    write_file(files[0], bytes.substr(0, keep));
    EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
                 checkpoint::CheckpointError)
        << "prefix of " << keep << " bytes";
  }
}

TEST(Snapshot, RejectsForeignMagicAndFutureVersion) {
  ScratchDir scratch;
  checkpoint::write_snapshot(scratch.path(), 7, 1, "payload");
  const auto files = checkpoint::list_snapshots(scratch.path());
  const std::string bytes = read_file(files[0]);

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  write_file(files[0], bad_magic);
  EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
               checkpoint::CheckpointError);

  std::string future = bytes;
  future[8] = static_cast<char>(checkpoint::kSnapshotVersion + 1);
  write_file(files[0], future);
  EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
               checkpoint::CheckpointError);
}

TEST(Snapshot, RejectsPreviousVersionWithAClearError) {
  // A snapshot written under an older layout must be refused up front,
  // with a message naming both versions, rather than misread field by
  // field.
  ScratchDir scratch;
  checkpoint::write_snapshot(scratch.path(), 7, 1, "payload");
  const auto files = checkpoint::list_snapshots(scratch.path());
  std::string previous = read_file(files[0]);
  previous[8] = static_cast<char>(checkpoint::kSnapshotVersion - 1);
  write_file(files[0], previous);
  try {
    (void)checkpoint::load_snapshot(files[0]);
    FAIL() << "expected CheckpointError for a previous-version snapshot";
  } catch (const checkpoint::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported checkpoint version " +
                        std::to_string(checkpoint::kSnapshotVersion - 1)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("writes version " +
                        std::to_string(checkpoint::kSnapshotVersion)),
              std::string::npos)
        << what;
  }
}

TEST(Snapshot, RejectsTrailingGarbage) {
  ScratchDir scratch;
  checkpoint::write_snapshot(scratch.path(), 7, 1, "payload");
  const auto files = checkpoint::list_snapshots(scratch.path());
  write_file(files[0], read_file(files[0]) + "extra");
  EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
               checkpoint::CheckpointError);
}

TEST(Snapshot, LoadLatestSkipsCorruptAndPicksNewestValid) {
  ScratchDir scratch;
  checkpoint::write_snapshot(scratch.path(), 10, 1, "older", 0);
  checkpoint::write_snapshot(scratch.path(), 20, 1, "newest", 0);
  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 2u);

  // Tear the newest (a crash mid-rename cannot produce this, but disk
  // corruption can): resume must fall back to epoch 10, not fail.
  const std::string bytes = read_file(files[1]);
  write_file(files[1], bytes.substr(0, bytes.size() / 2));
  const auto latest = checkpoint::load_latest(scratch.path());
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch_index, 10u);
  EXPECT_EQ(latest->payload, "older");
}

TEST(Snapshot, LoadLatestEmptyDirectory) {
  ScratchDir scratch;
  EXPECT_FALSE(checkpoint::load_latest(scratch.path()).has_value());
  EXPECT_FALSE(checkpoint::load_latest(scratch / "missing").has_value());
}

}  // namespace
}  // namespace greenhetero
