// Fleet coordinator: multiple GreenHetero racks sharing one datacenter-level
// grid connection.
//
// The paper deploys the controller per rack (Section IV-A) and notes the
// trade-off: distributed rack controllers track load variability precisely,
// but rack-level plants cannot share capacity.  The one genuinely shared
// resource is the utility feed — its peak draw is what demand charges bill.
// This coordinator drives the racks' simulators in epoch lockstep and
// re-divides a total grid budget between them each epoch:
//
//   kStatic              equal share per rack, fixed forever (the baseline
//                        a per-rack deployment implies);
//   kDemandProportional  share proportional to each rack's current *green
//                        deficit* (demanded power minus renewable and
//                        battery capability) — racks with healthy green
//                        supply cede their grid share to starved ones.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/rebalancer.h"
#include "fleet/shard.h"
#include "sim/epoch_store.h"
#include "sim/rack_simulator.h"
#include "telemetry/stream_sink.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace greenhetero {

class FleetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class GridShareMode { kStatic, kDemandProportional };

/// "static" / "demand-proportional"; out-of-enum values render as
/// "GridShareMode(<n>)" so a corrupted config is diagnosable instead of "?".
[[nodiscard]] std::string to_string(GridShareMode mode);

/// Split `budget` across racks proportionally to their green deficits.
/// Falls back to an equal split when the deficits cannot support a
/// proportional division: total deficit ~zero (nobody needs the grid) or any
/// deficit non-finite (a poisoned demand reading must not NaN the whole
/// fleet's shares).  Empty input returns an empty vector.
[[nodiscard]] std::vector<Watts> divide_grid_budget(
    Watts budget, std::span<const double> deficits);

struct FleetConfig {
  Watts total_grid_budget{0.0};
  GridShareMode mode = GridShareMode::kStatic;
  /// Worker threads for the per-epoch rack stepping: 1 = sequential (the
  /// historical path), 0 = one per hardware thread, N = exactly N.  Results
  /// are byte-identical regardless of the value — each rack owns its own
  /// RNG/telemetry/fault state and the coordinator rebalances grid shares
  /// only at the epoch barrier.
  std::size_t threads = 1;
  /// Two-level hierarchy: racks are partitioned into this many contiguous
  /// shards, each stepping its racks on its own slice of the worker
  /// threads; the coordinator only folds per-shard summaries at the epoch
  /// barrier (see fleet/rebalancer.h).  1 = the flat fleet, 0 = one shard
  /// per worker thread (capped at the rack count).  Like `threads`, this is
  /// pure execution topology: every output is byte-identical at any value,
  /// only the gh_shard_* / gh_fleet_shards gauges describe the topology
  /// itself.
  std::size_t shards = 1;
  /// Coordinator-level telemetry (the coordinator stamps its events with
  /// rack id -1; each rack's own telemetry is configured via its SimConfig).
  TelemetryConfig telemetry;
  /// Runtime invariant checking of the coordinator's own decisions: validate
  /// every epoch's grid shares (finite, non-negative, never over-committing
  /// the total budget) via check::InvariantChecker::check_grid_shares.
  /// Per-rack invariants are enabled separately via SimConfig::check.
  bool check = false;
  /// Streaming trace sink: when set, run() drains the coordinator's and
  /// every rack's ring at each epoch barrier and watermark-merges them into
  /// this file (byte-identical to save_trace_jsonl at any thread count),
  /// capping trace memory for arbitrarily long runs.
  std::optional<telemetry::StreamSinkConfig> trace_stream;
  /// When non-empty, run() writes the merged fleet metrics snapshot here
  /// every `metrics_flush_every` epochs (temp file + rename) and once more
  /// at the end, so a long run's metrics survive an abort.
  std::string metrics_out;
  int metrics_flush_every = 128;
  /// Durable checkpointing: when checkpoint_dir is non-empty, run() writes a
  /// versioned, checksummed snapshot of the whole fleet (every rack's state,
  /// the coordinator's telemetry, the merged sink's durable watermark) every
  /// checkpoint_every epochs.  `greenhetero fleet --resume DIR` reloads the
  /// latest valid snapshot and continues to byte-identical final outputs at
  /// any thread count.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  /// Snapshots retained after each write; <= 0 keeps every snapshot.
  int checkpoint_keep = 2;
  /// Scenario fingerprint stored in every snapshot and verified on resume.
  std::uint64_t config_hash = 0;
  /// Cooperative stop flag (the CLI's SIGINT/SIGTERM handler sets it).
  /// Checked at each epoch barrier: run() writes a final checkpoint (when
  /// configured), finalizes outputs for the completed epochs and returns
  /// with FleetReport::interrupted set.
  const std::atomic<bool>* stop_flag = nullptr;

  /// Fail fast on out-of-range knobs (negative or non-finite grid budget).
  /// Throws FleetError; rack-dependent invariants (matching epoch lengths)
  /// are checked by the Fleet constructor.
  void validate() const;
};

struct FleetReport {
  std::vector<RunReport> racks;
  /// True when the run was cut short by a stop request; the report covers
  /// only the completed epochs and a final checkpoint was written if
  /// checkpointing was configured.
  bool interrupted = false;
  double total_work = 0.0;
  WattHours grid_energy{0.0};
  double grid_cost = 0.0;
  /// Highest simultaneous fleet grid draw planned in any epoch (the number
  /// demand charges are billed on).
  Watts peak_grid_allocation{0.0};
  /// Coordinator-level metrics (grid-share decisions; empty when disabled).
  MetricsSnapshot metrics;
};

class Fleet {
 public:
  /// Takes ownership of the rack simulators.  Every simulator must use the
  /// same epoch length (lockstep requires it).
  Fleet(std::vector<RackSimulator> racks, FleetConfig config);
  Fleet(std::vector<RackSimulator> racks, Watts total_grid_budget,
        GridShareMode mode);

  [[nodiscard]] std::size_t size() const { return racks_.size(); }
  [[nodiscard]] Watts total_grid_budget() const {
    return config_.total_grid_budget;
  }
  [[nodiscard]] GridShareMode mode() const { return config_.mode; }
  /// Resolved worker-thread count (config value 0 becomes the hardware
  /// concurrency at construction).
  [[nodiscard]] std::size_t threads() const { return threads_; }
  /// Resolved shard count (config value clamped to [1, racks]; 0 becomes
  /// one shard per worker thread).
  [[nodiscard]] std::size_t shards() const { return shards_.size(); }
  [[nodiscard]] const Shard& shard(std::size_t i) const {
    return shards_.at(i);
  }
  /// Bytes reserved by the SoA epoch history (the bench-gated peak-buffer
  /// figure for long runs).
  [[nodiscard]] std::size_t epoch_store_bytes() const {
    return history_.bytes();
  }
  [[nodiscard]] RackSimulator& rack(std::size_t i);

  /// Pretrain every rack's database (no plant interaction).
  void pretrain();

  /// Run all racks in epoch lockstep for `duration`; grid shares are
  /// re-divided before every epoch.  With threads > 1 the per-rack epoch
  /// steps run on the worker pool; the coordinator waits for every rack
  /// before replanning shares, so plan_grid_shares() always sees a
  /// consistent fleet snapshot and the report is byte-identical to the
  /// sequential path.
  FleetReport run(Minutes duration);

  /// The share each rack would receive right now (exposed for tests).
  [[nodiscard]] std::vector<Watts> plan_grid_shares() const;

  /// Coordinator-level telemetry context (rack id -1).
  [[nodiscard]] Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const Telemetry& telemetry() const { return *telemetry_; }

  /// Fleet-wide metrics: the coordinator's own series plus every rack's,
  /// the latter tagged with a "rack" label; re-sorted by (name, labels).
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;

  /// Merged trace across the coordinator and every rack, ordered by
  /// (sim time, rack id) — a schema header line, then one JSON object per
  /// line.
  void write_trace_jsonl(std::ostream& out) const;
  void save_trace_jsonl(const std::filesystem::path& path) const;

  /// Merged control-loop spans from every rack (and the coordinator) as one
  /// Chrome trace_event JSON file; each rack renders as its own process row.
  void write_chrome_spans(std::ostream& out) const;
  void save_chrome_spans(const std::filesystem::path& path) const;

  /// Merged profiler tree: the coordinator's phases plus every rack's,
  /// folded together in ascending rack order.  Each rack's epoch runs on
  /// exactly one thread and the merge happens after the epoch barrier, so
  /// every field except the wall/CPU timings is identical at any --threads.
  [[nodiscard]] telemetry::ProfileReport profile_report() const;
  void save_profile_json(const std::filesystem::path& path) const;

  /// Merged rollup series across every rack, ordered by (window start, rack)
  /// — the fleet --rollup-out format; a valid analyzer input on its own.
  /// Requires racks configured with rollup_window_min > 0; run() flushes
  /// each rack's trailing window before returning.
  void write_rollup_jsonl(std::ostream& out) const;
  void save_rollup_jsonl(const std::filesystem::path& path) const;

  /// Dump every rack's flight recorder with a shared reason (run-abort
  /// hook); returns the paths written (empty when recorders are disabled).
  std::vector<std::filesystem::path> dump_flight_records(
      std::string_view reason);

  /// The streaming sink (null unless FleetConfig::trace_stream was set).
  [[nodiscard]] telemetry::StreamingTraceSink* stream() {
    return stream_.get();
  }
  [[nodiscard]] const telemetry::StreamingTraceSink* stream() const {
    return stream_.get();
  }

  /// Serialize the complete resumable fleet state: every rack's state, the
  /// coordinator's telemetry, the per-rack epoch histories and the peak
  /// grid allocation.  The streaming sink is handled by write_checkpoint /
  /// load_checkpoint alongside.
  void save_state(checkpoint::Writer& w) const;
  void load_state(checkpoint::Reader& r);

  /// Write one snapshot of the whole fleet (including the merged sink's
  /// durable watermark) to FleetConfig::checkpoint_dir.  Called by run() at
  /// the configured cadence; callable directly at any epoch barrier.
  void write_checkpoint();
  /// Restore from a loaded snapshot: validates the payload kind and config
  /// fingerprint, restores every rack and (in streaming mode) truncates +
  /// reopens the merged sink file at its durable watermark.  The next run()
  /// continues from the restored epoch.
  void load_checkpoint(const checkpoint::Snapshot& snapshot);

 private:
  /// Drain the coordinator's + every rack's ring (epoch-major, coordinator
  /// first — the buffered writer's concatenation order) into the sink,
  /// flushing events strictly below `watermark`.
  void drain_to_stream(double watermark);
  /// One epoch's budget division: collect per-shard summaries (parallel
  /// over shards in demand-proportional mode, pure geometry in static
  /// mode), fold the canonical normalizer, and return the decision.
  /// `deficits` and `summaries` are caller-owned scratch (resized here).
  RebalanceDecision plan_rebalance(std::vector<double>& deficits,
                                   std::vector<ShardSummary>& summaries);
  std::vector<RackSimulator> racks_;
  FleetConfig config_;
  std::size_t threads_;
  std::unique_ptr<Telemetry> telemetry_;
  /// The two-level execution topology: each shard owns a contiguous rack
  /// range and its own worker-pool slice.  Always at least one shard; with
  /// --shards 1 the single shard's pool is exactly the old flat fleet pool.
  std::vector<Shard> shards_;
  /// Fans run()'s per-epoch work out over the shards.  Created only when
  /// both shards_ and threads_ exceed one; otherwise the shard loop runs
  /// inline (and a one-thread fleet costs nothing extra).
  std::unique_ptr<util::ThreadPool> shard_pool_;
  /// Engaged only when FleetConfig::trace_stream is set.
  std::unique_ptr<telemetry::StreamingTraceSink> stream_;
  /// Ring evictions (all rings) already reported via note_dropped().
  std::uint64_t streamed_dropped_ = 0;
  /// Completed-epoch history, all racks, as SoA columns (epoch-major).  A
  /// member (not a run()-local) so checkpoints capture it and a resumed run
  /// reassembles the full report, first epoch to last.
  EpochRecordStore history_;
  Watts peak_grid_allocation_{0.0};
  /// Set by load_checkpoint(); the next run() continues from the restored
  /// epoch instead of starting a fresh report.
  bool resumed_ = false;
};

}  // namespace greenhetero
