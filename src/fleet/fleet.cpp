#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "check/invariants.h"
#include "telemetry/metrics.h"
#include "util/atomic_file.h"

namespace greenhetero {

// Inside Fleet's members the telemetry() accessor shadows the nested
// namespace name; this alias keeps the free functions reachable.
namespace tel = telemetry;

std::string to_string(GridShareMode mode) {
  switch (mode) {
    case GridShareMode::kStatic:
      return "static";
    case GridShareMode::kDemandProportional:
      return "demand-proportional";
  }
  return "GridShareMode(" + std::to_string(static_cast<int>(mode)) + ")";
}

std::vector<Watts> divide_grid_budget(Watts budget,
                                      std::span<const double> deficits) {
  // One implicit shard covering the whole fleet: the rebalancer's canonical
  // fold and fallback rules ARE this function's historical arithmetic, so
  // expressing it this way keeps the flat helper and the sharded epoch loop
  // from ever drifting apart.
  if (deficits.empty()) return {};
  const ShardSummary whole = summarize_shard(0, 0, deficits);
  const RebalanceDecision decision =
      rebalance_grid_budget(budget, deficits, {&whole, 1});
  std::vector<Watts> shares;
  shares.reserve(deficits.size());
  for (double d : deficits) shares.push_back(rack_share(decision, d));
  return shares;
}

void FleetConfig::validate() const {
  if (!std::isfinite(total_grid_budget.value()) ||
      total_grid_budget.value() < 0.0) {
    throw FleetError("fleet: grid budget must be finite and non-negative");
  }
  if (metrics_flush_every < 1) {
    throw FleetError("fleet: metrics flush cadence must be at least 1 epoch");
  }
  if (trace_stream && trace_stream->queue_capacity == 0) {
    throw FleetError("fleet: stream queue capacity must be positive");
  }
  if (!checkpoint_dir.empty() && checkpoint_every < 1) {
    throw FleetError("fleet: checkpoint cadence must be at least 1 epoch");
  }
}

Fleet::Fleet(std::vector<RackSimulator> racks, FleetConfig config)
    : racks_(std::move(racks)), config_(config) {
  config_.validate();
  if (racks_.empty()) {
    throw FleetError("fleet: needs at least one rack");
  }
  const double epoch = racks_.front().controller().config().epoch.value();
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    const double other = racks_[i].controller().config().epoch.value();
    // Relative tolerance: an absolute 1e-9 would spuriously reject long
    // epochs whose representable values differ only in the last ulp.
    const double tolerance =
        1e-9 * std::max({1.0, std::fabs(epoch), std::fabs(other)});
    if (std::fabs(other - epoch) > tolerance) {
      throw FleetError("fleet: all racks must share one epoch length: rack 0"
                       " uses " +
                       tel::format_number(epoch) + " min but rack " +
                       std::to_string(i) + " uses " +
                       tel::format_number(other) + " min");
    }
  }
  threads_ = config_.threads == 0 ? util::ThreadPool::hardware_threads()
                                  : config_.threads;
  const std::size_t shard_count =
      config_.shards == 0
          ? std::min(racks_.size(), std::max<std::size_t>(1, threads_))
          : config_.shards;
  shards_ = make_shards(racks_.size(), shard_count, threads_);
  if (shards_.size() > 1 && threads_ > 1) {
    shard_pool_ = std::make_unique<util::ThreadPool>(
        std::min(shards_.size(), threads_));
  }
  config_.telemetry.rack_id = -1;  // coordinator events
  telemetry_ = std::make_unique<Telemetry>(config_.telemetry);
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    racks_[i].telemetry().set_rack_id(static_cast<int>(i));
  }
  if (config_.trace_stream) {
    stream_ = std::make_unique<tel::StreamingTraceSink>(
        *config_.trace_stream, &telemetry_->metrics());
  }
}

Fleet::Fleet(std::vector<RackSimulator> racks, Watts total_grid_budget,
             GridShareMode mode)
    : Fleet(std::move(racks),
            FleetConfig{.total_grid_budget = total_grid_budget,
                        .mode = mode,
                        .telemetry = {}}) {}

RackSimulator& Fleet::rack(std::size_t i) {
  if (i >= racks_.size()) {
    throw FleetError("fleet: rack index out of range");
  }
  return racks_[i];
}

void Fleet::pretrain() {
  for (RackSimulator& rack : racks_) rack.pretrain();
}

std::vector<Watts> Fleet::plan_grid_shares() const {
  const double n = static_cast<double>(racks_.size());
  std::vector<Watts> shares(racks_.size(), config_.total_grid_budget / n);
  if (config_.mode == GridShareMode::kStatic) {
    return shares;
  }

  // Demand-proportional: weight by each rack's current green deficit.
  const Minutes epoch = racks_.front().controller().config().epoch;
  std::vector<double> deficits(racks_.size(), 0.0);
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    const RackSimulator& sim = racks_[i];
    const Watts demand = sim.rack().peak_demand();
    const Watts green = sim.plant().renewable_available(sim.now()) +
                        sim.plant().battery_discharge_available(epoch);
    deficits[i] = (demand - green).value();
  }
  return divide_grid_budget(config_.total_grid_budget, deficits);
}

RebalanceDecision Fleet::plan_rebalance(std::vector<double>& deficits,
                                        std::vector<ShardSummary>& summaries) {
  summaries.resize(shards_.size());
  if (config_.mode == GridShareMode::kStatic) {
    // Static mode needs no deficit pass: the summaries are pure geometry
    // and the decision is the (hoisted) equal split.
    deficits.clear();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      summaries[s] = ShardSummary{};
      summaries[s].shard = shards_[s].index();
      summaries[s].first_rack = shards_[s].first_rack();
      summaries[s].racks = shards_[s].racks();
    }
    return rebalance_grid_budget(config_.total_grid_budget, {}, summaries);
  }
  // Each shard fills its slice of the per-rack deficit vector on its own
  // pool and reports its partial fold; the rebalancer then folds the full
  // vector once in canonical rack order (the cheap top-level exchange that
  // keeps the result bitwise-equal to the flat fleet).
  deficits.resize(racks_.size());
  const Minutes epoch = racks_.front().controller().config().epoch;
  const auto collect = [&](std::size_t s) {
    summaries[s] = shards_[s].collect_deficits(racks_, epoch, deficits);
  };
  if (shard_pool_) {
    shard_pool_->parallel_for(shards_.size(), collect);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) collect(s);
  }
  return rebalance_grid_budget(config_.total_grid_budget, deficits,
                               summaries);
}

FleetReport Fleet::run(Minutes duration) {
  const Minutes epoch = racks_.front().controller().config().epoch;
  const auto epochs = static_cast<std::size_t>(
      std::llround(duration.value() / epoch.value()));
  const auto flush_every =
      static_cast<std::size_t>(config_.metrics_flush_every);
  const auto checkpoint_every =
      static_cast<std::size_t>(std::max(1, config_.checkpoint_every));

  FleetReport report;
  report.racks.resize(racks_.size());

  // The per-rack epoch histories and the peak allocation live on the fleet
  // so checkpoints capture them; a resumed run continues from the restored
  // epoch with the completed records already in place.
  std::size_t start_epoch = 0;
  if (resumed_) {
    start_epoch = racks_.front().epoch_index();
    resumed_ = false;
  } else {
    history_.reset(racks_.size());
    peak_grid_allocation_ = Watts{0.0};
  }
  if (history_.racks() != racks_.size()) {
    history_.reset(racks_.size());
  }

  // Scratch reused every epoch: rack i's step lands in records[i] and its
  // deficit in deficits[i], so pool threads never touch a shared structure,
  // and the merge below runs in ascending rack order on this thread once
  // the epoch barrier clears.
  std::vector<EpochRecord> records(racks_.size());
  std::vector<double> deficits;
  std::vector<ShardSummary> summaries;
  std::vector<Watts> shares(racks_.size());

  // Fleet throughput gauge: rack-epochs stepped this run() over its wall
  // time.  Wall-clock, so excluded from byte-identity comparisons like the
  // gh_*_ns series.
  const std::chrono::steady_clock::time_point run_begin =
      std::chrono::steady_clock::now();
  std::size_t rack_epochs_stepped = 0;
  const auto update_throughput = [&] {
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - run_begin)
                            .count();
    if (rack_epochs_stepped == 0 || secs <= 0.0 ||
        !config_.telemetry.enabled) {
      return;
    }
    telemetry_->metrics()
        .gauge("gh_rack_epochs_per_sec")
        .set(static_cast<double>(rack_epochs_stepped) / secs);
  };

  for (std::size_t e = start_epoch; e < epochs; ++e) {
    // Planning happens strictly between epochs: every rack has finished the
    // previous step (the per-shard barriers have all cleared), so the
    // decision is computed from a consistent fleet snapshot no matter how
    // many threads or shards run.  The per-rack shares derive from the one
    // shared decision — its equal_share is hoisted per epoch, so shares can
    // never drift within an epoch even if the rack count changes mid-run.
    const RebalanceDecision decision = plan_rebalance(deficits, summaries);
    for (std::size_t i = 0; i < racks_.size(); ++i) {
      shares[i] = rack_share(decision, deficits.empty() ? 0.0 : deficits[i]);
    }
    if (config_.check) {
      check::InvariantChecker::check_grid_shares(
          shares, config_.total_grid_budget, racks_.front().now().value(),
          static_cast<long>(e));
      check::InvariantChecker::check_shard_grants(
          decision.grants, config_.total_grid_budget,
          racks_.front().now().value(), static_cast<long>(e));
    }
    Watts allocated{0.0};
    for (std::size_t i = 0; i < racks_.size(); ++i) {
      allocated += shares[i];
    }
    // Two-level fan-out: the coordinator runs one task per shard; each
    // shard steps its own racks behind its local barrier.  Which pool a
    // rack lands on never changes its arithmetic, so the records are
    // byte-identical at any --threads/--shards combination.
    const auto step_shard = [&](std::size_t s) {
      shards_[s].step(racks_, shares, records);
    };
    if (shard_pool_) {
      shard_pool_->parallel_for(shards_.size(), step_shard);
    } else {
      for (std::size_t s = 0; s < shards_.size(); ++s) step_shard(s);
    }
    history_.append_epoch(records);
    rack_epochs_stepped += racks_.size();
    peak_grid_allocation_ = max(peak_grid_allocation_, allocated);
    if (config_.telemetry.enabled) {
      telemetry_->set_now(racks_.front().now() - epoch);
      telemetry_->metrics().counter("gh_fleet_epochs_total").increment();
      std::vector<double> share_w;
      share_w.reserve(shares.size());
      for (Watts w : shares) share_w.push_back(w.value());
      telemetry_->emit("grid_share",
                       {{"mode", to_string(config_.mode)},
                        {"total_budget_w", config_.total_grid_budget.value()},
                        {"allocated_w", allocated.value()},
                        {"shares_w", std::move(share_w)}});
      // Topology gauges: deterministic for a given --shards value (and at
      // any --threads), but — like the wall-clock series — outside the
      // cross-shard byte-identity contract, since they describe the
      // execution topology itself.  Traces and rollups carry no shard ids
      // and stay strictly byte-identical.
      telemetry_->metrics()
          .gauge("gh_fleet_shards")
          .set(static_cast<double>(shards_.size()));
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        const tel::Labels label{{"shard", std::to_string(s)}};
        telemetry_->metrics()
            .gauge("gh_shard_grant_w", label)
            .set(decision.grants[s].value());
        telemetry_->metrics()
            .gauge("gh_shard_deficit_w", label)
            .set(summaries[s].deficit_sum);
        telemetry_->metrics()
            .gauge("gh_shard_racks", label)
            .set(static_cast<double>(shards_[s].racks()));
      }
    }
    // Epoch barrier: every event of epoch e (stamped < the next epoch's
    // start) is now in the rings, so the merge can flush up to that
    // watermark.  No pool thread is running, so the rings are quiescent.
    drain_to_stream(racks_.front().now().value());
    if (!config_.metrics_out.empty() && (e + 1) % flush_every == 0 &&
        e + 1 < epochs) {
      update_throughput();
      tel::save_metrics(metrics_snapshot(), config_.metrics_out,
                        /*human_sibling=*/true);
    }
    // Checkpoint at the epoch barrier: no pool thread is running, every
    // ring has been drained into the sink, and no finalization has
    // happened yet — the snapshot plus the truncated stream file
    // reconstruct this exact moment at any thread count.  A stop request
    // forces a final checkpoint, then falls through to normal finalization
    // so the outputs stay standalone-valid; resume discards that tail.
    const bool stop = config_.stop_flag &&
                      config_.stop_flag->load(std::memory_order_relaxed);
    if (!config_.checkpoint_dir.empty() &&
        (stop || (e + 1) % checkpoint_every == 0)) {
      write_checkpoint();
    }
    if (stop) {
      report.interrupted = true;
      break;
    }
  }

  // Close trailing rollup windows (their events are stamped with the run's
  // end time), then flush the merge tail past every timestamp.
  for (RackSimulator& rack : racks_) rack.flush_rollup();
  drain_to_stream(std::numeric_limits<double>::infinity());
  if (stream_) stream_->flush();
  update_throughput();
  if (!config_.metrics_out.empty()) {
    tel::save_metrics(metrics_snapshot(), config_.metrics_out,
                      /*human_sibling=*/true);
  }

  report.peak_grid_allocation = peak_grid_allocation_;
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    RunReport& r = report.racks[i];
    history_.fill_report(i, r.epochs);
    r.interrupted = report.interrupted;
    r.ledger = racks_[i].ledger();
    r.total_work = racks_[i].rack().total_work();
    r.overall_epu = racks_[i].overall_epu();
    r.battery_cycles = racks_[i].plant().battery().equivalent_cycles();
    r.grid_cost = racks_[i].plant().grid().total_cost();
    r.grid_energy = racks_[i].plant().grid().total_energy();
    r.metrics = racks_[i].metrics_snapshot();
    report.total_work += r.total_work;
    report.grid_energy += r.grid_energy;
    report.grid_cost += r.grid_cost;
  }
  report.metrics = telemetry_->metrics().snapshot();
  return report;
}

MetricsSnapshot Fleet::metrics_snapshot() const {
  MetricsSnapshot merged = telemetry_->metrics().snapshot();
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    MetricsSnapshot rack = racks_[i].metrics_snapshot();
    for (tel::SnapshotEntry& entry : rack.entries) {
      entry.labels.emplace_back("rack", std::to_string(i));
      merged.entries.push_back(std::move(entry));
    }
  }
  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const tel::SnapshotEntry& a, const tel::SnapshotEntry& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return merged;
}

void Fleet::write_trace_jsonl(std::ostream& out) const {
  out << tel::trace_header_json() << '\n';
  // Gather (time, rack, event pointer) and stable-sort so events within one
  // rack keep their emission order.
  std::vector<const tel::TraceEvent*> events;
  for (const tel::TraceEvent& e : telemetry_->trace().events()) {
    events.push_back(&e);
  }
  for (const RackSimulator& rack : racks_) {
    for (const tel::TraceEvent& e : rack.telemetry().trace().events()) {
      events.push_back(&e);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const tel::TraceEvent* a, const tel::TraceEvent* b) {
                     if (a->sim_minutes != b->sim_minutes) {
                       return a->sim_minutes < b->sim_minutes;
                     }
                     return a->rack_id < b->rack_id;
                   });
  for (const tel::TraceEvent* e : events) {
    out << e->to_json() << '\n';
  }
  // Ring evictions lose the oldest events; make the survivors' file say so
  // (the analyzer warns loudly on this footer).
  std::uint64_t dropped = telemetry_->trace().dropped();
  for (const RackSimulator& rack : racks_) {
    dropped += rack.telemetry().trace().dropped();
  }
  if (dropped > 0) {
    const double last = events.empty() ? 0.0 : events.back()->sim_minutes;
    out << tel::make_truncation_footer(last, dropped).to_json() << '\n';
  }
}

void Fleet::save_trace_jsonl(const std::filesystem::path& path) const {
  std::ostringstream out;
  write_trace_jsonl(out);
  try {
    util::write_file_atomic(path, out.str());
  } catch (const util::AtomicWriteError& e) {
    throw FleetError("fleet: cannot write trace output file: " +
                     std::string(e.what()));
  }
}

tel::ProfileReport Fleet::profile_report() const {
  // Coordinator first, then racks in ascending order: the merge is keyed by
  // phase path (a std::map), so the result is the same set either way, but
  // fixing the order keeps call counts deterministic even if a future node
  // field becomes order-sensitive.
  tel::ProfileReport merged = telemetry_->profiler().report();
  for (const RackSimulator& rack : racks_) {
    tel::merge_profile(merged, rack.telemetry().profiler().report());
  }
  return merged;
}

void Fleet::save_profile_json(const std::filesystem::path& path) const {
  try {
    tel::save_profile_json(profile_report(), path);
  } catch (const tel::TelemetryError& e) {
    throw FleetError("fleet: cannot write profile output file: " +
                     std::string(e.what()));
  }
}

void Fleet::write_chrome_spans(std::ostream& out) const {
  std::vector<tel::SpanRecord> merged;
  for (const tel::SpanRecord& s : telemetry_->spans().records()) {
    merged.push_back(s);
  }
  for (const RackSimulator& rack : racks_) {
    for (const tel::SpanRecord& s : rack.telemetry().spans().records()) {
      merged.push_back(s);
    }
  }
  tel::write_chrome_trace(out, merged);
}

void Fleet::save_chrome_spans(const std::filesystem::path& path) const {
  std::ostringstream out;
  write_chrome_spans(out);
  try {
    util::write_file_atomic(path, out.str());
  } catch (const util::AtomicWriteError& e) {
    throw FleetError("fleet: cannot write spans output file: " +
                     std::string(e.what()));
  }
}

void Fleet::write_rollup_jsonl(std::ostream& out) const {
  out << tel::trace_header_json() << '\n';
  struct Row {
    const tel::RollupWindow* window;
    int rack;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    const tel::Rollup& rollup = racks_[i].telemetry().rollup();
    for (const tel::RollupWindow& w : rollup.windows()) {
      rows.push_back({&w, static_cast<int>(i)});
    }
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.window->start_min != b.window->start_min) {
      return a.window->start_min < b.window->start_min;
    }
    return a.rack < b.rack;
  });
  for (const Row& row : rows) {
    out << tel::make_rollup_event(*row.window, row.rack).to_json() << '\n';
  }
}

void Fleet::save_rollup_jsonl(const std::filesystem::path& path) const {
  std::ostringstream out;
  write_rollup_jsonl(out);
  try {
    util::write_file_atomic(path, out.str());
  } catch (const util::AtomicWriteError& e) {
    throw FleetError("fleet: cannot write rollup output file: " +
                     std::string(e.what()));
  }
}

std::vector<std::filesystem::path> Fleet::dump_flight_records(
    std::string_view reason) {
  std::vector<std::filesystem::path> paths;
  for (RackSimulator& rack : racks_) {
    std::filesystem::path path = rack.dump_flight_record(reason);
    if (!path.empty()) paths.push_back(std::move(path));
  }
  return paths;
}

void Fleet::save_state(checkpoint::Writer& w) const {
  w.seq(racks_.size());
  telemetry_->save_state(w);
  w.f64(peak_grid_allocation_.value());
  w.u64(streamed_dropped_);
  for (const RackSimulator& rack : racks_) rack.save_state(w);
  // The history's SoA columns are topology-agnostic (rack-major within each
  // epoch row, no shard geometry), so a snapshot taken under any --shards
  // value restores into any other.
  history_.save_state(w);
}

void Fleet::load_state(checkpoint::Reader& r) {
  const std::size_t racks = r.seq();
  if (racks != racks_.size()) {
    throw checkpoint::CheckpointError(
        "fleet snapshot holds " + std::to_string(racks) +
        " racks but this fleet has " + std::to_string(racks_.size()));
  }
  telemetry_->load_state(r);
  peak_grid_allocation_ = Watts{r.f64()};
  streamed_dropped_ = r.u64();
  for (RackSimulator& rack : racks_) rack.load_state(r);
  history_.load_state(r);
  if (history_.racks() != racks_.size()) {
    throw checkpoint::CheckpointError(
        "fleet snapshot's epoch history covers " +
        std::to_string(history_.racks()) + " racks but this fleet has " +
        std::to_string(racks_.size()));
  }
}

void Fleet::write_checkpoint() {
  if (config_.checkpoint_dir.empty()) return;
  // Flush first so the writer thread is idle and the sink's tellp() is the
  // exact durable watermark of everything streamed so far.
  if (stream_) stream_->flush();
  checkpoint::Writer w;
  w.u8(2);  // payload kind: fleet run
  save_state(w);
  w.boolean(static_cast<bool>(stream_));
  if (stream_) stream_->save_state(w);
  checkpoint::write_snapshot(config_.checkpoint_dir,
                             racks_.front().epoch_index(), config_.config_hash,
                             w.buffer(), config_.checkpoint_keep);
}

void Fleet::load_checkpoint(const checkpoint::Snapshot& snapshot) {
  if (snapshot.config_hash != config_.config_hash) {
    throw checkpoint::CheckpointError(
        "checkpoint was taken under a different scenario configuration "
        "(fingerprint mismatch); refusing to resume");
  }
  checkpoint::Reader r{snapshot.payload};
  const std::uint8_t kind = r.u8();
  if (kind != 2) {
    throw checkpoint::CheckpointError(
        "snapshot holds a standalone simulation, not a fleet run");
  }
  load_state(r);
  const bool streamed = r.boolean();
  if (streamed != static_cast<bool>(stream_)) {
    throw checkpoint::CheckpointError(
        streamed ? "checkpointed fleet streamed its trace; resume needs the "
                   "same --trace-out stream configuration"
                 : "checkpointed fleet did not stream; resume must not add "
                   "a streaming sink");
  }
  if (stream_) stream_->load_state(r);
  if (!r.done()) {
    throw checkpoint::CheckpointError("snapshot has trailing bytes");
  }
  resumed_ = true;
}

void Fleet::drain_to_stream(double watermark) {
  if (!stream_) return;
  std::uint64_t dropped = telemetry_->trace().dropped();
  for (const RackSimulator& rack : racks_) {
    dropped += rack.telemetry().trace().dropped();
  }
  if (dropped > streamed_dropped_) {
    stream_->note_dropped(dropped - streamed_dropped_);
    streamed_dropped_ = dropped;
  }
  // Epoch-major, coordinator first — exactly the buffered writer's
  // concatenation order, which the stable merge sort relies on.
  std::vector<tel::TraceEvent> batch = telemetry_->trace().drain();
  for (RackSimulator& rack : racks_) {
    std::vector<tel::TraceEvent> events = rack.telemetry().trace().drain();
    batch.insert(batch.end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
  }
  stream_->push_merge(std::move(batch), watermark);
}

}  // namespace greenhetero
