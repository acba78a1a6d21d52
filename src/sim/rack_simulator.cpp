#include "sim/rack_simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "telemetry/probe.h"
#include "telemetry/span.h"
#include "util/logging.h"

namespace greenhetero {

// Inside RackSimulator's members the telemetry() accessor shadows the
// nested namespace name; this alias keeps the free functions reachable.
namespace tel = telemetry;

BatterySpec paper_battery_spec() {
  BatterySpec spec;
  spec.capacity = WattHours{12000.0};  // 10 x 12V x 100Ah
  spec.depth_of_discharge = 0.4;
  spec.round_trip_efficiency = 0.8;
  spec.max_charge_power = Watts{2000.0};
  spec.max_discharge_power = Watts{3000.0};
  spec.rated_cycles = 1300;
  return spec;
}

RackPowerPlant make_standard_plant(PowerTrace solar, GridSpec grid) {
  return RackPowerPlant{SolarArray{std::move(solar)},
                        Battery{paper_battery_spec()}, GridSupply{grid}};
}

RackPowerPlant make_fixed_budget_plant(Watts budget, Minutes duration) {
  const Minutes interval{15.0};
  const auto samples = static_cast<std::size_t>(
      std::ceil(duration.value() / interval.value())) + 1;
  PowerTrace constant{interval, std::vector<Watts>(samples, budget)};
  BatterySpec battery;
  battery.capacity = WattHours{1.0};
  battery.depth_of_discharge = 1.0;
  battery.max_charge_power = Watts{0.0};
  battery.max_discharge_power = Watts{0.0};
  GridSpec grid;
  grid.budget = Watts{0.0};
  return RackPowerPlant{SolarArray{std::move(constant)}, Battery{battery},
                        GridSupply{grid}};
}

void SimConfig::validate() const {
  if (substep.value() <= 0.0) {
    throw std::invalid_argument("sim config: substep must be positive");
  }
  if (substep.value() > controller.epoch.value() + 1e-9) {
    throw std::invalid_argument(
        "sim config: substep must not exceed the epoch length");
  }
  for (std::size_t i = 0; i < workload_schedule.size(); ++i) {
    if (workload_schedule[i].at.value() < 0.0) {
      throw std::invalid_argument(
          "sim config: workload switch times must be non-negative");
    }
    if (i > 0 && workload_schedule[i].at.value() <
                     workload_schedule[i - 1].at.value()) {
      throw std::invalid_argument(
          "sim config: workload schedule must be sorted by time");
    }
  }
  if (controller.profiling_noise < 0.0 || controller.profiling_noise > 1.0) {
    throw std::invalid_argument(
        "sim config: profiling noise must be in [0, 1]");
  }
  if (controller.monitor_dropout < 0.0 || controller.monitor_dropout > 1.0) {
    throw std::invalid_argument(
        "sim config: monitor dropout must be in [0, 1]");
  }
  if (controller.holt_training_window < 3) {
    throw std::invalid_argument(
        "sim config: Holt training window must be at least 3 epochs");
  }
  if (controller.holt_retrain_every < 1) {
    throw std::invalid_argument(
        "sim config: Holt retrain cadence must be at least 1 epoch");
  }
  if (metrics_flush_every < 1) {
    throw std::invalid_argument(
        "sim config: metrics flush cadence must be at least 1 epoch");
  }
  if (trace_stream && trace_stream->queue_capacity == 0) {
    throw std::invalid_argument(
        "sim config: stream queue capacity must be positive");
  }
  if (!checkpoint_dir.empty() && checkpoint_every < 1) {
    throw std::invalid_argument(
        "sim config: checkpoint cadence must be at least 1 epoch");
  }
}

struct RackSimulator::EpochStats {
  double renewable_sum = 0.0;
  double throughput_sum = 0.0;
  double discharge_sum = 0.0;
  double charge_sum = 0.0;
  double grid_sum = 0.0;
  double shortfall_sum = 0.0;
  EpuMeter epu;
  int steps = 0;

  void observe(const PowerFlows& flows, Watts renewable, double throughput,
               Watts shortfall) {
    renewable_sum += renewable.value();
    throughput_sum += throughput;
    discharge_sum += flows.battery_to_load.value();
    charge_sum += flows.battery_input().value();
    grid_sum += (flows.grid_to_load + flows.grid_to_battery).value();
    shortfall_sum += shortfall.value();
    ++steps;
  }
  [[nodiscard]] double mean(double sum) const {
    return steps > 0 ? sum / steps : 0.0;
  }
};

RackSimulator::RackSimulator(Rack rack, RackPowerPlant plant, SimConfig config)
    : rack_(std::move(rack)),
      plant_(std::move(plant)),
      config_(std::move(config)),
      telemetry_(std::make_unique<Telemetry>(config_.telemetry)),
      controller_(config_.controller),
      clock_(config_.controller.epoch, config_.substep) {
  config_.validate();
  base_dropout_ = config_.controller.monitor_dropout;
  if (!config_.faults.empty()) {
    for (const FaultEvent& event : config_.faults.events()) {
      const bool group_scoped = event.kind == FaultKind::kServerCrash ||
                                event.kind == FaultKind::kServerRecover ||
                                event.kind == FaultKind::kDvfsStuck ||
                                event.kind == FaultKind::kDvfsOffset;
      if (group_scoped && event.target >= 0 &&
          static_cast<std::size_t>(event.target) >= rack_.group_count()) {
        throw std::invalid_argument(
            "sim config: fault plan targets a group the rack does not have");
      }
    }
    injector_.emplace(config_.faults);
  }
  if (config_.check) {
    checker_ = std::make_unique<check::InvariantChecker>();
  }
  if (config_.trace_stream) {
    stream_ = std::make_unique<tel::StreamingTraceSink>(
        *config_.trace_stream, &telemetry_->metrics());
  }
  if (config_.rapl_enforcement) {
    if (config_.controller.policy == PolicyKind::kGreenHeteroS) {
      // The feedback caps act per group; they cannot express waking only a
      // subset of a group's members.
      throw std::invalid_argument(
          "simulator: RAPL enforcement does not support the subset policy");
    }
    PowerCapConfig cap_config;
    // Average over a few control ticks so state changes lag realistically.
    cap_config.window = config_.substep * 3.0;
    rapl_.assign(rack_.group_count(), PowerCapController{cap_config});
  }
  epochs_.reset(1);
}

void RackSimulator::enforce_with_rapl(std::span<const Watts> group_power) {
  for (std::size_t i = 0; i < rack_.group_count(); ++i) {
    const Watts cap =
        group_power[i] / static_cast<double>(rack_.group(i).count);
    rapl_[i].update(rack_.mutable_group_representative(i), cap,
                    clock_.substep_length());
    rack_.set_group_state(i, rack_.group_representative(i).state());
  }
}

Watts RackSimulator::demand_at(Minutes t) const {
  const Watts peak = rack_.peak_demand();
  if (!config_.demand_trace) return peak;
  return min(peak, config_.demand_trace->at(t));
}

void RackSimulator::pretrain() {
  if (!controller_.policy().needs_database()) return;
  const TelemetryScope scope(config_.telemetry.enabled ? telemetry_.get()
                                                       : nullptr);
  GH_PROBE("gh_pretrain_ns");
  const std::vector<double> sweep = controller_.training_sweep();
  for (std::size_t g = 0; g < rack_.group_count(); ++g) {
    const ProfileKey key{rack_.group(g).model, rack_.group_workload(g)};
    if (controller_.database().contains(key)) continue;
    // Flaky meters can drop readings; re-run the sweep until a usable
    // sample set lands (bounded — give up to the online training path).
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::vector<ServerSample> samples;
      samples.reserve(sweep.size());
      for (double fraction : sweep) {
        // Drive the whole rack to this fraction of each group's range;
        // only group g's meter is read, the rest just burn along (ample
        // power).
        std::vector<Watts> budgets;
        for (std::size_t i = 0; i < rack_.group_count(); ++i) {
          const PerfCurve& curve = rack_.group_curve(i);
          const Watts per_server =
              curve.idle_power() +
              (curve.peak_power() - curve.idle_power()) * fraction;
          budgets.push_back((per_server + Watts{0.01}) *
                            static_cast<double>(rack_.group(i).count));
        }
        rack_.enforce_allocation(budgets);
        const ServerSample s = controller_.monitor().sample_group(rack_, g);
        if (s.power.value() > 0.0) samples.push_back(s);
      }
      if (samples.size() < 3) continue;
      try {
        controller_.record_training(key, samples);
        break;
      } catch (const DatabaseError&) {
        // Degenerate (e.g. surviving samples at too few powers): retry.
      }
    }
  }
  rack_.power_off();
}

void RackSimulator::apply_workload_schedule(Minutes now) {
  while (next_switch_ < config_.workload_schedule.size() &&
         config_.workload_schedule[next_switch_].at.value() <=
             now.value() + 1e-9) {
    const WorkloadSwitch& sw = config_.workload_schedule[next_switch_];
    if (sw.workload != rack_.workload() || !rack_.uniform_workload()) {
      GH_INFO << "workload switch @" << now.value() << "min -> '"
              << workload_spec(sw.workload).name << "'";
      rack_.set_workload(sw.workload);
    }
    ++next_switch_;
  }
}

void RackSimulator::apply_due_faults(Minutes now) {
  if (!injector_) return;
  for (const FaultAction& action : injector_->take_due(now)) {
    apply_fault_action(action, now);
  }
}

void RackSimulator::apply_fault_action(const FaultAction& action,
                                       Minutes now) {
  const bool all_groups = action.target < 0;
  const auto first = all_groups ? std::size_t{0}
                                : static_cast<std::size_t>(action.target);
  const auto last = all_groups ? rack_.group_count() : first + 1;
  switch (action.kind) {
    case FaultKind::kServerCrash:
      for (std::size_t i = first; i < last; ++i) {
        rack_.set_group_online(i, !action.begin);
      }
      break;
    case FaultKind::kServerRecover:
      for (std::size_t i = first; i < last; ++i) {
        rack_.set_group_online(i, true);
      }
      break;
    case FaultKind::kDvfsStuck:
      for (std::size_t i = first; i < last; ++i) {
        rack_.set_group_stuck_state(
            i, action.begin
                   ? std::optional<int>{static_cast<int>(action.value)}
                   : std::nullopt);
      }
      break;
    case FaultKind::kDvfsOffset:
      for (std::size_t i = first; i < last; ++i) {
        rack_.set_group_actuation_offset(
            i, Watts{action.begin ? action.value : 0.0});
      }
      break;
    case FaultKind::kSolarDropout:
      plant_.set_solar_outage(action.begin);
      break;
    case FaultKind::kSolarStuck:
      // Sensor fault: latch what the meter reads right now and keep
      // reporting it; the physical array is unaffected.
      if (action.begin) {
        solar_sensor_stuck_ = plant_.renewable_available(now);
      } else {
        solar_sensor_stuck_.reset();
      }
      break;
    case FaultKind::kGridOutage:
      plant_.set_grid_outage(action.begin);
      break;
    case FaultKind::kBatteryDerate:
      plant_.set_battery_fault_derate(action.begin ? action.value : 0.0);
      break;
    case FaultKind::kMonitorDropout:
      controller_.monitor().set_dropout_rate(action.begin ? action.value
                                                          : base_dropout_);
      break;
  }
  GH_WARN << "fault @" << now.value() << "min: " << to_string(action.kind)
          << (action.begin ? " begins" : " ends");
  if (Telemetry* t = tel::current()) {
    const Minutes stamp = t->now();
    t->set_now(now);
    t->emit("fault_inject", {{"kind", to_string(action.kind)},
                             {"phase", action.begin ? "begin" : "end"},
                             {"target", action.target},
                             {"value", action.value}});
    t->set_now(stamp);
    if (action.begin) {
      t->metrics()
          .counter("gh_faults_injected_total",
                   {{"kind", to_string(action.kind)}})
          .increment();
    }
  }
}

EpochRecord RackSimulator::step_epoch() {
  try {
    return step_epoch_impl();
  } catch (const check::InvariantViolation& violation) {
    // The post-mortem trigger: freeze the rack's recent full-detail history
    // before the exception unwinds the run.
    dump_flight_record("invariant_" + violation.name());
    throw;
  }
}

EpochRecord RackSimulator::step_epoch_impl() {
  const TelemetryScope scope(config_.telemetry.enabled ? telemetry_.get()
                                                       : nullptr);
  GH_PROBE("gh_step_epoch_ns");
  GH_SPAN("epoch");
  const Minutes epoch_start = clock_.now();
  telemetry_->set_now(epoch_start);
  apply_due_faults(epoch_start);
  apply_workload_schedule(epoch_start);
  // Open the loss ledger after the workload switch (peak_demand must be
  // current) and before plan_epoch (the controller posts the plan).
  if (tel::LossLedger* loss = tel::loss_ledger()) {
    loss->begin_epoch(epoch_start.value(), rack_.peak_demand().value());
  }
  const Watts demand_hint = demand_at(epoch_start);
  const EpochPlan plan =
      controller_.plan_epoch(rack_, plant_, epoch_start, demand_hint);

  EpochRecord record;
  record.start = epoch_start;
  record.training = plan.training_run;
  record.source_case = plan.source.source_case;
  record.predicted_renewable = plan.predicted_renewable;
  record.budget = plan.source.server_budget;
  record.ratios = plan.allocation.ratios;

  if (plan.training_run) {
    run_training_epoch(plan, record);
  } else {
    run_normal_epoch(plan, demand_hint, record);
  }
  record_epoch_telemetry(record);
  if (checker_) {
    check::InvariantChecker::EpochContext ctx;
    ctx.record = &record;
    ctx.ledger = &ledger_;
    ctx.run_epu = run_epu_.epu();
    ctx.floor_soc = 1.0 - plant_.battery().spec().depth_of_discharge;
    // record_epoch_telemetry just closed the loss epoch; check the exact
    // decomposition it appended.
    if (const tel::LossLedger* loss = tel::loss_ledger();
        loss != nullptr && !loss->epochs().empty()) {
      ctx.loss = &loss->epochs().back();
    }
    checker_->check_epoch(ctx);
  }
  const HealthState health_now = controller_.health().state();
  if (health_now != last_health_) {
    const HealthTracker::Transition edge{last_health_, health_now};
    last_health_ = health_now;
    if (edge.leaves_normal()) {
      dump_flight_record(std::string("health_") + to_string(health_now));
    }
  }
  return record;
}

/// The authoritative per-epoch trace event: emitted after the epoch has run,
/// so it carries the plan (case, prediction, PAR) *and* the outcome (actual
/// renewable, throughput, EPU, shortfall) side by side.
void RackSimulator::record_epoch_telemetry(const EpochRecord& record) {
  Telemetry* t = tel::current();
  if (t == nullptr) return;
  tel::MetricsRegistry& m = t->metrics();
  m.counter("gh_epochs_total", {{"case", std::string(to_string(record.source_case))}})
      .increment();
  if (record.training) m.counter("gh_training_epochs_total").increment();
  m.counter("gh_substeps_total")
      .increment(static_cast<double>(clock_.substeps_per_epoch()));
  if (!record.training) {
    m.histogram("gh_renewable_prediction_error_w", tel::watt_buckets())
        .observe(std::fabs(record.predicted_renewable.value() -
                           record.actual_renewable.value()));
  }
  m.gauge("gh_battery_soc").set(record.battery_soc);
  t->emit("epoch_plan",
          {{"training", record.training},
           {"case", to_string(record.source_case)},
           {"predicted_renewable_w", record.predicted_renewable.value()},
           {"actual_renewable_w", record.actual_renewable.value()},
           {"budget_w", record.budget.value()},
           {"ratios", record.ratios},
           {"throughput", record.throughput},
           {"epu", record.epu},
           {"battery_soc", record.battery_soc},
           {"grid_w", record.grid_power.value()},
           {"shortfall_w", record.shortfall.value()}});
  tel::LossLedger* loss = tel::loss_ledger();
  std::optional<tel::EpochLossRecord> loss_epoch;
  if (loss != nullptr && loss->epoch_open()) {
    loss_epoch = loss->end_epoch();
    const tel::EpochLossRecord& epoch = *loss_epoch;
    m.counter("gh_loss_epochs_total").increment();
    m.gauge("gh_loss_invariant_error_w").set(epoch.invariant_error_w());
    tel::TraceFields fields{{"supply_w", epoch.supply_w},
                            {"useful_w", epoch.useful_w},
                            {"epu", epoch.epu()}};
    for (tel::LossBucket b : tel::all_loss_buckets()) {
      const double watts = epoch.bucket(b);
      m.gauge("gh_loss_w", {{"bucket", std::string(tel::to_string(b))}})
          .set(watts);
      fields.emplace_back(std::string(tel::to_string(b)) + "_w", watts);
    }
    t->emit("loss_ledger", std::move(fields));
  }
  if (t->rollup().enabled()) {
    tel::RollupSample sample;
    sample.t_min = record.start.value();
    sample.epu = record.epu;
    sample.shortfall_w = record.shortfall.value();
    sample.grid_w = record.grid_power.value();
    sample.health_state = static_cast<int>(controller_.health().state());
    sample.loss = loss_epoch ? &*loss_epoch : nullptr;
    if (auto window = t->rollup().observe_epoch(sample)) {
      m.counter("gh_rollup_windows_total").increment();
      t->emit("rollup", window->to_trace_fields());
    }
  }
  // Last so it counts this epoch's own events; what a streaming drain (or
  // the ring bound) is holding right now.
  m.gauge("gh_trace_buffer_bytes")
      .set(static_cast<double>(t->trace().approx_bytes()));
}

void RackSimulator::set_grid_budget(Watts budget) {
  plant_.set_grid_budget(budget);
}

void RackSimulator::drain_trace_to_stream() {
  if (!stream_) return;
  tel::TraceRing& ring = telemetry_->trace();
  const std::uint64_t dropped = ring.dropped();
  if (dropped > streamed_dropped_) {
    stream_->note_dropped(dropped - streamed_dropped_);
    streamed_dropped_ = dropped;
  }
  stream_->push(ring.drain());
}

void RackSimulator::flush_rollup() {
  tel::Rollup& rollup = telemetry_->rollup();
  if (!rollup.enabled()) return;
  const Minutes end = clock_.now();
  if (auto window = rollup.flush(end.value())) {
    // Stamped with the run's end time — never earlier than any event
    // already emitted, which the streaming watermark merge relies on.
    telemetry_->set_now(end);
    telemetry_->metrics().counter("gh_rollup_windows_total").increment();
    telemetry_->emit("rollup", window->to_trace_fields());
  }
}

std::filesystem::path RackSimulator::dump_flight_record(
    std::string_view reason) {
  tel::FlightRecorder& recorder = telemetry_->flightrec();
  if (!recorder.enabled()) return {};
  const double now = clock_.now().value();
  // Render the fault plan as context rows — the post-mortem's first
  // question is "which injected faults were in flight?".
  std::vector<tel::TraceEvent> rows;
  rows.reserve(config_.faults.events().size());
  for (const FaultEvent& event : config_.faults.events()) {
    tel::TraceEvent row;
    row.sim_minutes = now;
    row.rack_id = telemetry_->rack_id();
    row.phase = "fault_plan_row";
    row.fields = {{"at_min", event.at.value()},
                  {"kind", to_string(event.kind)},
                  {"duration_min", event.duration.value()},
                  {"target", event.target},
                  {"value", event.value},
                  {"state", event.at.value() <= now + 1e-9 ? "delivered"
                                                           : "pending"}};
    rows.push_back(std::move(row));
  }
  telemetry_->metrics().counter("gh_flightrec_dumps_total").increment();
  return recorder.dump(reason, telemetry_->rack_id(), now,
                       telemetry_->metrics().snapshot(), rows);
}

RunReport RackSimulator::run(Minutes duration) {
  RunReport report;
  const auto total_epochs = static_cast<std::size_t>(
      std::llround(duration.value() / clock_.epoch_length().value()));
  const auto flush_every =
      static_cast<std::size_t>(config_.metrics_flush_every);
  const auto checkpoint_every =
      static_cast<std::size_t>(std::max(1, config_.checkpoint_every));
  // The epoch history lives on the simulator so checkpoints capture it; a
  // resumed run continues from the restored epoch with the completed
  // records already in place, a fresh run starts over.
  std::size_t start_epoch = 0;
  if (resumed_) {
    start_epoch = clock_.epoch_index();
    resumed_ = false;
  } else {
    epochs_.reset(1);
  }
  // Throughput gauge: epochs stepped in *this* run() over its wall time.
  // Wall-clock, so — like the gh_*_ns series — it sits outside the
  // byte-identity comparisons (the crash fuzzer and the parallel-fleet
  // test filter it out).
  const std::chrono::steady_clock::time_point run_begin =
      std::chrono::steady_clock::now();
  std::size_t stepped = 0;
  const auto update_throughput = [&] {
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - run_begin)
                            .count();
    if (stepped == 0 || secs <= 0.0 || !telemetry_->config().enabled) return;
    telemetry_->metrics()
        .gauge("gh_rack_epochs_per_sec")
        .set(static_cast<double>(stepped) / secs);
  };
  for (std::size_t e = start_epoch; e < total_epochs; ++e) {
    epochs_.append(step_epoch());
    ++stepped;
    drain_trace_to_stream();
    if (!config_.metrics_out.empty() && (e + 1) % flush_every == 0 &&
        e + 1 < total_epochs) {
      update_throughput();
      tel::save_metrics(telemetry_->metrics().snapshot(), config_.metrics_out,
                        /*human_sibling=*/true);
    }
    // Checkpoint at the epoch barrier: the ring is drained, the sink is
    // about to be flushed, and no finalization has happened yet, so the
    // snapshot plus the truncated stream file reconstruct this exact
    // moment.  A stop request forces a final checkpoint regardless of
    // cadence, then falls through to normal finalization — the outputs
    // stay standalone-valid and resume discards that tail anyway.
    const bool stop = config_.stop_flag &&
                      config_.stop_flag->load(std::memory_order_relaxed);
    if (!config_.checkpoint_dir.empty() &&
        (stop || (e + 1) % checkpoint_every == 0)) {
      write_checkpoint();
    }
    if (stop) {
      report.interrupted = true;
      GH_WARN << "stop requested; run interrupted after epoch " << e + 1
              << " of " << total_epochs;
      break;
    }
  }
  flush_rollup();
  drain_trace_to_stream();
  if (stream_) stream_->flush();
  update_throughput();
  if (!config_.metrics_out.empty()) {
    tel::save_metrics(telemetry_->metrics().snapshot(), config_.metrics_out,
                      /*human_sibling=*/true);
  }

  epochs_.fill_report(0, report.epochs);
  report.ledger = ledger_;
  report.total_work = rack_.total_work();
  report.overall_epu = run_epu_.epu();
  report.battery_cycles = plant_.battery().equivalent_cycles();
  report.grid_cost = plant_.grid().total_cost();
  report.grid_energy = plant_.grid().total_energy();
  report.metrics = telemetry_->metrics().snapshot();
  return report;
}

void RackSimulator::save_state(checkpoint::Writer& w) const {
  clock_.save_state(w);
  rack_.save_state(w);
  plant_.save_state(w);
  controller_.save_state(w);
  ledger_.save_state(w);
  run_epu_.save_state(w);
  w.u64(static_cast<std::uint64_t>(next_switch_));
  // rapl_ sizing, injector_ and checker_ engagement all derive from the
  // (identical) config, so only engaged state is written.
  for (const PowerCapController& cap : rapl_) cap.save_state(w);
  if (injector_) injector_->save_state(w);
  checkpoint::save(w, solar_sensor_stuck_
                          ? std::optional<double>{solar_sensor_stuck_->value()}
                          : std::nullopt);
  w.u8(static_cast<std::uint8_t>(last_health_));
  w.u64(streamed_dropped_);
  if (checker_) checker_->save_state(w);
  telemetry_->save_state(w);
  epochs_.save_state(w);
}

void RackSimulator::load_state(checkpoint::Reader& r) {
  clock_.load_state(r);
  rack_.load_state(r);
  plant_.load_state(r);
  controller_.load_state(r);
  ledger_.load_state(r);
  run_epu_.load_state(r);
  next_switch_ = static_cast<std::size_t>(r.u64());
  if (next_switch_ > config_.workload_schedule.size()) {
    throw checkpoint::CheckpointError(
        "simulator state: workload-switch cursor out of range");
  }
  for (PowerCapController& cap : rapl_) cap.load_state(r);
  if (injector_) injector_->load_state(r);
  std::optional<double> stuck;
  checkpoint::load(r, stuck);
  solar_sensor_stuck_ =
      stuck ? std::optional<Watts>{Watts{*stuck}} : std::nullopt;
  const std::uint8_t health = r.u8();
  if (health > static_cast<std::uint8_t>(HealthState::kRecovering)) {
    throw checkpoint::CheckpointError("simulator state: bad health state " +
                                      std::to_string(health));
  }
  last_health_ = static_cast<HealthState>(health);
  streamed_dropped_ = r.u64();
  if (checker_) checker_->load_state(r);
  telemetry_->load_state(r);
  epochs_.load_state(r);
  if (epochs_.racks() != 1) {
    throw checkpoint::CheckpointError(
        "simulator state: epoch history is not single-rack");
  }
}

void RackSimulator::write_checkpoint() {
  if (config_.checkpoint_dir.empty()) return;
  // Flush first so the writer thread is idle and the sink's tellp() is the
  // exact durable watermark of everything streamed so far.
  if (stream_) stream_->flush();
  checkpoint::Writer w;
  w.u8(1);  // payload kind: standalone rack simulation
  save_state(w);
  w.boolean(static_cast<bool>(stream_));
  if (stream_) stream_->save_state(w);
  checkpoint::write_snapshot(config_.checkpoint_dir, clock_.epoch_index(),
                             config_.config_hash, w.buffer(),
                             config_.checkpoint_keep);
}

void RackSimulator::load_checkpoint(const checkpoint::Snapshot& snapshot) {
  if (snapshot.config_hash != config_.config_hash) {
    throw checkpoint::CheckpointError(
        "checkpoint was taken under a different scenario configuration "
        "(fingerprint mismatch); refusing to resume");
  }
  checkpoint::Reader r{snapshot.payload};
  const std::uint8_t kind = r.u8();
  if (kind != 1) {
    throw checkpoint::CheckpointError(
        "snapshot holds a fleet run, not a standalone simulation");
  }
  load_state(r);
  const bool streamed = r.boolean();
  if (streamed != static_cast<bool>(stream_)) {
    throw checkpoint::CheckpointError(
        streamed ? "checkpointed run streamed its trace; resume needs the "
                   "same --trace-out stream configuration"
                 : "checkpointed run did not stream; resume must not add a "
                   "streaming sink");
  }
  if (stream_) stream_->load_state(r);
  if (!r.done()) {
    throw checkpoint::CheckpointError("snapshot has trailing bytes");
  }
  resumed_ = true;
}

void RackSimulator::run_training_epoch(const EpochPlan& plan,
                                       EpochRecord& record) {
  // Training run (Fig. 7): sweep the frequency levels under ample power for
  // training_duration, sampling each level; then full speed for the rest of
  // the epoch.  Battery and grid stand by to absorb renewable shortfalls.
  const ControllerConfig& cc = controller_.config();
  const std::vector<double> sweep = controller_.training_sweep();
  std::vector<std::vector<ServerSample>> samples(rack_.group_count());

  SourceDecision decision;
  decision.source_case = PowerCase::kGridFallback;
  decision.from_battery = plant_.battery_discharge_available(clock_.substep_length());
  decision.from_grid = plant_.grid_budget();
  decision.server_budget = plan.source.server_budget;
  // The controller skips planning for training epochs, so the simulator
  // posts the ledger plan itself: no forecast, and the green share is the
  // budget minus the grid standing by underneath it.
  if (tel::LossLedger* loss = tel::loss_ledger()) {
    loss->set_plan(
        0.0, std::max(0.0, (decision.server_budget - decision.from_grid).value()));
  }

  EpochStats stats;
  GH_PROBE("gh_substep_loop_ns");
  {
    GH_SPAN("substeps");
    const auto substeps = clock_.substeps_per_epoch();
    for (std::size_t s = 0; s < substeps; ++s) {
      const double elapsed =
          static_cast<double>(s) * clock_.substep_length().value();
      std::vector<Watts> budgets(rack_.group_count());
      const bool in_training = elapsed < cc.training_duration.value();
      const auto sample_idx = std::min(
          sweep.size() - 1,
          static_cast<std::size_t>(elapsed /
                                   cc.training_sample_interval.value()));
      const double fraction = in_training ? sweep[sample_idx] : 1.0;
      for (std::size_t i = 0; i < rack_.group_count(); ++i) {
        const PerfCurve& curve = rack_.group_curve(i);
        const Watts per_server =
            curve.idle_power() +
            (curve.peak_power() - curve.idle_power()) * fraction;
        budgets[i] = (per_server + Watts{0.01}) *
                     static_cast<double>(rack_.group(i).count);
      }
      rack_.enforce_allocation(budgets);
      // Sample at the end of each profiling interval.
      if (in_training &&
          std::fmod(elapsed + clock_.substep_length().value(),
                    cc.training_sample_interval.value()) < 1e-9) {
        for (std::size_t i = 0; i < rack_.group_count(); ++i) {
          samples[i].push_back(controller_.monitor().sample_group(rack_, i));
        }
      }
      execute_substep(decision, budgets, stats);
      clock_.advance_substep();
    }
  }

  for (std::size_t i = 0; i < rack_.group_count(); ++i) {
    const ProfileKey key{rack_.group(i).model, rack_.group_workload(i)};
    if (!controller_.database().contains(key)) {
      // Dropped meter readings (zero power) carry no information; if too
      // few valid samples remain, skip recording — needs_training stays
      // true and the next epoch retries the run.
      std::vector<ServerSample> valid;
      for (const ServerSample& s : samples[i]) {
        if (s.power.value() > 0.0) valid.push_back(s);
      }
      if (valid.size() < 3) {
        GH_WARN << "training run for group " << i
                << " lost too many samples; retrying next epoch";
        continue;
      }
      try {
        controller_.record_training(key, valid);
      } catch (const DatabaseError&) {
        GH_WARN << "training samples degenerate for group " << i
                << "; retrying next epoch";
      }
    }
  }

  record.actual_renewable = Watts{stats.mean(stats.renewable_sum)};
  record.throughput = stats.mean(stats.throughput_sum);
  record.epu = stats.epu.epu();
  record.battery_soc = plant_.battery().soc();
  record.battery_discharge = Watts{stats.mean(stats.discharge_sum)};
  record.battery_charge = Watts{stats.mean(stats.charge_sum)};
  record.grid_power = Watts{stats.mean(stats.grid_sum)};
  record.shortfall = Watts{stats.mean(stats.shortfall_sum)};
  controller_.finish_epoch(rack_, record.actual_renewable,
                           rack_.peak_demand());
}

void RackSimulator::run_normal_epoch(const EpochPlan& plan, Watts demand_hint,
                                     EpochRecord& record) {
  std::vector<Watts> group_power;
  if (plan.source.server_budget.value() > 1e-6 &&
      !plan.allocation.ratios.empty()) {
    if (config_.rapl_enforcement) {
      // RAPL mode: only set the caps; the feedback loops converge over the
      // next substeps instead of jumping instantly.
      group_power.reserve(plan.allocation.ratios.size());
      for (double ratio : plan.allocation.ratios) {
        group_power.push_back(plan.source.server_budget *
                              std::max(0.0, ratio));
      }
    } else {
      group_power = Enforcer::apply_allocation(rack_, plan.allocation,
                                               plan.source.server_budget);
    }
  } else {
    rack_.power_off();
    group_power.assign(rack_.group_count(), Watts{0.0});
  }

  EpochStats stats;
  GH_PROBE("gh_substep_loop_ns");
  {
    GH_SPAN("substeps");
    const auto substeps = clock_.substeps_per_epoch();
    for (std::size_t s = 0; s < substeps; ++s) {
      execute_substep(plan.source, group_power, stats);
      clock_.advance_substep();
    }
  }

  record.actual_renewable = Watts{stats.mean(stats.renewable_sum)};
  record.throughput = stats.mean(stats.throughput_sum);
  record.epu = stats.epu.epu();
  record.battery_soc = plant_.battery().soc();
  record.battery_discharge = Watts{stats.mean(stats.discharge_sum)};
  record.battery_charge = Watts{stats.mean(stats.charge_sum)};
  record.grid_power = Watts{stats.mean(stats.grid_sum)};
  record.shortfall = Watts{stats.mean(stats.shortfall_sum)};
  EpochFeedback feedback;
  // A stuck sensor lies to the controller (and through it to the Holt
  // predictor); the record keeps the ground truth.
  feedback.observed_renewable =
      solar_sensor_stuck_ ? *solar_sensor_stuck_ : record.actual_renewable;
  feedback.observed_demand = demand_hint;
  feedback.shortfall = record.shortfall;
  feedback.evaluate_health = true;
  controller_.finish_epoch(rack_, feedback);
}

PowerFlows RackSimulator::execute_substep(const SourceDecision& decision,
                                          std::vector<Watts>& group_power,
                                          EpochStats& stats) {
  const Minutes now = clock_.now();
  const Minutes dt = clock_.substep_length();
  apply_due_faults(now);
  const Watts renewable = plant_.renewable_available(now);

  if (config_.rapl_enforcement && !group_power.empty()) {
    enforce_with_rapl(group_power);
  }

  Watts draw = rack_.total_draw();
  StepPlan step = Enforcer::plan_step(decision, renewable, draw, plant_, dt);
  if (step.shortfall.value() > 1e-6 && draw.value() > 0.0) {
    // The plan overshot the sources (prediction error): degrade every
    // group's budget proportionally and re-enforce.  Enforcement quantises
    // downward, so one pass brings the draw within the available power.
    // In RAPL mode this is the PROCHOT-style emergency throttle: the
    // feedback loop is bypassed and states drop immediately.
    const double factor =
        std::max(0.0, (draw - step.shortfall) / draw);
    for (Watts& budget : group_power) budget *= factor;
    rack_.enforce_allocation(group_power);
    draw = rack_.total_draw();
    step = Enforcer::plan_step(decision, renewable, draw, plant_, dt);
    GH_DEBUG << "substep @" << now.value() << "min: degraded allocation by "
             << factor;
    if (Telemetry* t = tel::current()) {
      t->metrics().counter("gh_degraded_substeps_total").increment();
      // The emergency re-enforcement above quantised every group again.
      t->metrics()
          .counter("gh_dvfs_quantization_passes_total")
          .increment(static_cast<double>(group_power.size()));
    }
  }

  // EPU bookkeeping: green power offered to the servers this step, computed
  // against pre-execution battery availability.
  const Watts green_planned =
      max(Watts{0.0}, decision.server_budget - decision.from_grid);
  Watts green_available = renewable;
  if (decision.from_battery.value() > 0.0) {
    green_available += plant_.battery_discharge_available(dt);
  }
  const Watts offered = min(green_planned, green_available);
  run_epu_.record(offered, step.flows.green_to_load(), dt);
  stats.epu.record(offered, step.flows.green_to_load(), dt);

  const PowerFlows flows = plant_.execute(step.flows, now, dt);
  ledger_.post(flows, dt);

  if (tel::LossLedger* loss = tel::loss_ledger()) {
    tel::LossLedger::StepInputs in;
    in.renewable_w = flows.renewable_total().value();
    in.battery_to_load_w = flows.battery_to_load.value();
    in.grid_to_load_w = flows.grid_to_load.value();
    in.renewable_to_battery_w = flows.renewable_to_battery.value();
    in.grid_to_battery_w = flows.grid_to_battery.value();
    in.curtailed_w = flows.renewable_curtailed.value();
    in.load_w = flows.load().value();
    in.shortfall_w = step.shortfall.value();
    in.round_trip_efficiency = plant_.battery().round_trip_efficiency();
    in.source_fault_active = plant_.source_fault_active();
    in.gaps = Enforcer::attribute_gaps(rack_, group_power);
    loss->post_step(in);
  }

  if (checker_) {
    check::InvariantChecker::SubstepContext ctx;
    ctx.rack = &rack_;
    ctx.plant = &plant_;
    ctx.flows = flows;
    ctx.renewable_available = renewable;
    ctx.shortfall = step.shortfall;
    ctx.now = now;
    checker_->check_substep(ctx);
  }

  rack_.accumulate(dt);
  stats.observe(flows, renewable, rack_.total_throughput(), step.shortfall);
  return flows;
}

}  // namespace greenhetero
