#include "lifecycle/daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "dlv/layout.h"
#include "dlv/repository.h"

namespace modelhub {

std::string MaintenanceStatus::ToJson() const {
  std::ostringstream out;
  out << "{\"enabled\":" << (enabled ? "true" : "false")
      << ",\"cycle_in_progress\":" << (cycle_in_progress ? "true" : "false")
      << ",\"cycles_started\":" << cycles_started
      << ",\"cycles_completed\":" << cycles_completed
      << ",\"cycles_failed\":" << cycles_failed
      << ",\"cycles_skipped\":" << cycles_skipped
      << ",\"bytes_reclaimed_total\":" << bytes_reclaimed_total
      << ",\"archive_generation\":" << archive_generation
      << ",\"gc_epoch\":" << gc_epoch
      << ",\"pending_generations\":" << pending_generations
      << ",\"shared_files\":" << shared_files
      << ",\"hot_snapshots\":" << hot_snapshots
      << ",\"cold_snapshots\":" << cold_snapshots
      << ",\"last_error\":" << JsonString(last_error)
      << ",\"last_tasks\":[";
  for (size_t i = 0; i < last_outcomes.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"name\":" << JsonString(last_outcomes[i].name)
        << ",\"state\":\""
        << TaskOutcome::StateName(last_outcomes[i].state)
        << "\",\"wall_ms\":" << last_outcomes[i].wall_ms << "}";
  }
  out << "]}";
  return out.str();
}

LifecycleDaemon::LifecycleDaemon(Env* env, std::string repo_root,
                                 LifecycleOptions options)
    : env_(env), root_(std::move(repo_root)), options_(options) {}

LifecycleDaemon::~LifecycleDaemon() { (void)Stop(); }

Status LifecycleDaemon::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("maintenance daemon already running");
  }
  stop_requested_.store(false);
  cancel_.Reset();
  running_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    status_.enabled = true;
  }
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void LifecycleDaemon::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  cancel_.Cancel();
}

Status LifecycleDaemon::Stop() {
  RequestStop();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  return Status::OK();
}

Status LifecycleDaemon::RunOnce() {
  std::lock_guard<std::mutex> lock(cycle_mu_);
  accesses_at_last_cycle_ = tracker_.total_accesses();
  return Cycle();
}

void LifecycleDaemon::set_reload_callback(std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(hooks_mu_);
  reload_ = std::move(callback);
}

void LifecycleDaemon::set_yield(std::function<void()> yield) {
  std::lock_guard<std::mutex> lock(hooks_mu_);
  yield_ = std::move(yield);
}

MaintenanceStatus LifecycleDaemon::status() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_;
}

void LifecycleDaemon::Loop() {
  using Clock = std::chrono::steady_clock;
  auto next_cycle = Clock::now() + std::chrono::milliseconds(
                                       std::max(1, options_.interval_ms));
  while (!stop_requested_.load(std::memory_order_acquire)) {
    // Sleep in short slices so RequestStop (atomic store only — callable
    // from the server's signal-driven stop path) lands promptly.
    if (Clock::now() < next_cycle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    next_cycle = Clock::now() + std::chrono::milliseconds(
                                    std::max(1, options_.interval_ms));
    std::lock_guard<std::mutex> lock(cycle_mu_);
    const uint64_t total = tracker_.total_accesses();
    if (total - accesses_at_last_cycle_ <
        options_.min_accesses_between_cycles) {
      std::lock_guard<std::mutex> status_lock(status_mu_);
      ++status_.cycles_skipped;
      MH_COUNTER("lifecycle.cycles.skipped")->Increment();
      continue;
    }
    accesses_at_last_cycle_ = total;
    (void)Cycle();
  }
}

Status LifecycleDaemon::Cycle() {
  TraceSpan span("lifecycle.cycle");
  Stopwatch watch;
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    ++status_.cycles_started;
    status_.cycle_in_progress = true;
  }
  MH_COUNTER("lifecycle.cycles.started")->Increment();

  std::function<void()> reload;
  std::function<void()> yield;
  {
    std::lock_guard<std::mutex> lock(hooks_mu_);
    reload = reload_;
    yield = yield_;
  }

  // Shared mutable state the tasks thread through the graph.
  struct CycleState {
    std::optional<Repository> repo;
    ArchiveOptions archive_options;
    size_t num_snapshots = 0;
    uint64_t hot = 0;
    uint64_t cold = 0;
    GcReport gc;
  };
  auto state = std::make_shared<CycleState>();

  MaintenanceGraph graph;
  Status build = graph.Add("plan", {}, [this, state, &span]() -> Status {
    MH_ASSIGN_OR_RETURN(Repository repo, Repository::Open(env_, root_));
    state->repo.emplace(std::move(repo));
    MH_ASSIGN_OR_RETURN(const auto versions, state->repo->List());
    std::vector<std::string> keys;
    for (const auto& info : versions) {
      MH_ASSIGN_OR_RETURN(const int64_t count,
                          state->repo->NumSnapshots(info.name));
      for (int64_t s = 0; s < count; ++s) {
        keys.push_back(info.name + "/s" + std::to_string(s));
      }
    }
    state->num_snapshots = keys.size();
    // Demand signal: the tracker's decayed per-snapshot heat, with the
    // live server.op.get_snapshot.us metric as the cycle's context.
    const MetricsSnapshot metrics = MetricRegistry::Global()->Snapshot();
    if (const MetricValue* gets =
            metrics.Find("server.op.get_snapshot.us")) {
      span.Annotate("observed_gets", gets->histogram.count);
    }
    const std::map<std::string, double> heat = tracker_.HeatSnapshot();
    std::vector<std::pair<double, std::string>> ranked;
    for (const std::string& key : keys) {
      auto it = heat.find(key);
      ranked.push_back({it == heat.end() ? 0.0 : it->second, key});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    size_t accessed = 0;
    for (const auto& [h, key] : ranked) {
      if (h > 0.0) ++accessed;
    }
    const size_t hot_count =
        accessed == 0
            ? 0
            : std::max<size_t>(
                  1, static_cast<size_t>(std::ceil(
                         options_.hot_fraction *
                         static_cast<double>(accessed))));
    ArchiveOptions& opts = state->archive_options;
    opts.solver = options_.solver;
    opts.archive_threads = options_.archive_threads;
    opts.budget_alpha = options_.default_budget_alpha;
    for (size_t i = 0; i < ranked.size(); ++i) {
      const auto& [h, key] = ranked[i];
      if (h > 0.0 && i < hot_count) {
        opts.group_budget_alpha[key] = options_.hot_budget_alpha;
        ++state->hot;
      } else if (h <= 0.0) {
        opts.group_budget_alpha[key] = options_.cold_budget_alpha;
        ++state->cold;
      }
    }
    MH_GAUGE("lifecycle.plan.hot_snapshots")
        ->Set(static_cast<int64_t>(state->hot));
    MH_GAUGE("lifecycle.plan.cold_snapshots")
        ->Set(static_cast<int64_t>(state->cold));
    return Status::OK();
  });
  if (build.ok()) {
    build = graph.Add("reencode", {"plan"}, [this, state]() -> Status {
      if (state->num_snapshots == 0) return Status::OK();
      Stopwatch reencode_watch;
      MH_ASSIGN_OR_RETURN(const ArchiveBuildReport report,
                          state->repo->Archive(state->archive_options));
      MH_HISTOGRAM("lifecycle.reencode.us")
          ->Record(static_cast<uint64_t>(reencode_watch.ElapsedMillis() *
                                         1000.0));
      MH_COUNTER("lifecycle.reencode.raw.bytes")
          ->Add(report.pipeline.raw_bytes);
      return Status::OK();
    });
  }
  if (build.ok()) {
    build = graph.Add("swap", {"reencode"}, [state, reload]() -> Status {
      if (state->num_snapshots == 0) return Status::OK();
      if (reload) reload();
      return Status::OK();
    });
  }
  if (build.ok()) {
    build = graph.Add("gc", {"swap"}, [this, state]() -> Status {
      MH_ASSIGN_OR_RETURN(state->gc, RunArchiveGc(env_, root_, options_.gc));
      return Status::OK();
    });
  }
  Status run = build.ok() ? graph.Run(&cancel_, yield) : build;

  tracker_.Decay(options_.heat_decay);

  uint64_t generation = 0;
  if (auto gen = ReadArchiveGeneration(env_, repo_layout::PasDir(root_));
      gen.ok()) {
    generation = *gen;
  }
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    status_.cycle_in_progress = false;
    status_.last_outcomes = graph.outcomes();
    status_.hot_snapshots = state->hot;
    status_.cold_snapshots = state->cold;
    status_.archive_generation = generation;
    status_.gc_epoch = state->gc.epoch;
    status_.pending_generations = state->gc.pending_generations.size();
    status_.shared_files = state->gc.shared_files;
    status_.bytes_reclaimed_total +=
        state->gc.reclaimed_bytes + state->gc.quarantine_bytes;
    if (run.ok()) {
      ++status_.cycles_completed;
      status_.last_error.clear();
    } else {
      ++status_.cycles_failed;
      status_.last_error = run.ToString();
    }
  }
  MH_HISTOGRAM("lifecycle.cycle.us")
      ->Record(static_cast<uint64_t>(watch.ElapsedMillis() * 1000.0));
  if (run.ok()) {
    MH_COUNTER("lifecycle.cycles.completed")->Increment();
  } else {
    MH_COUNTER("lifecycle.cycles.failed")->Increment();
  }
  MH_GAUGE("lifecycle.archive.generation")
      ->Set(static_cast<int64_t>(generation));
  span.Annotate("ok", static_cast<uint64_t>(run.ok() ? 1 : 0));
  return run;
}

}  // namespace modelhub
