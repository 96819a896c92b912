#include "layers.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "core/ftgcs_system.h"
#include "exp/run.h"
#include "exp/topology_graph.h"
#include "metrics/skew_tracker.h"
#include "net/augmented.h"
#include "net/channel.h"
#include "obs/phase_profiler.h"
#include "obs/sampler.h"
#include "par/partition.h"
#include "par/sharded_system.h"
#include "trace/collector.h"
#include "trace/monitor.h"

namespace perfbench {

using namespace ftgcs;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Adds the duration of `fn()` to `acc` and returns what `fn` returns.
template <class Fn>
auto timed(double& acc, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += seconds_since(start);
  } else {
    auto value = fn();
    acc += seconds_since(start);
    return value;
  }
}

/// Resident set size now, after handing freed heap pages back to the
/// kernel, so a growth measured across one step is that step's own. The
/// time spent here is the benchmark's, not the program's: it is added to
/// `overhead_s` and left out of the traced wall.
double resident_mb(double& overhead_s) {
  const Clock::time_point start = Clock::now();
  malloc_trim(0);
  long pages = 0;
  long resident = 0;
  int read = 0;
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    read = std::fscanf(statm, "%ld %ld", &pages, &resident);
    std::fclose(statm);
  }
  overhead_s += seconds_since(start);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Probe times: every probe interval, plus the horizon itself (the
/// schedule exp::run_point samples at).
std::vector<double> sample_times(double horizon_rounds, double interval_rounds,
                                 double T) {
  std::vector<double> times;
  for (int i = 1; i * interval_rounds < horizon_rounds - 1e-9; ++i) {
    times.push_back(i * interval_rounds * T);
  }
  times.push_back(horizon_rounds * T);
  return times;
}

struct Spans {
  double resolve = 0.0;
  double topology = 0.0;
  double plan = 0.0;
  double build = 0.0;
  double start = 0.0;
  double monitor_build = 0.0;
  double run = 0.0;  ///< inclusive of capture
  double commit = 0.0;
  double snapshot = 0.0;
  double skew = 0.0;
  double monitor = 0.0;
  double sample = 0.0;
  double teardown = 0.0;
};

struct Maxima {
  double local = 0.0;
  double node_local = 0.0;
  double intra = 0.0;
  double global = 0.0;
};

/// Everything the probe loop needs besides the system itself.
struct Probes {
  const exp::ResolvedRun& run;
  const net::AugmentedTopology& topo;
  trace::TraceCollector* collector;
  std::unique_ptr<trace::InvariantMonitor> monitor;
  std::unique_ptr<obs::ProbeSampler> sampler;
  std::uint64_t probes = 0;
};

std::uint64_t system_events(core::FtGcsSystem& s) {
  return s.simulator().fired_events();
}
std::uint64_t system_events(const par::ShardedFtGcsSystem& s) {
  return s.fired_events();
}
std::uint64_t system_messages(core::FtGcsSystem& s) {
  return s.network().messages_sent();
}
std::uint64_t system_messages(const par::ShardedFtGcsSystem& s) {
  return s.messages_sent();
}
sim::EventQueue::TierStats system_tiers(core::FtGcsSystem& s) {
  return s.simulator().queue_stats();
}
sim::EventQueue::TierStats system_tiers(const par::ShardedFtGcsSystem& s) {
  return s.queue_stats();
}

/// The probe loop of exp::run_point, one span per layer call.
template <class System>
Maxima probe_loop(System& system, Probes& probes, Spans& spans) {
  const exp::ResolvedRun& run = probes.run;
  Maxima maxima;
  core::SystemColumns columns;
  for (double t : sample_times(run.horizon_rounds, run.probe_interval_rounds,
                               run.params.T)) {
    timed(spans.run, [&] { system.run_until(t); });
    if (probes.collector != nullptr) {
      timed(spans.commit, [&] { probes.collector->commit(); });
    }
    timed(spans.snapshot, [&] { system.snapshot_columns(columns); });
    const metrics::SkewSample skews = timed(spans.skew, [&] {
      return metrics::measure_skews(columns, probes.topo);
    });
    maxima.local = std::max(maxima.local, skews.cluster_local);
    maxima.node_local = std::max(maxima.node_local, skews.node_local);
    maxima.intra = std::max(maxima.intra, skews.intra_cluster);
    maxima.global = std::max(maxima.global, skews.cluster_global);
    ++probes.probes;
    if (probes.monitor != nullptr) {
      timed(spans.monitor, [&] {
        trace::MonitorCursor cursor;
        cursor.at = t;
        cursor.events = system_events(system);
        if (probes.collector != nullptr) {
          cursor.trace_records = probes.collector->records();
          cursor.trace_offset = probes.collector->cursor_offset();
        }
        probes.monitor->observe(columns, cursor);
      });
    }
    if (probes.sampler != nullptr) {
      timed(spans.sample, [&] {
        obs::SampleContext ctx;
        ctx.at = t;
        ctx.events = system_events(system);
        ctx.messages = system_messages(system);
        ctx.skews = &skews;
        ctx.columns = &columns;
        ctx.monitor = probes.monitor.get();
        probes.sampler->sample(ctx);
      });
    }
  }
  return maxima;
}

/// Monitor and series sampler, configured exactly as exp::run_point does.
void build_observers(Probes& probes, Spans& spans) {
  const exp::ResolvedRun& run = probes.run;
  const core::Params& params = run.params;
  const int clusters = probes.topo.num_clusters();
  const double s_init = (clusters - 1) * run.gap_rounds * params.T;
  const double band = params.predicted_global_skew(run.graph.diameter());
  const double intra_bound = params.intra_cluster_skew_bound();
  const net::UniformDelay delays(params.d, params.U);
  if (run.monitors) {
    timed(spans.monitor_build, [&] {
      trace::MonitorBounds bounds;
      bounds.intra_cluster = intra_bound;
      const double s_env = std::max(s_init, band);
      if (s_env > 0.0) {
        bounds.local_skew = params.predicted_local_skew(s_env) + intra_bound;
        bounds.global_skew = s_env + intra_bound;
      }
      probes.monitor = std::make_unique<trace::InvariantMonitor>(
          exp::build_topology_graph(probes.topo, delays), bounds);
    });
  }
  if (!run.metrics_path.empty()) {
    timed(spans.sample, [&] {
      obs::ProbeSampler::Config config;
      config.path = run.metrics_path;
      config.monitors = probes.monitor != nullptr;
      if (probes.monitor != nullptr) config.bounds = probes.monitor->bounds();
      const double scale = std::max(intra_bound, std::max(s_init, band));
      config.hist_scale = scale > 0.0 ? scale : 1.0;
      probes.sampler = std::make_unique<obs::ProbeSampler>(
          std::move(config), exp::build_topology_graph(probes.topo, delays));
      probes.sampler->prewarm();
    });
  }
}

/// Engine, probe and capture counters shared by both backends.
template <class System>
void report_run(LayerReport& report, System& system, const Probes& probes,
                const Spans& spans, double capture_s, const Maxima& maxima) {
  const double events = static_cast<double>(system_events(system));
  const sim::EventQueue::TierStats tiers = system_tiers(system);
  const double narrow = static_cast<double>(tiers.narrow_events);
  const double wide = static_cast<double>(tiers.wide_events);
  const double run_self = spans.run - capture_s;
  report.set("sim.run_s", run_self);
  report.set("sim.events", events);
  report.set("sim.events_per_s", run_self > 0.0 ? events / run_self : 0.0);
  report.set("sim.scheduled", narrow + wide);
  report.set("sim.queue.bytes_per_event",
             narrow + wide > 0.0
                 ? static_cast<double>(tiers.entry_bytes()) / (narrow + wide)
                 : 0.0);
  report.set("sim.queue.unordered_share",
             events > 0.0 ? static_cast<double>(tiers.unordered_events) / events
                          : 0.0);
  report.set("sim.queue.reseeds", static_cast<double>(tiers.reseeds));
  report.set("sim.queue.overflow_peak",
             static_cast<double>(tiers.overflow_peak));
  report.set("net.messages", static_cast<double>(system_messages(system)));
  report.set("core.violations",
             static_cast<double>(system.total_violations()));
  report.set("metrics.probes", static_cast<double>(probes.probes));
  report.set("metrics.snapshot_s", spans.snapshot);
  report.set("metrics.skew_s", spans.skew);
  report.set("trace.monitor_s", spans.monitor);
  report.set("trace.monitor_violations",
             probes.monitor != nullptr
                 ? static_cast<double>(probes.monitor->stats().violations)
                 : 0.0);
  report.set("trace.capture_s", capture_s);
  report.set("max_local", maxima.local);
  report.set("max_node_local", maxima.node_local);
  report.set("max_intra", maxima.intra);
  report.set("max_global", maxima.global);
}

void report_kinds(LayerReport& report, const KindCounter& kinds) {
  report.set("net.deliveries.cluster_pulse",
             static_cast<double>(kinds.count(net::PulseKind::kClusterPulse)));
  report.set("net.deliveries.max_level",
             static_cast<double>(kinds.count(net::PulseKind::kMaxLevel)));
  report.set("net.deliveries.total", static_cast<double>(kinds.total()));
}

}  // namespace

void KindCounter::on_delivery(sim::Time at, const sim::EventPayload& payload) {
  tally(payload.d);
  if (forward_ == nullptr) return;
  const Clock::time_point start = Clock::now();
  forward_->on_delivery(at, payload);
  forward_s_ += seconds_since(start);
}

void KindCounter::on_delivery_batch(const sim::BatchedEvent* events,
                                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) tally(events[i].payload.d);
  if (forward_ == nullptr) return;
  const Clock::time_point start = Clock::now();
  forward_->on_delivery_batch(events, n);
  forward_s_ += seconds_since(start);
}

std::uint64_t KindCounter::total() const {
  std::uint64_t sum = 0;
  for (std::uint64_t count : counts_) sum += count;
  return sum;
}

void LayerReport::set(const std::string& name, double value) {
  for (auto& [key, existing] : values) {
    if (key == name) {
      existing = value;
      return;
    }
  }
  values.emplace_back(name, value);
}

double LayerReport::get(const std::string& name) const {
  for (const auto& [key, value] : values) {
    if (key == name) return value;
  }
  throw std::out_of_range("no layer value '" + name + "'");
}

LayerReport run_traced(const exp::ScenarioSpec& spec, std::uint64_t seed,
                       const std::string& tmp_dir) {
  const Clock::time_point wall_start = Clock::now();
  Spans spans;
  LayerReport report;
  double rss_probe_s = 0.0;

  const exp::ResolvedRun run =
      timed(spans.resolve, [&] { return exp::resolve(spec, seed); });
  if (run.protocol != exp::ProtocolKind::kFtGcs ||
      run.drift.kind != exp::DriftKind::kSpreadConstant || run.measure_m_lag) {
    throw std::invalid_argument(
        "traced run supports FT-GCS, spread-constant drift, no M_v lag");
  }
  const core::Params& params = run.params;

  const double rss_before_topology = resident_mb(rss_probe_s);
  auto topo = timed(spans.topology, [&] {
    return std::make_unique<net::AugmentedTopology>(run.graph, params.k);
  });
  report.set("net.topology_rss_mb",
             resident_mb(rss_probe_s) - rss_before_topology);
  const int nodes = topo->num_nodes();

  std::unique_ptr<trace::TraceCollector> collector;
  if (!run.trace_path.empty()) {
    timed(spans.commit, [&] {
      collector = std::make_unique<trace::TraceCollector>(run.trace_path);
    });
  }
  std::vector<int> offsets;
  for (int c = 0; run.gap_rounds > 0 && c < topo->num_clusters(); ++c) {
    offsets.push_back(c * run.gap_rounds);
  }

  Probes probes{run, *topo, collector.get(), nullptr, nullptr, 0};
  double capture_s = 0.0;
  // The shard layer reads zero unless the sharded backend runs.
  for (const char* name :
       {"par.merge_s", "par.run_s", "par.wait_s", "par.wait_share",
        "par.imbalance", "par.windows", "par.cut_edges", "par.mailbox_peak",
        "par.routed"}) {
    report.set(name, 0.0);
  }
  if (run.shards > 1) {
    const net::UniformDelay delays(params.d, params.U);
    par::ShardPlan plan = timed(spans.plan, [&] {
      return par::make_shard_plan(exp::build_topology_graph(*topo, delays),
                                  run.shards);
    });
    if (plan.degenerate()) {
      throw std::invalid_argument("shard plan degenerates for this workload");
    }
    obs::PhaseProfiler profiler(tmp_dir + "/traced.profile");
    par::ShardedFtGcsSystem::Config config;
    config.params = params;
    config.seed = run.seed;
    config.engine = run.engine;
    config.replicas_know_offsets = run.replicas_know_offsets;
    config.fault_plan = run.fault_plan;
    config.cluster_round_offsets = offsets;
    config.shards = plan.num_shards;
    config.plan = std::move(plan);
    config.shared_topo = topo.get();
    config.trace = collector.get();
    config.profiler = &profiler;
    const double rss_before_build = resident_mb(rss_probe_s);
    auto system = timed(spans.build, [&] {
      return std::make_unique<par::ShardedFtGcsSystem>(run.graph,
                                                       std::move(config));
    });
    report.set("core.build_rss_mb",
               resident_mb(rss_probe_s) - rss_before_build);
    timed(spans.start, [&] { system->start(); });
    build_observers(probes, spans);
    const Maxima maxima = probe_loop(*system, probes, spans);
    if (collector != nullptr) {
      timed(spans.commit, [&] { collector->finish(); });
    }
    report_run(report, *system, probes, spans, capture_s, maxima);
    report_kinds(report, KindCounter());

    const obs::PhaseProfiler::PhaseTotals totals = profiler.totals();
    const double phases = totals.merge_ms + totals.run_ms + totals.collect_ms;
    report.set("par.merge_s", totals.merge_ms / 1e3);
    report.set("par.run_s", totals.run_ms / 1e3);
    report.set("par.wait_s", totals.collect_ms / 1e3);
    report.set("par.wait_share",
               phases > 0.0 ? totals.collect_ms / phases : 0.0);
    report.set("par.imbalance", profiler.imbalance());
    const par::ShardedFtGcsSystem::ShardStats stats = system->shard_stats();
    std::vector<obs::ShardWindowDiag> diag;
    system->shard_window_diag(diag);
    double routed = 0.0;
    for (const obs::ShardWindowDiag& shard : diag) {
      routed += static_cast<double>(shard.routed);
    }
    report.set("par.windows", static_cast<double>(stats.windows));
    report.set("par.cut_edges", static_cast<double>(stats.cut_edges));
    report.set("par.mailbox_peak", static_cast<double>(stats.mailbox_peak));
    report.set("par.routed", routed);
    profiler.finish();
    timed(spans.teardown, [&] { system.reset(); });
  } else {
    KindCounter kinds(collector != nullptr ? collector->shard_sink(0)
                                           : nullptr);
    core::FtGcsSystem::Config config;
    config.params = params;
    config.seed = run.seed;
    config.engine = run.engine;
    config.replicas_know_offsets = run.replicas_know_offsets;
    config.fault_plan = run.fault_plan;
    config.cluster_round_offsets = offsets;
    config.shared_topo = topo.get();
    config.trace_sink = &kinds;
    const double rss_before_build = resident_mb(rss_probe_s);
    auto system = timed(spans.build, [&] {
      return std::make_unique<core::FtGcsSystem>(run.graph, std::move(config));
    });
    report.set("core.build_rss_mb",
               resident_mb(rss_probe_s) - rss_before_build);
    timed(spans.start, [&] { system->start(); });
    build_observers(probes, spans);
    const Maxima maxima = probe_loop(*system, probes, spans);
    if (collector != nullptr) {
      timed(spans.commit, [&] { collector->finish(); });
    }
    capture_s = kinds.forward_s();
    report_run(report, *system, probes, spans, capture_s, maxima);
    report_kinds(report, kinds);
    timed(spans.teardown, [&] { system.reset(); });
  }

  if (probes.sampler != nullptr) {
    timed(spans.sample, [&] { probes.sampler->finish(); });
    report.set("obs.series_bytes",
               static_cast<double>(probes.sampler->bytes()));
  } else {
    report.set("obs.series_bytes", 0.0);
  }
  report.set("trace.records",
             collector != nullptr ? static_cast<double>(collector->records())
                                  : 0.0);
  report.set("trace.bytes",
             collector != nullptr
                 ? static_cast<double>(collector->bytes_written())
                 : 0.0);
  timed(spans.teardown, [&] {
    probes.sampler.reset();
    probes.monitor.reset();
    collector.reset();
    topo.reset();
  });

  report.set("exp.resolve_s", spans.resolve);
  report.set("net.topology_s", spans.topology);
  report.set("par.plan_s", spans.plan);
  report.set("core.build_s", spans.build);
  report.set("core.start_s", spans.start);
  report.set("trace.monitor_build_s", spans.monitor_build);
  report.set("trace.commit_s", spans.commit);
  report.set("obs.sample_s", spans.sample);
  report.set("core.teardown_s", spans.teardown);
  report.set("nodes", nodes);
  report.set("horizon_rounds", run.horizon_rounds);
  report.set("traced_wall_s", seconds_since(wall_start) - rss_probe_s);
  return report;
}

}  // namespace perfbench
