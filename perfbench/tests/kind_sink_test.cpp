// Self-test of the benchmark's traced run (perfbench/layers.h).
//
//   perfbench_selftest <tmp_dir>
//
// 1. The KindCounter's per-kind delivery counts equal the records of the
//    .ftr the collector behind it wrote, read back with trace::TraceReader
//    (the reader `ftgcs_trace stats` uses).
// 2. On large_torus clusters=256, seed 1, it counts the deliveries
//    `ftgcs_trace stats` reports for that run's trace: 532,480
//    cluster_pulse + 2,107,972 max_level.
// 3. The traced replay fires the same events and measures the same skew
//    maxima as exp::run_point at the same seed, unsharded and sharded.
//
// Exits 0 when every check passes.
#include <cstdio>
#include <map>
#include <string>

#include "exp/registry.h"
#include "exp/run.h"
#include "layers.h"
#include "trace/reader.h"

namespace {

using namespace ftgcs;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

exp::ScenarioSpec torus(int clusters, double horizon_rounds) {
  exp::register_builtin_scenarios();
  exp::ScenarioSpec spec = *exp::Registry::instance().find("large_torus");
  spec.axes.clear();
  exp::apply_axis(spec, "clusters", clusters);
  if (horizon_rounds > 0.0) {
    exp::apply_axis(spec, "horizon_rounds", horizon_rounds);
  }
  return spec;
}

void counts_match_trace_file(const std::string& tmp_dir) {
  exp::ScenarioSpec spec = torus(64, 5.0);
  spec.trace_path = tmp_dir + "/selftest.ftr";
  const perfbench::LayerReport report =
      perfbench::run_traced(spec, 3, tmp_dir);

  std::map<int, double> by_kind;
  trace::TraceReader reader(spec.trace_path);
  trace::Record record;
  while (reader.next(record)) by_kind[record.kind] += 1.0;
  std::remove(spec.trace_path.c_str());

  const double pulses =
      by_kind[static_cast<int>(net::PulseKind::kClusterPulse)];
  const double levels = by_kind[static_cast<int>(net::PulseKind::kMaxLevel)];
  check(report.get("net.deliveries.cluster_pulse") == pulses,
        "cluster_pulse count equals the trace file's records");
  check(report.get("net.deliveries.max_level") == levels,
        "max_level count equals the trace file's records");
  check(report.get("net.deliveries.total") ==
            static_cast<double>(reader.records_read()),
        "total count equals the trace file's record count");
  check(report.get("trace.records") ==
            static_cast<double>(reader.records_read()),
        "collector record count equals the read-back count");
  check(report.get("trace.capture_s") > 0.0,
        "time inside the collector's sink is measured");
}

void counts_match_trace_stats(const std::string& tmp_dir) {
  const perfbench::LayerReport report =
      perfbench::run_traced(torus(256, 0.0), 1, tmp_dir);
  check(report.get("net.deliveries.cluster_pulse") == 532480.0,
        "clusters=256: 532,480 cluster_pulse deliveries");
  check(report.get("net.deliveries.max_level") == 2107972.0,
        "clusters=256: 2,107,972 max_level deliveries");
  check(report.get("net.deliveries.total") == 532480.0 + 2107972.0,
        "clusters=256: no deliveries of any other kind");
}

void replay_matches_run_point(const std::string& tmp_dir, int shards) {
  exp::ScenarioSpec spec = torus(64, 5.0);
  exp::apply_axis(spec, "shards", shards);
  const exp::RunResult result = exp::run_point(spec, 5);
  const perfbench::LayerReport report =
      perfbench::run_traced(spec, 5, tmp_dir);
  const std::string suffix = " (shards=" + std::to_string(shards) + ")";
  check(report.get("sim.events") == result.metric("events"),
        "traced event count equals run_point's" + suffix);
  for (const char* key :
       {"max_local", "max_node_local", "max_intra", "max_global"}) {
    check(report.get(key) == result.metric(key),
          std::string(key) + " equals run_point's" + suffix);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <tmp_dir>\n");
    return 2;
  }
  const std::string tmp_dir = argv[1];
  counts_match_trace_file(tmp_dir);
  counts_match_trace_stats(tmp_dir);
  replay_matches_run_point(tmp_dir, 1);
  replay_matches_run_point(tmp_dir, 2);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
