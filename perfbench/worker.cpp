// perfbench_worker — one benchmark run per process, one JSON line out.
//
//   perfbench_worker info
//       build type, compiler and NDEBUG of this build
//   perfbench_worker e2e <workload> <seed> <tmp_dir> [--zero-horizon]
//       one exp::run_point call, timed from outside: wall_s, peak RSS,
//       event count, a digest of the result table and the pass/fail
//       checks (monitor violations, in_*_bound columns; for a capture
//       workload the .ftr must read back with its full record count)
//   perfbench_worker traced <workload> <seed> <tmp_dir>
//       the same run replayed layer by layer (layers.h)
//
// perfbench/run.py drives these; one process per run keeps ru_maxrss a
// per-run figure.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "exp/run.h"
#include "layers.h"
#include "trace/reader.h"
#include "workloads.h"

namespace {

using namespace ftgcs;

/// Minimal one-line JSON object writer (non-finite numbers become null).
class JsonLine {
 public:
  void number(const char* key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    field(key, buf);
  }
  void boolean(const char* key, bool value) {
    field(key, value ? "true" : "false");
  }
  void text(const char* key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    quoted += '"';
    field(key, quoted);
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void field(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
  }
  std::string body_;
};

/// FNV-1a over every metric name and value bit pattern: two runs with the
/// same digest printed the same table.
std::string table_digest(const exp::RunResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ULL;
    }
  };
  for (const auto& [name, value] : result.metrics) {
    mix(name.data(), name.size());
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    mix(&bits, sizeof bits);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t read_back_records(const std::string& path) {
  trace::TraceReader reader(path);
  trace::Record record;
  while (reader.next(record)) {
  }
  return reader.records_read();
}

/// Deletes the run's capture files, so the next run in the temp dir
/// creates them afresh instead of truncating this run's.
void remove_outputs(const exp::ScenarioSpec& spec) {
  if (!spec.trace_path.empty()) std::remove(spec.trace_path.c_str());
  if (!spec.metrics_path.empty()) {
    std::remove(spec.metrics_path.c_str());
    std::remove((spec.metrics_path + ".profile").c_str());
  }
}

/// Reasons this run counts as failed; empty when it passed.
std::string check_result(const exp::RunResult& result) {
  std::string why;
  if (result.monitor.enabled && result.monitor.stats.violations > 0) {
    why += "monitor violations; ";
  }
  if (result.has_metric("violations") && result.metric("violations") > 0.0) {
    why += "proper-execution violations; ";
  }
  for (const auto& [name, value] : result.metrics) {
    if (name.rfind("in_", 0) == 0 && name.size() > 9 &&
        name.compare(name.size() - 6, 6, "_bound") == 0 && value == 0.0) {
      why += name + " = no; ";
    }
  }
  return why;
}

int run_e2e(const std::string& name, std::uint64_t seed,
            const std::string& tmp_dir, bool zero_horizon) {
  const perfbench::Workload& workload = perfbench::find_workload(name);
  const exp::ScenarioSpec spec =
      perfbench::build_spec(workload, zero_horizon, tmp_dir);
  // Resolved once outside the timed call for the horizon only.
  const double horizon_rounds = exp::resolve(spec, seed).horizon_rounds;

  const auto start = std::chrono::steady_clock::now();
  const exp::RunResult result = exp::run_point(spec, seed);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  const double rss_mb = peak_rss_mb();

  std::string why = check_result(result);
  if (result.trace.enabled &&
      static_cast<double>(read_back_records(result.trace.path)) !=
          result.trace.records) {
    why += "trace read-back count; ";
  }
  if (workload.capture && !(result.series.enabled && result.series.bytes > 0)) {
    why += "no metrics series written; ";
  }
  remove_outputs(spec);

  JsonLine out;
  out.boolean("ok", why.empty());
  out.text("why", why);
  out.number("wall_s", wall_s);
  out.number("rss_mb", rss_mb);
  out.number("events", result.metric("events"));
  out.number("nodes", result.metric("nodes"));
  out.number("horizon_rounds", horizon_rounds);
  out.text("digest", table_digest(result));
  for (const char* key :
       {"max_local", "max_node_local", "max_intra", "max_global"}) {
    out.number(key, result.metric(key));
  }
  out.number("trace_records", result.trace.records);
  out.print();
  return why.empty() ? 0 : 1;
}

int run_traced(const std::string& name, std::uint64_t seed,
               const std::string& tmp_dir) {
  const perfbench::Workload& workload = perfbench::find_workload(name);
  const exp::ScenarioSpec spec =
      perfbench::build_spec(workload, false, tmp_dir);
  const perfbench::LayerReport report =
      perfbench::run_traced(spec, seed, tmp_dir);
  remove_outputs(spec);
  JsonLine out;
  out.boolean("ok", true);
  for (const auto& [key, value] : report.values) {
    out.number(key.c_str(), value);
  }
  out.print();
  return 0;
}

int info() {
  JsonLine out;
  out.text("build_type", PERFBENCH_BUILD_TYPE);
  out.text("compiler", "g++ " __VERSION__);
#ifdef NDEBUG
  out.boolean("ndebug", true);
#else
  out.boolean("ndebug", false);
#endif
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 1 && args[0] == "info") return info();
    if (args.size() >= 4 && args[0] == "e2e") {
      const bool zero = args.size() == 5 && args[4] == "--zero-horizon";
      if (args.size() == 4 || zero) {
        return run_e2e(args[1], std::stoull(args[2]), args[3], zero);
      }
    }
    if (args.size() == 4 && args[0] == "traced") {
      return run_traced(args[1], std::stoull(args[2]), args[3]);
    }
  } catch (const std::exception& error) {
    JsonLine out;
    out.boolean("ok", false);
    out.text("why", std::string("exception: ") + error.what());
    out.print();
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench_worker info | e2e <workload> <seed> <tmp_dir> "
               "[--zero-horizon] | traced <workload> <seed> <tmp_dir>\n");
  return 2;
}
