#include "workloads.h"

#include <stdexcept>

#include "exp/registry.h"

namespace perfbench {

const std::vector<Workload>& workloads() {
  // Sizes and the reasons for them are in perfbench/README.md.
  static const std::vector<Workload> kWorkloads = {
      {"torus_flood", "large_torus",
       {{"clusters", 2500}, {"horizon_rounds", 3}}, false},
      {"torus_sharded", "large_torus",
       {{"clusters", 2500}, {"horizon_rounds", 3}, {"shards", 2}}, false},
      {"line_byz", "e1_local_skew_vs_diameter",
       {{"diameter", 16}, {"attacked", 1}}, false},
      {"torus_capture", "large_torus",
       {{"clusters", 16}, {"horizon_rounds", 40}}, true},
  };
  return kWorkloads;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return workload;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

ftgcs::exp::ScenarioSpec build_spec(const Workload& workload,
                                    bool zero_horizon,
                                    const std::string& tmp_dir) {
  using namespace ftgcs;
  exp::register_builtin_scenarios();
  const exp::ScenarioSpec* base =
      exp::Registry::instance().find(workload.scenario);
  if (base == nullptr) {
    throw std::invalid_argument("unknown scenario '" + workload.scenario +
                                "'");
  }
  exp::ScenarioSpec spec = *base;
  spec.axes.clear();
  for (const auto& [axis, value] : workload.axes) {
    exp::apply_axis(spec, axis, value);
  }
  if (zero_horizon) exp::apply_axis(spec, "horizon_rounds", 0.0);
  if (workload.capture) {
    spec.trace_path = tmp_dir + "/capture.ftr";
    spec.metrics_path = tmp_dir + "/capture.jsonl";
  }
  return spec;
}

}  // namespace perfbench
