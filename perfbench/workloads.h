// Benchmark workloads: each is a registered scenario plus axis overrides.
// The seed is not part of a workload; the worker passes it to run_point.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::string scenario;  ///< registry key
  std::vector<std::pair<std::string, double>> axes;
  /// Streaming trace + deterministic metrics series on (files under the
  /// run's temp dir), i.e. `ftgcs_bench --trace PATH --metrics PATH`.
  bool capture = false;
};

const std::vector<Workload>& workloads();

/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

/// The workload's concrete spec. `zero_horizon` overrides horizon_rounds
/// to 0 (the setup_s run); capture files go to `tmp_dir`.
ftgcs::exp::ScenarioSpec build_spec(const Workload& workload,
                                    bool zero_horizon,
                                    const std::string& tmp_dir);

}  // namespace perfbench
