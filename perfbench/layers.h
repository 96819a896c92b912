// Outside-in per-layer split of one FT-GCS run.
//
// run_traced() replays what exp::run_point does for an FT-GCS scenario,
// step by step through the library's public API, and times each call
// into a layer (resolve, topology, shard plan, system build/start,
// run_until, probe reads, monitor, capture, metrics series, teardown)
// with std::chrono::steady_clock spans on the calling thread. It reads the
// layers' public counters at the end. Its event count and skew maxima
// equal the end-to-end run's at the same seed; the benchmark checks that.
//
// Deliveries are counted by kind with a KindCounter installed as the
// network's trace sink. The sharded backend offers no public sink hook
// (its shards install the collector's buffers), so sharded runs report
// zero kind counts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.h"
#include "net/network.h"
#include "trace/sink.h"

namespace perfbench {

/// Counts fired deliveries by net::PulseKind. With a `forward` sink it
/// passes every call on and accumulates the time spent inside it.
class KindCounter final : public ftgcs::trace::TraceSink {
 public:
  explicit KindCounter(ftgcs::trace::TraceSink* forward = nullptr)
      : forward_(forward) {}

  void on_delivery(ftgcs::sim::Time at,
                   const ftgcs::sim::EventPayload& payload) override;
  void on_delivery_batch(const ftgcs::sim::BatchedEvent* events,
                         std::size_t n) override;

  std::uint64_t count(ftgcs::net::PulseKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total() const;
  /// Seconds spent inside the forward sink.
  double forward_s() const { return forward_s_; }

 private:
  void tally(std::uint32_t kind) {
    ++counts_[kind < counts_.size() ? kind : counts_.size() - 1];
  }

  ftgcs::trace::TraceSink* forward_;
  /// One slot per PulseKind; the last also takes unknown kinds.
  std::array<std::uint64_t, 5> counts_{};
  double forward_s_ = 0.0;
};

/// Named values of one traced run, in emission order: layer spans in
/// seconds (suffix _s), RSS growth in MB, counters, and the run's result
/// fields (events, skew maxima) for the equality check.
struct LayerReport {
  std::vector<std::pair<std::string, double>> values;

  void set(const std::string& name, double value);
  double get(const std::string& name) const;  ///< throws if missing
};

/// Runs `spec` (FT-GCS, spread-constant drift, no M_v lag) at `seed`.
/// `tmp_dir` receives the sharded run's profiler sidecar.
LayerReport run_traced(const ftgcs::exp::ScenarioSpec& spec,
                       std::uint64_t seed, const std::string& tmp_dir);

}  // namespace perfbench
