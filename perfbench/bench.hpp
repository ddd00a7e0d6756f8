// Shared pieces of the repository benchmark program (see README.md): the
// command line, the benchmark's own seeded input generator, sample
// statistics, and the record every workload fills.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  // per-layer metrics instead of end-to-end ones
};

/// SplitMix64. The benchmark draws every input from this generator rather
/// than the library's Rng, so a seed keeps naming the same inputs whatever
/// the library changes.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1).
  double uniform() {
    return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  }
  /// Uniform integer in [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0
/// when empty.
double quantile(std::vector<double> xs, double q);

/// Sum over the metrics of `registry` named `prefix`...`suffix`: counter
/// values and histogram sums.
double sum_metrics(const bgl::obs::Registry& registry, std::string_view prefix,
                   std::string_view suffix);

/// What one run reports: the outcome of its checks, how many operations it
/// attempted and how many failed, and its metrics in print order.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check (printed to stderr) when !ok.
  void check(bool ok, const std::string& what);
};

/// Per-layer metrics every traced run reports, whatever the workload; a
/// layer the workload does not exercise reads 0. Shares are percentages of
/// the step time (README.md defines each).
struct LayerMetrics {
  double step_ms = 0.0;
  double forward_pct = 0.0;
  double backward_pct = 0.0;
  double alltoall_pct = 0.0;
  double allreduce_pct = 0.0;
  double optimizer_pct = 0.0;
  double decode_pct = 0.0;
  double other_pct = 0.0;
  double comm_wait_pct = 0.0;
  double comm_kb_per_step = 0.0;
  double comm_msgs_per_step = 0.0;
  double moe_drop_pct = 0.0;
  double batch_occupancy = 0.0;
  double queue_wait_steps = 0.0;
  double idle_pct = 0.0;
  double expert_hit_pct = 0.0;
  double kv_blocked_pct = 0.0;

  void report(Result& result) const;
};

/// The end-to-end metrics every untraced run reports (README.md defines
/// each): latency to the first result of a unit of work and the gaps
/// between its results, as medians and 90th percentiles.
struct EndToEnd {
  std::vector<double> latencies_s;
  std::vector<double> gaps_s;
  double tokens_per_s = 0.0;
  std::vector<double> setups_s;

  void report(Result& result) const;
};

Result run_serve(const Options& options);
Result run_train_single(const Options& options);
Result run_train_moda(const Options& options);

}  // namespace perfbench
