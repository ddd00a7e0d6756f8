// Repository benchmark program (see README.md).
//
//   bgl_perfbench --workload serve|moda4|train1 --seed N --seconds S
//                 --trace 0|1
//
// Runs one workload for S seconds on inputs drawn from seed N, checks the
// outputs, and prints a JSON result as its last line: the end-to-end
// metrics with --trace 0, the per-layer ones with --trace 1. Exits non-zero
// without a result on bad arguments or a library error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double sum_metrics(const bgl::obs::Registry& registry, std::string_view prefix,
                   std::string_view suffix) {
  double total = 0.0;
  for (const bgl::obs::MetricSnapshot& m : registry.snapshot()) {
    const std::string_view name = m.name;
    if (!name.starts_with(prefix) || !name.ends_with(suffix)) continue;
    if (m.kind == bgl::obs::MetricKind::kCounter) {
      total += static_cast<double>(m.count);
    } else if (m.kind == bgl::obs::MetricKind::kHistogram) {
      total += m.sum;
    }
  }
  return total;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "check failed: " << what << "\n";
}

void LayerMetrics::report(Result& result) const {
  result.add("step_ms", step_ms, "ms");
  result.add("forward_pct", forward_pct, "%");
  result.add("backward_pct", backward_pct, "%");
  result.add("alltoall_pct", alltoall_pct, "%");
  result.add("allreduce_pct", allreduce_pct, "%");
  result.add("optimizer_pct", optimizer_pct, "%");
  result.add("decode_pct", decode_pct, "%");
  result.add("other_pct", other_pct, "%");
  result.add("comm_wait_pct", comm_wait_pct, "%");
  result.add("comm_kb_per_step", comm_kb_per_step, "KiB");
  result.add("comm_msgs_per_step", comm_msgs_per_step, "count");
  result.add("moe_drop_pct", moe_drop_pct, "%");
  result.add("batch_occupancy", batch_occupancy, "count");
  result.add("queue_wait_steps", queue_wait_steps, "count");
  result.add("idle_pct", idle_pct, "%");
  result.add("expert_hit_pct", expert_hit_pct, "%");
  result.add("kv_blocked_pct", kv_blocked_pct, "%");
}

void EndToEnd::report(Result& result) const {
  result.add("latency_p50_ms", 1e3 * quantile(latencies_s, 0.50), "ms");
  result.add("latency_p90_ms", 1e3 * quantile(latencies_s, 0.90), "ms");
  result.add("gap_p50_ms", 1e3 * quantile(gaps_s, 0.50), "ms");
  result.add("gap_p90_ms", 1e3 * quantile(gaps_s, 0.90), "ms");
  result.add("tokens_per_s", tokens_per_s, "1/s");
  result.add("setup_s", quantile(setups_s, 0.50), "s");
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "bgl_perfbench: " << problem
            << "\nusage: bgl_perfbench --workload serve|moda4|train1 "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool seen_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        o.workload = value;
        seen_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!seen_workload) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  return o;
}

void print_json(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  perfbench::Result result;
  try {
    if (options.workload == "serve") {
      result = perfbench::run_serve(options);
    } else if (options.workload == "moda4") {
      result = perfbench::run_train_moda(options);
    } else if (options.workload == "train1") {
      result = perfbench::run_train_single(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "bgl_perfbench: " << options.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
  for (auto& m : result.metrics) {
    if (std::isfinite(m.value)) continue;
    result.check(false, m.name + " is not finite");
    m.value = 0.0;  // JSON has no NaN
  }
  std::cout.flush();
  print_json(result);
  return 0;
}
