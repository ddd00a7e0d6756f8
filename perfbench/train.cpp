// Workloads "train1" and "moda4": one MoE language-model training task,
// run by a single worker (model::Trainer) and by four in-process ranks
// under MoDa parallelism — 2 expert-parallel x 2 data-parallel —
// (parallel::DistTrainer). Both train on the same global batches of a
// learnable synthetic language; the steps are timed one by one.
//
// Checks: every step applies with a finite loss, the loss falls, repeated
// set-ups take a bitwise-identical first step, and under MoDa the
// replicated parameters end bitwise-identical on every rank (experts on
// every data-parallel replica).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "bench.hpp"
#include "collectives/coll.hpp"
#include "core/stopwatch.hpp"
#include "model/trainer.hpp"
#include "parallel/dist_trainer.hpp"
#include "runtime/comm.hpp"

namespace perfbench {
namespace {

using bgl::Stopwatch;
using bgl::train::Batch;

constexpr int kSetups = 9;
constexpr int kRanks = 4;
constexpr int kEpSize = 2;
constexpr std::int64_t kSeqsPerRank = 4;
constexpr double kLearningRate = 3e-3;

bgl::model::MoEModelConfig model_config() {
  bgl::model::MoEModelConfig c;
  c.name = "perfbench-train";
  c.vocab = 64;
  c.d_model = 64;
  c.n_layers = 2;
  c.n_heads = 4;
  c.seq_len = 32;
  c.d_ffn = 128;
  c.num_experts = 8;
  c.top_k = 2;
  c.capacity_factor = 1.25;
  c.aux_loss_weight = 1e-2;
  c.validate();
  return c;
}

// No gradient clipping: DistTrainer clips by the norm of each rank's local
// parameters, which under expert parallelism include a different expert
// shard per rank, so clipping would scale the replicated parameters
// differently on each rank and the replicas would diverge. Both workloads
// keep the same recipe.
bgl::model::TrainerOptions serial_options() {
  bgl::model::TrainerOptions o;
  o.clip_norm = 0.0;
  return o;
}

bgl::parallel::DistTrainerOptions dist_options() {
  bgl::parallel::DistTrainerOptions o;
  o.clip_norm = 0.0;
  return o;
}

/// One data shard of the learnable language: every token has a fixed
/// successor (a table drawn from the run's seed), replaced by a uniform
/// draw one time in twenty.
class TokenStream {
 public:
  TokenStream(std::uint64_t seed, int shard, std::int64_t vocab)
      : vocab_(vocab), rng_(seed * 1000003u + static_cast<std::uint64_t>(shard)) {
    InputRng table(seed);
    for (std::int64_t t = 0; t < vocab; ++t)
      successor_.push_back(
          static_cast<std::int32_t>(table.between(0, vocab - 1)));
  }

  Batch next(std::int64_t seqs, std::int64_t seq_len) {
    Batch b;
    for (std::int64_t s = 0; s < seqs; ++s) {
      auto tok = static_cast<std::int32_t>(rng_.between(0, vocab_ - 1));
      for (std::int64_t i = 0; i < seq_len; ++i) {
        const std::int32_t nxt =
            rng_.uniform() < 0.05
                ? static_cast<std::int32_t>(rng_.between(0, vocab_ - 1))
                : successor_[static_cast<std::size_t>(tok)];
        b.tokens.push_back(tok);
        b.targets.push_back(nxt);
        tok = nxt;
      }
    }
    return b;
  }

 private:
  std::int64_t vocab_;
  InputRng rng_;
  std::vector<std::int32_t> successor_;
};

/// The global batch of a step is one shard per MoDa rank.
std::vector<TokenStream> make_shards(std::uint64_t seed) {
  std::vector<TokenStream> shards;
  for (int r = 0; r < kRanks; ++r)
    shards.emplace_back(seed, r, model_config().vocab);
  return shards;
}

Batch next_global_batch(std::vector<TokenStream>& shards) {
  Batch global;
  for (TokenStream& s : shards) {
    Batch b = s.next(kSeqsPerRank, model_config().seq_len);
    global.tokens.insert(global.tokens.end(), b.tokens.begin(), b.tokens.end());
    global.targets.insert(global.targets.end(), b.targets.begin(),
                          b.targets.end());
  }
  return global;
}

/// FNV-1a over the bit patterns of the parameters `keep` selects.
template <typename Keep>
std::uint64_t hash_params(const std::vector<bgl::nn::Parameter*>& params,
                          Keep keep) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const bgl::nn::Parameter* p : params) {
    if (!keep(*p)) continue;
    for (const float v : p->value.f32()) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      h = (h ^ bits) * 0x100000001b3ull;
    }
  }
  return h;
}

/// What one worker saw over the timed steps.
struct WorkerLog {
  std::vector<double> step_s;       // wall time per step
  std::vector<double> gap_s;        // end of the previous step to this one's
  std::vector<double> losses;
  std::int64_t skipped = 0;
  bgl::model::StepPhaseTimes phases;  // summed over the timed steps
  bgl::moe::DispatchStats dispatch;
  bgl::obs::Registry registry;      // program metrics of the timed steps
  std::uint64_t dense_hash = 0;     // replicated parameters at the end
  std::uint64_t full_hash = 0;      // every local parameter at the end
};

/// Checks shared by both workloads; counts skipped and non-finite steps as
/// failed.
void check_training(Result& result, const std::vector<double>& warm_losses,
                    const WorkerLog& log) {
  result.attempted = static_cast<std::int64_t>(log.losses.size());
  std::int64_t bad = log.skipped;
  for (const double l : log.losses) bad += std::isfinite(l) ? 0 : 1;
  result.failed = std::min(bad, result.attempted);
  result.check(bad == 0, std::to_string(bad) + " steps skipped or non-finite");
  for (const double w : warm_losses)
    result.check(w == warm_losses.front(),
                 "set-ups disagree on the first step's loss");
  const std::size_t tail = std::max<std::size_t>(1, log.losses.size() / 10);
  double tail_mean = 0.0;
  for (std::size_t i = log.losses.size() - tail; i < log.losses.size(); ++i)
    tail_mean += log.losses[i] / static_cast<double>(tail);
  std::cout << "loss " << warm_losses.front() << " -> " << tail_mean
            << " over " << log.losses.size() << " steps\n";
  result.check(tail_mean < warm_losses.front(), "the loss did not fall");
}

/// End-to-end or per-layer metrics of a training run over `logs` (one per
/// worker; step shares average over them).
void report_training(Result& result, const Options& options,
                     const std::vector<double>& setups_s,
                     const std::vector<const WorkerLog*>& logs,
                     double tokens_per_step) {
  const WorkerLog& lead = *logs.front();
  double step_sum = 0.0;
  for (const double s : lead.step_s) step_sum += s;
  const auto steps = static_cast<double>(lead.step_s.size());
  if (!options.trace) {
    EndToEnd e2e;
    e2e.latencies_s = lead.step_s;
    e2e.gaps_s = lead.gap_s;
    e2e.tokens_per_s = tokens_per_step * steps / step_sum;
    e2e.setups_s = setups_s;
    e2e.report(result);
    return;
  }
  bgl::model::StepPhaseTimes phases;
  double comm_wait = 0.0, comm_bytes = 0.0, comm_msgs = 0.0;
  double demanded = 0.0, dropped = 0.0;
  for (const WorkerLog* log : logs) {
    phases += log->phases;
    comm_wait += sum_metrics(log->registry, "comm.", ".wait_s");
    comm_bytes += sum_metrics(log->registry, "comm.", ".send.bytes");
    comm_msgs += sum_metrics(log->registry, "comm.", ".send.msgs");
    demanded += static_cast<double>(log->dispatch.demanded);
    dropped += static_cast<double>(log->dispatch.dropped);
  }
  const auto workers = static_cast<double>(logs.size());
  const double pct = 100.0 / phases.total_s;
  LayerMetrics layers;
  layers.step_ms = 1e3 * step_sum / steps;
  layers.forward_pct = pct * phases.forward_s;
  layers.backward_pct = pct * phases.backward_s;
  layers.alltoall_pct = pct * phases.alltoall_s;
  layers.allreduce_pct = pct * phases.allreduce_s;
  layers.optimizer_pct = pct * phases.optimizer_s;
  layers.other_pct = 100.0 - layers.forward_pct - layers.backward_pct -
                     layers.allreduce_pct - layers.optimizer_pct;
  layers.comm_wait_pct = pct * comm_wait;
  layers.comm_kb_per_step = comm_bytes / 1024.0 / workers / steps;
  layers.comm_msgs_per_step = comm_msgs / workers / steps;
  layers.moe_drop_pct = demanded > 0.0 ? 100.0 * dropped / demanded : 0.0;
  layers.report(result);
}

}  // namespace

Result run_train_single(const Options& options) {
  using bgl::model::MoETransformerLM;
  const bgl::model::MoEModelConfig config = model_config();
  const double tokens_per_step =
      static_cast<double>(kRanks * kSeqsPerRank * config.seq_len);

  // Set-ups run on both sides of the timed steps, so their median samples
  // the host at more than one moment.
  WorkerLog log;
  std::vector<double> setups_s, warm_losses;
  for (int i = 0; i < kSetups; ++i) {
    Stopwatch sw;
    bgl::Rng init(options.seed);
    MoETransformerLM lm(config, init);
    bgl::train::Adam adam(kLearningRate);
    bgl::model::Trainer trainer(lm, adam, serial_options());
    std::vector<TokenStream> shards = make_shards(options.seed);
    warm_losses.push_back(trainer.train_step(next_global_batch(shards)).loss);
    setups_s.push_back(sw.elapsed());
    if (i != kSetups / 2) continue;

    Stopwatch clock;
    double last_end = 0.0;
    while (clock.elapsed() < options.seconds) {
      const Batch batch = next_global_batch(shards);
      bgl::model::StepStats stats;
      Stopwatch step;
      {
        bgl::obs::ScopedRegistry scoped(log.registry);
        stats = trainer.train_step(batch);
      }
      log.step_s.push_back(step.elapsed());
      const double end = clock.elapsed();
      log.gap_s.push_back(end - last_end);
      last_end = end;
      log.losses.push_back(stats.loss);
      log.skipped += stats.applied ? 0 : 1;
      log.phases += stats.phases;
      log.dispatch += stats.dispatch;
    }
  }

  Result result;
  check_training(result, warm_losses, log);
  report_training(result, options, setups_s, {&log}, tokens_per_step);
  return result;
}

Result run_train_moda(const Options& options) {
  using bgl::parallel::DistMoETransformerLM;
  const bgl::model::MoEModelConfig config = model_config();
  const double tokens_per_step =
      static_cast<double>(kRanks * kSeqsPerRank * config.seq_len);

  std::array<WorkerLog, kRanks> logs;
  std::vector<double> setups_s, warm_losses;
  for (int i = 0; i < kSetups; ++i) {
    const bool timed = i == kSetups / 2;  // set-ups on both sides
    Stopwatch setup_clock;
    bgl::rt::World::run(kRanks, [&](bgl::rt::Communicator& world) {
      const int rank = world.rank();
      WorkerLog& log = logs[static_cast<std::size_t>(rank)];
      const auto layout = bgl::parallel::MoDaLayout::make(kRanks, kEpSize);
      DistMoETransformerLM lm(world, layout, config, bgl::Rng(options.seed));
      bgl::train::Adam adam(kLearningRate);
      bgl::parallel::DistTrainer trainer(world, lm, adam, dist_options());
      TokenStream shard(options.seed, rank, config.vocab);
      const double warm =
          trainer.train_step(shard.next(kSeqsPerRank, config.seq_len))
              .global_loss;
      if (rank == 0) {
        setups_s.push_back(setup_clock.elapsed());
        warm_losses.push_back(warm);
      }
      if (!timed) return;

      // Rank 0's clock ends the run; the flag's allreduce keeps every rank
      // on the same step count and stays outside the timed step.
      Stopwatch clock;
      double last_end = 0.0;
      for (bool more = true; more;) {
        const Batch batch = shard.next(kSeqsPerRank, config.seq_len);
        bgl::parallel::DistStepStats stats;
        Stopwatch sw;
        {
          bgl::obs::ScopedRegistry scoped(log.registry);
          stats = trainer.train_step(batch);
        }
        log.step_s.push_back(sw.elapsed());
        const double end = clock.elapsed();
        log.gap_s.push_back(end - last_end);
        last_end = end;
        log.losses.push_back(stats.global_loss);
        log.skipped += stats.applied ? 0 : 1;
        log.phases += stats.phases;
        log.dispatch += stats.dispatch;
        std::array<int, 1> stop{rank == 0 && clock.elapsed() >= options.seconds};
        bgl::coll::allreduce_sum<int>(world, stop);
        more = stop[0] == 0;
      }
      const auto params = lm.parameters();
      log.dense_hash = hash_params(params, [](const bgl::nn::Parameter& p) {
        return p.name.find(".expert") == std::string::npos;
      });
      log.full_hash =
          hash_params(params, [](const bgl::nn::Parameter&) { return true; });
    });
  }

  Result result;
  check_training(result, warm_losses, logs[0]);
  std::vector<const WorkerLog*> views;
  for (const WorkerLog& log : logs) {
    result.check(log.losses == logs[0].losses,
                 "ranks disagree on the global loss");
    result.check(log.dense_hash == logs[0].dense_hash,
                 "replicated parameters diverged across ranks");
    views.push_back(&log);
  }
  for (int r = kEpSize; r < kRanks; ++r)
    result.check(logs[static_cast<std::size_t>(r)].full_hash ==
                     logs[static_cast<std::size_t>(r - kEpSize)].full_hash,
                 "data-parallel replicas diverged");
  report_training(result, options, setups_s, views, tokens_per_step);
  return result;
}

}  // namespace perfbench
