// Workload "serve": open-loop MoE serving.
//
// Requests arrive on a seeded wall-clock schedule whether or not the engine
// keeps up — independent users, an open loop — and serve::Engine serves
// them with continuous batching over its paged KV cache and expert-weight
// cache. A request's time to first token runs from when it was due, so a
// stall also counts against every request queued behind it. The length mix
// and engine options follow bench_serve (bench/bench_serve.cpp; README.md
// lists what differs and why). Tokens are checked bitwise against the
// sliding-window model::generate() oracle.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/stopwatch.hpp"
#include "model/generate.hpp"
#include "serve/engine.hpp"

namespace perfbench {
namespace {

using bgl::Stopwatch;
using bgl::model::MoETransformerLM;
using bgl::serve::Engine;
using bgl::serve::Request;

constexpr double kArrivalsPerSecond = 6.0;
constexpr std::int64_t kBurst = 4;  // requests arriving together
constexpr int kSetups = 9;
constexpr std::size_t kOracleChecks = 8;

/// bench_serve's model at half its depth: a 30-second run then holds 45
/// bursts with the engine busy under a third of the time. At full depth the
/// same load allows half the bursts, too few for a steady 90th percentile.
bgl::model::MoEModelConfig model_config() {
  bgl::model::MoEModelConfig c;
  c.name = "perfbench-serve";
  c.vocab = 64;
  c.d_model = 128;
  c.n_layers = 2;
  c.n_heads = 4;
  c.seq_len = 64;
  c.d_ffn = 256;
  c.num_experts = 8;
  c.top_k = 2;
  c.aux_loss_weight = 0.0;
  c.validate();
  return c;
}

/// bench_serve's engine options — 8-token KV blocks, an expert cache that
/// holds half the model's (layer, expert) pairs and prefetches half a
/// layer's experts — with two changes. Eight batch slots rather than four,
/// so a burst joins the sequences still decoding: with four, a burst that
/// came while one request of the last was running waited for a slot, and
/// how many did set the latency tail. And a KV pool of two full windows
/// rather than one per slot, as a paged pool sized below the worst case
/// would be, so a burst can wait for blocks.
bgl::serve::EngineOptions engine_options() {
  const bgl::model::MoEModelConfig c = model_config();
  bgl::serve::EngineOptions o;
  o.max_batch = 8;
  o.block_tokens = 8;
  o.num_blocks = 2 * c.seq_len / o.block_tokens;
  o.expert_cache_capacity = c.n_layers * c.num_experts / 2;
  o.expert_cache_prefetch = c.num_experts / 2;
  return o;
}

struct Arrival {
  double due_s = 0.0;
  Request request;
};

struct Shape {
  std::int64_t prompt = 0;
  std::int64_t new_tokens = 0;
};

template <typename T>
void shuffle(std::vector<T>& xs, InputRng& rng) {
  for (std::size_t i = xs.size(); i > 1; --i)
    std::swap(xs[i - 1], xs[static_cast<std::size_t>(rng.between(
                             0, static_cast<std::int64_t>(i) - 1))]);
}

/// n (prompt, output) length pairs spread evenly over [p_lo, p_hi] x
/// [n_lo, n_hi] (a Kronecker lattice), so a run's mix of lengths, and with
/// it the run's total work, is the same for every seed. The seed orders
/// them within limits: ranked by total length into kStrata bands, each run
/// of kStrata consecutive pairs holds one pair of every band, in random
/// order. Drawn independently, or shuffled freely, the few long prompts
/// that slide past the window now and then bunched up and swung the
/// latency tail by a factor of two or more from seed to seed.
std::vector<Shape> spread_shapes(std::int64_t n, std::int64_t p_lo,
                                 std::int64_t p_hi, std::int64_t n_lo,
                                 std::int64_t n_hi, InputRng& rng) {
  constexpr double kGolden = 0.6180339887498949;
  constexpr std::int64_t kStrata = 5;
  std::vector<Shape> lattice;
  for (std::int64_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    double v = (static_cast<double>(i) + 0.5) * kGolden;
    v -= static_cast<double>(static_cast<std::int64_t>(v));
    lattice.push_back({p_lo + static_cast<std::int64_t>(
                                  u * static_cast<double>(p_hi - p_lo + 1)),
                       n_lo + static_cast<std::int64_t>(
                                  v * static_cast<double>(n_hi - n_lo + 1))});
  }
  std::stable_sort(lattice.begin(), lattice.end(),
                   [](const Shape& a, const Shape& b) {
                     return a.prompt + a.new_tokens < b.prompt + b.new_tokens;
                   });
  std::vector<std::vector<Shape>> bands(kStrata);
  for (std::int64_t i = 0; i < n; ++i)
    bands[static_cast<std::size_t>(i * kStrata / n)].push_back(
        lattice[static_cast<std::size_t>(i)]);
  for (auto& band : bands) shuffle(band, rng);
  std::vector<Shape> out;
  for (std::size_t b = 0; static_cast<std::int64_t>(out.size()) < n; ++b) {
    std::vector<Shape> group;
    for (const auto& band : bands)
      if (b < band.size()) group.push_back(band[b]);
    shuffle(group, rng);
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

/// A paced open loop: seconds x rate requests in bursts of kBurst, one
/// burst every kBurst/rate seconds, so the engine batches the burst.
/// (Poisson arrivals, or bursts at random times, bunched up at random and
/// swung the latency quantiles with the seed.) bench_serve's lengths: a
/// quarter of the prompts are long (half a window to a full one) — one per
/// burst, at a random place in it — the rest 1-4 tokens; each request asks
/// for 2-24 tokens, so a long prompt can run past the window and slide.
std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds) {
  const bgl::model::MoEModelConfig c = model_config();
  InputRng rng(seed);
  const auto bursts = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(kArrivalsPerSecond * seconds) / kBurst);
  const double slot_s = seconds / static_cast<double>(bursts);
  const std::vector<Shape> longs =
      spread_shapes(bursts, c.seq_len / 2, c.seq_len, 2, 24, rng);
  const std::vector<Shape> shorts =
      spread_shapes(bursts * (kBurst - 1), 1, 4, 2, 24, rng);
  std::vector<Arrival> out;
  std::int64_t long_at = 0;
  for (std::int64_t id = 0; id < bursts * kBurst; ++id) {
    const std::int64_t burst = id / kBurst;
    const std::int64_t place = id % kBurst;
    if (place == 0) long_at = rng.between(0, kBurst - 1);
    const Shape& shape =
        place == long_at
            ? longs[static_cast<std::size_t>(burst)]
            : shorts[static_cast<std::size_t>(
                  burst * (kBurst - 1) + place - (place > long_at ? 1 : 0))];
    Arrival a;
    a.due_s = static_cast<double>(burst) * slot_s;
    Request& r = a.request;
    r.id = id;
    for (std::int64_t i = 0; i < shape.prompt; ++i)
      r.prompt.push_back(static_cast<std::int32_t>(rng.between(0, c.vocab - 1)));
    r.options.max_new_tokens = shape.new_tokens;
    r.options.temperature = 1.0;
    r.options.top_k = 8;
    r.seed = rng.next();
    out.push_back(std::move(a));
  }
  return out;
}

/// A loaded model and a warm engine. The engine refers to the model, so it
/// is declared (and destroyed) after it.
struct Server {
  std::unique_ptr<MoETransformerLM> lm;
  std::unique_ptr<Engine> engine;
};

/// Loads the model and starts an engine, then serves one request that fills
/// the window and slides, so every lazy allocation is done before the clock
/// starts.
Server set_up(std::uint64_t seed) {
  Server s;
  bgl::Rng init(seed);
  const bgl::model::MoEModelConfig c = model_config();
  s.lm = std::make_unique<MoETransformerLM>(c, init);
  s.engine = std::make_unique<Engine>(*s.lm, engine_options());
  Request warm;
  warm.id = -1;
  for (std::int64_t i = 0; i < c.seq_len; ++i)
    warm.prompt.push_back(static_cast<std::int32_t>(i % c.vocab));
  warm.options.max_new_tokens = 2;
  warm.seed = seed;
  s.engine->submit(std::move(warm));
  s.engine->run();
  return s;
}

/// Serves the run's schedule on a warm `server`, checks the outputs into
/// `result`, and fills the latency samples and throughput of `e2e` and the
/// per-layer `layers`.
void serve_timed(Server& server, const Options& options, Result& result,
                 EndToEnd& e2e, LayerMetrics& layers) {
  Engine& engine = *server.engine;
  const std::vector<Arrival> schedule =
      make_schedule(options.seed, options.seconds);

  bgl::obs::Registry registry;
  std::vector<double> step_end_s;  // per engine step since base_step
  double busy_s = 0.0;
  double wall_s = 0.0;
  double late_s = 0.0;  // how late the generator submitted, summed
  const std::int64_t base_step = engine.current_step();
  const bgl::serve::ExpertCache& experts = *engine.expert_cache();
  const std::int64_t base_hits = experts.hits();
  const std::int64_t base_misses = experts.misses();
  {
    bgl::obs::ScopedRegistry scoped(registry);
    Stopwatch clock;
    std::size_t next = 0;
    for (;;) {
      const double now = clock.elapsed();
      for (; next < schedule.size() && schedule[next].due_s <= now; ++next) {
        Request r = schedule[next].request;
        r.arrival_step = engine.current_step();
        engine.submit(std::move(r));
        late_s += now - schedule[next].due_s;
      }
      if (engine.active() + engine.queued() > 0) {
        const double t0 = clock.elapsed();
        engine.step();
        const double t1 = clock.elapsed();
        busy_s += t1 - t0;
        step_end_s.push_back(t1);
      } else if (next < schedule.size()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(schedule[next].due_s - now));
      } else {
        break;
      }
    }
    wall_s = clock.elapsed();
  }
  const auto end_of = [&](std::int64_t step) {
    return step_end_s.at(static_cast<std::size_t>(step - base_step));
  };

  // Latency and output checks per request.
  result.attempted = static_cast<std::int64_t>(schedule.size());
  const std::int64_t window = model_config().seq_len;
  std::int64_t completed = 0;
  std::int64_t generated = 0;
  double occupied = 0.0;    // sum over requests of steps spent active
  double queue_steps = 0.0;
  std::size_t first_slide = schedule.size();
  // A request counts as failed unless it completed, whole and, when
  // checked, equal to the oracle.
  std::vector<const bgl::serve::RequestResult*> served(schedule.size());
  for (const bgl::serve::RequestResult& r : engine.results()) {
    if (r.id < 0) continue;  // the warm-up request
    const auto i = static_cast<std::size_t>(r.id);
    const Request& req = schedule.at(i).request;
    // A sequence makes one token per engine step from its admission on:
    // its first token ends step admit_step, the next ones each step after.
    e2e.latencies_s.push_back(end_of(r.admit_step) - schedule[i].due_s);
    for (std::int64_t s = r.admit_step + 1; s <= r.finish_step; ++s)
      e2e.gaps_s.push_back(end_of(s) - end_of(s - 1));
    const auto n_new = static_cast<std::int64_t>(r.tokens.size()) -
                       static_cast<std::int64_t>(req.prompt.size());
    const bool whole =
        n_new == req.options.max_new_tokens &&
        r.finish_step - r.admit_step + 1 == n_new &&
        std::equal(req.prompt.begin(), req.prompt.end(), r.tokens.begin());
    result.check(whole, "request " + std::to_string(r.id) +
                            " came back with the wrong shape");
    generated += n_new;
    occupied += static_cast<double>(r.finish_step - r.admit_step + 1);
    queue_steps += static_cast<double>(r.admit_step - r.arrival_step);
    if (whole) served[i] = &r;
    if (static_cast<std::int64_t>(r.tokens.size()) - 1 > window)
      first_slide = std::min(first_slide, i);
    ++completed;
  }
  result.check(completed == result.attempted,
               std::to_string(result.attempted - completed) +
                   " requests never completed");

  // Oracle: requests spread over the run, at every place in a burst, and
  // the first one that slid past the window, re-generated alone, must
  // match bitwise.
  std::vector<std::size_t> checks{first_slide};
  for (std::size_t k = 0; k < kOracleChecks; ++k)
    checks.push_back(k * schedule.size() / kOracleChecks + k % kBurst);
  for (const std::size_t i : checks) {
    if (i >= schedule.size() || served[i] == nullptr) continue;
    const Request& req = schedule[i].request;
    bgl::Rng rng(req.seed);
    const auto expect =
        bgl::model::generate(*server.lm, req.prompt, req.options, rng);
    const bool same = expect == served[i]->tokens;
    result.check(same, "request " + std::to_string(i) +
                           " differs from the generate() oracle");
    if (!same) served[i] = nullptr;
  }
  result.failed = std::count(served.begin(), served.end(), nullptr);

  const auto steps = static_cast<double>(step_end_s.size());
  std::cout << "serve: " << completed << "/" << result.attempted
            << " requests, " << generated << " tokens, " << steps
            << " engine steps, busy " << busy_s << " s of " << wall_s
            << " s, submitted on average " << 1e3 * late_s / result.attempted
            << " ms late\n";
  e2e.tokens_per_s = static_cast<double>(generated) / busy_s;
  layers.step_ms = 1e3 * busy_s / steps;
  layers.decode_pct =
      100.0 * sum_metrics(registry, "serve.token_seconds", "") / busy_s;
  layers.other_pct = 100.0 - layers.decode_pct;
  const double routed = sum_metrics(registry, "moe.decode.routed", "");
  const double dropped = sum_metrics(registry, "moe.decode.dropped", "");
  layers.moe_drop_pct = 100.0 * dropped / (routed + dropped);
  layers.batch_occupancy = occupied / steps;
  layers.queue_wait_steps = queue_steps / static_cast<double>(completed);
  layers.idle_pct = 100.0 * (wall_s - busy_s) / wall_s;
  const auto hits = static_cast<double>(experts.hits() - base_hits);
  const auto misses = static_cast<double>(experts.misses() - base_misses);
  layers.expert_hit_pct = 100.0 * hits / (hits + misses);
  layers.kv_blocked_pct =
      100.0 * sum_metrics(registry, "serve.kv.reserve_backpressure", "") /
      steps;
}

}  // namespace

Result run_serve(const Options& options) {
  Result result;
  EndToEnd e2e;
  LayerMetrics layers;
  // Set-ups run on both sides of the timed window, so their median samples
  // the host at more than one moment.
  for (int i = 0; i < kSetups; ++i) {
    Stopwatch sw;
    Server server = set_up(options.seed);
    e2e.setups_s.push_back(sw.elapsed());
    if (i == kSetups / 2) serve_timed(server, options, result, e2e, layers);
  }
  if (options.trace) {
    layers.report(result);
  } else {
    e2e.report(result);
  }
  return result;
}

}  // namespace perfbench
