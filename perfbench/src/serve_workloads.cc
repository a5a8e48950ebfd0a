/**
 * @file
 * serve_open and autotune_beam: the served model behind an
 * InferenceServer, driven by independent users (serve_open) and by the
 * compiler-in-the-loop block optimizer (autotune_beam).
 *
 * Both share one set-up: generate the workload's blocks from the seed,
 * train a model of the benchmark configuration briefly and write it as a
 * bundle, load the bundle twice through model::LoadModel (the served
 * copy, and a second copy with its cache off that the checks score
 * against), start the server and warm it up.
 *
 * The server runs one shard with one worker thread. Requests of one
 * shard complete in submission order, so a single collector thread that
 * waits on futures in order sees each completion when it happens.
 *
 * Every workload submits around a known fault: SubmitMany never returns
 * when one call routes more requests to an idle shard than its
 * queue_capacity under OverflowPolicy::kBlock. The queue capacity here is
 * larger than any burst or autotune wave.
 */
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "asm/parser.h"
#include "autotune/search.h"
#include "autotune/transforms.h"
#include "dataset/generator.h"
#include "dataset/dataset.h"
#include "model/checkpoint.h"
#include "probes.h"
#include "serve/inference_server.h"
#include "train/runners.h"
#include "uarch/measurement.h"
#include "uarch/throughput_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

using granite::assembly::BasicBlock;
namespace serve = granite::serve;

constexpr std::size_t kBundleTrainingBlocks = 1000;
constexpr int kBundleTrainingSteps = 10;
constexpr int kWarmupRequests = 64;
/** Relative tolerance of served-vs-single-block comparisons: batching
 * blocks into one graph may reassociate float sums. */
constexpr double kValueTolerance = 1e-4;

// serve_open shape.
constexpr int kBursts = 6;
constexpr int kBurstBlocks = 256;
/** Offered rate of the open-loop phase, requests per second: about a
 * quarter of the burst drain rate on the reference host. */
constexpr double kOfferedRate = 500.0;
/** Share of --seconds the open phase lasts (OpsFor). */
constexpr double kOpenShare = 0.9;
/** Share of open-phase requests that repeat a recently requested block. */
constexpr double kRepeatShare = 0.1;
constexpr std::size_t kRepeatWindow = 256;
/** Every this many requests, the served value is checked. */
constexpr std::size_t kCheckEvery = 8;

// autotune_beam shape.
constexpr int kAutotuneTask = 1;  // Haswell, the oracle's target.
constexpr int kDeoptimizeRewrites = 3;
constexpr int kAutotuneMaxInstructions = 8;
/** Range of pessimized block lengths, cycled through in order. An odd
 * count of lengths puts the median Optimize() time inside one length's
 * times rather than in the gap between two. */
constexpr std::size_t kAutotuneMinLength = 3;
constexpr std::size_t kAutotuneMaxLength = 9;
/** Reference-host Optimize() rate that sizes the corpus (OpsFor). */
constexpr double kBlocksPerSecond = 9.0;

serve::InferenceServerConfig ServerConfig() {
  serve::InferenceServerConfig config;
  config.num_workers = 1;
  config.workers_per_shard = 1;
  config.max_batch_size = 32;
  config.batch_window = std::chrono::microseconds(2000);
  // Above any burst or wave: see the SubmitMany note in the file comment.
  config.queue_capacity = 4096;
  config.prediction_cache_capacity = 8192;
  return config;
}

/** The served model, its checking twin and the server. */
struct ServeState {
  std::unique_ptr<granite::model::ThroughputPredictor> served;
  std::unique_ptr<TimedPredictor> timed;
  std::unique_ptr<granite::model::ThroughputPredictor> check;
  std::unique_ptr<serve::InferenceServer> server;
};

/** `count` distinct generator blocks (by fingerprint), none in `seen`. */
std::vector<BasicBlock> DistinctBlocks(
    std::size_t count, const granite::dataset::GeneratorConfig& config,
    std::uint64_t seed, std::unordered_set<std::uint64_t>& seen) {
  granite::dataset::BlockGenerator generator(config, seed);
  std::vector<BasicBlock> blocks;
  blocks.reserve(count);
  while (blocks.size() < count) {
    BasicBlock block = generator.Generate();
    if (seen.insert(granite::uarch::BlockFingerprint(block)).second) {
      blocks.push_back(std::move(block));
    }
  }
  return blocks;
}

std::unique_ptr<ServeState> StartServing(const Options& options,
                                         bool traced) {
  // The served bundle: a GRANITE model trained for a few steps on a
  // small synthesized corpus, enough for the search to follow real cost
  // differences (an untrained model ranks rewrites arbitrarily).
  const std::string bundle = options.workdir + "/served_model.gmb";
  {
    granite::dataset::SynthesisConfig synthesis;
    synthesis.num_blocks = kBundleTrainingBlocks;
    synthesis.seed = options.seed ^ 0xb0b0ULL;
    const granite::dataset::Dataset data =
        granite::dataset::SynthesizeDataset(synthesis);
    granite::train::TrainerConfig trainer_config =
        BenchTrainerConfig(options.seed);
    trainer_config.num_steps = kBundleTrainingSteps;
    granite::train::ModelRunner runner(
        BenchModelConfig(DecoderBias(data)), trainer_config);
    runner.Train(data, granite::dataset::Dataset());
    runner.Save(bundle);
  }
  auto state = std::make_unique<ServeState>();
  state->served = granite::model::LoadModel(bundle);
  state->check = granite::model::LoadModel(bundle);
  granite::model::ThroughputPredictor* hosted = state->served.get();
  if (traced) {
    state->timed = std::make_unique<TimedPredictor>(hosted);
    hosted = state->timed.get();
  }
  state->server =
      std::make_unique<serve::InferenceServer>(hosted, ServerConfig());

  // Warm-up on blocks outside every workload's inputs.
  std::unordered_set<std::uint64_t> seen;
  const std::vector<BasicBlock> warmup = DistinctBlocks(
      kWarmupRequests, {}, options.seed ^ 0x5eed5eedULL, seen);
  std::vector<std::future<double>> futures;
  for (int i = 0; i < kWarmupRequests; ++i) {
    futures.push_back(*state->server->Submit(&warmup[i], i % 3));
  }
  for (std::future<double>& future : futures) future.get();
  return state;
}

/** Whether a served value matches a fresh single-block prediction. */
bool Matches(double served, double reference) {
  return std::abs(served - reference) <=
         kValueTolerance * std::max(1.0, std::abs(reference));
}

double SingleBlockPrediction(const ServeState& state, const BasicBlock& block,
                             int task) {
  return state.check->PredictBatchAllTasks({&block})[0][task];
}

/** Snapshot of the model and kernel probes before a measured phase. */
struct ModelProbeMark {
  std::uint64_t batches = 0;
  double batch_ms = 0.0;
  std::uint64_t batch_blocks = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  KernelTotals kernels;

  ModelProbeMark(const ServeState& state, const TimingBackend* probe) {
    if (state.timed == nullptr) return;
    batches = state.timed->batches().events();
    batch_ms = state.timed->batches().ms();
    batch_blocks = state.timed->batch_blocks();
    hits = state.timed->prediction_cache_hits();
    misses = state.timed->prediction_cache_misses();
    kernels = probe->Totals();
  }
};

/** Serving-layer metrics common to both workloads (traced runs), over
 * the phase since `before`. `request_ms` is the mean request latency
 * from submission to answer; what the model's batched forward does not
 * account for is queueing. */
void AddServingLayers(Outcome& outcome, const ServeState& state,
                      const ModelProbeMark& before,
                      const TimingBackend& kernels, std::uint64_t faults,
                      double ops, double request_ms) {
  const TimedPredictor& timed = *state.timed;
  const double batches =
      static_cast<double>(timed.batches().events() - before.batches);
  const double batch_ms_total = timed.batches().ms() - before.batch_ms;
  const double batch_ms = batches > 0 ? batch_ms_total / batches : 0.0;
  AddKernelLayers(outcome, kernels.Totals().Since(before.kernels),
                  batch_ms_total, faults, ops);
  SetLayer(outcome, "model.batch_ms", batch_ms);
  SetLayer(outcome, "model.batch_blocks",
           batches > 0 ? static_cast<double>(timed.batch_blocks() -
                                             before.batch_blocks) /
                             batches
                       : 0.0);
  const double hits =
      static_cast<double>(timed.prediction_cache_hits() - before.hits);
  const double misses =
      static_cast<double>(timed.prediction_cache_misses() - before.misses);
  SetLayer(outcome, "model.cache_hit_rate",
           hits + misses > 0 ? hits / (hits + misses) : 0.0);
  const serve::ServerStats stats = state.server->Stats();
  SetLayer(outcome, "serve.queue_ms", request_ms - batch_ms);
  SetLayer(outcome, "serve.batch_occupancy", stats.mean_batch_occupancy);
  SetLayer(outcome, "serve.deadline_flush_share",
           stats.batches > 0 ? static_cast<double>(stats.deadline_flushes) /
                                   static_cast<double>(stats.batches)
                             : 0.0);
}

/** One open-phase or burst request and what became of it. */
struct RequestRecord {
  const BasicBlock* block = nullptr;
  int task = 0;
  Clock::time_point due;
  Clock::time_point submitted;
  Clock::time_point completed;
  double value = 0.0;
  bool ok = false;
};

/** Waits on submitted futures in submission order and stamps each
 * completion (exact for a single-worker shard, which completes batches
 * in order). */
class Collector {
 public:
  explicit Collector(std::vector<RequestRecord>* records)
      : records_(records), thread_([this] { Loop(); }) {}
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Add(std::size_t record, std::future<double> future) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.emplace_back(record, std::move(future));
    }
    ready_.notify_one();
  }

  /** Waits until every added future has completed. */
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    ready_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    for (;;) {
      std::pair<std::size_t, std::future<double>> next;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return done_ || !pending_.empty(); });
        if (pending_.empty()) return;
        next = std::move(pending_.front());
        pending_.pop_front();
      }
      next.second.wait();
      RequestRecord& record = (*records_)[next.first];
      record.completed = Clock::now();
      try {
        record.value = next.second.get();
        record.ok = true;
      } catch (const std::exception&) {
        record.ok = false;
      }
    }
  }

  std::vector<RequestRecord>* records_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::pair<std::size_t, std::future<double>>> pending_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

Outcome RunServeOpen(const Options& options, const TimingBackend* kernels) {
  Outcome outcome;
  const bool traced = kernels != nullptr;
  if (traced) AddLayerDefaults(outcome);

  // The open phase spans about kOpenShare of --seconds at the offered
  // rate; the bursts take the rest on the reference host.
  const std::size_t open_requests = static_cast<std::size_t>(
      OpsFor(options, kOfferedRate * kOpenShare));
  const std::size_t pool_size = kBursts * kBurstBlocks + open_requests;
  std::vector<BasicBlock> pool;
  std::unique_ptr<ServeState> state;
  const double setup_s = TimedSetup([&] {
    std::unordered_set<std::uint64_t> seen;
    pool = DistinctBlocks(pool_size, {}, options.seed, seen);
    state = StartServing(options, traced);
  });

  std::vector<RequestRecord> records(pool_size);
  std::size_t next_fresh = 0;
  std::size_t num_records = 0;
  const ModelProbeMark mark(*state, kernels);
  const std::uint64_t faults_before = MinorFaults();
  const Clock::time_point start = Clock::now();

  // Burst phase: drain throughput at full batches.
  std::vector<double> burst_rates;
  for (int burst = 0; burst < kBursts; ++burst) {
    const Clock::time_point burst_start = Clock::now();
    std::vector<std::pair<std::size_t, std::optional<std::future<double>>>>
        futures;
    for (int i = 0; i < kBurstBlocks; ++i) {
      RequestRecord& record = records[num_records];
      record.block = &pool[next_fresh++];
      record.task = static_cast<int>(num_records % 3);
      record.due = record.submitted = Clock::now();
      futures.emplace_back(num_records++,
                           state->server->Submit(record.block, record.task));
    }
    for (auto& [index, future] : futures) {
      RequestRecord& record = records[index];
      if (!future.has_value()) continue;
      try {
        record.value = future->get();
        record.ok = true;
      } catch (const std::exception&) {
        record.ok = false;
      }
      record.completed = Clock::now();
    }
    burst_rates.push_back(kBurstBlocks /
                          SecondsBetween(burst_start, Clock::now()));
  }
  const std::size_t burst_records = num_records;

  // Open phase: Poisson arrivals at the offered rate; each request is
  // timed from when it was due.
  std::mt19937_64 rng(options.seed);
  std::exponential_distribution<double> gap(kOfferedRate);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const Clock::time_point open_start = Clock::now();
  Clock::time_point due = open_start;
  {
    Collector collector(&records);
    for (std::size_t r = 0; r < open_requests; ++r) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng)));
      const bool repeat = coin(rng) < kRepeatShare && num_records > 0;
      const BasicBlock* block;
      if (repeat) {
        const std::size_t window = std::min(num_records, kRepeatWindow);
        block = records[num_records - 1 -
                        static_cast<std::size_t>(coin(rng) * window)]
                    .block;
      } else {
        block = &pool[next_fresh++];
      }
      std::this_thread::sleep_until(due);
      RequestRecord& record = records[num_records];
      record.block = block;
      record.task = static_cast<int>(num_records % 3);
      record.due = due;
      record.submitted = Clock::now();
      std::optional<std::future<double>> future =
          state->server->Submit(block, record.task);
      if (future.has_value()) {
        collector.Add(num_records, std::move(*future));
      }
      ++num_records;
    }
    collector.Finish();
  }
  const Clock::time_point end = Clock::now();
  const std::uint64_t faults = MinorFaults() - faults_before;

  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  double served_ms = 0.0;
  for (std::size_t i = burst_records; i < num_records; ++i) {
    latency_ms.push_back(MsBetween(records[i].due, records[i].completed));
    late_ms.push_back(MsBetween(records[i].due, records[i].submitted));
    served_ms += MsBetween(records[i].submitted, records[i].completed);
  }
  // Completions per second over the open phase: the offered rate while
  // the server keeps up, less once a backlog builds.
  const double open_s = SecondsBetween(open_start, end);

  std::size_t answered = 0;
  for (std::size_t i = 0; i < num_records; ++i) {
    if (records[i].ok) ++answered;
  }
  outcome.attempted += num_records;
  outcome.failed += num_records - answered;
  if (answered != num_records) outcome.correct = false;

  if (traced) {
    AddServingLayers(outcome, *state, mark, *kernels, faults,
                     static_cast<double>(num_records),
                     served_ms / static_cast<double>(open_requests));
    SetLayer(outcome, "serve.generator_late_ms", Quantile(late_ms, 0.99));
  }

  // Sampled served values against the separately loaded, uncached copy.
  for (std::size_t i = 0; i < num_records; i += kCheckEvery) {
    if (!records[i].ok) continue;
    const double reference =
        SingleBlockPrediction(*state, *records[i].block, records[i].task);
    outcome.Check(Matches(records[i].value, reference),
                  "serve_open: request " + std::to_string(i) + " served " +
                      std::to_string(records[i].value) + ", expected " +
                      std::to_string(reference));
  }
  const serve::ServerStats stats = state->server->Stats();
  outcome.Check(stats.rejected == 0 && stats.shed == 0 && stats.failed == 0,
                "serve_open: server rejected, shed or failed requests");

  outcome.end_to_end["setup_s"] = {setup_s, "s"};
  outcome.end_to_end["blocks_per_s"] = {Median(burst_rates), "blocks/s"};
  outcome.end_to_end["op_ms_p50"] = {Median(latency_ms), "ms"};
  outcome.end_to_end["items_per_s"] = {
      static_cast<double>(open_requests) / open_s, "items/s"};
  std::fprintf(stderr,
               "serve_open: burst %.0f blocks/s; open %zu requests at "
               "%.0f/s offered: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms; "
               "generator late p99 %.3f ms; cache hit rate %.3f; batch "
               "occupancy %.2f; %.1fs total\n",
               Median(burst_rates), open_requests, kOfferedRate,
               Median(latency_ms), Quantile(latency_ms, 0.9),
               Quantile(latency_ms, 0.99), Quantile(late_ms, 0.99),
               stats.cache_hit_rate, stats.mean_batch_occupancy,
               SecondsBetween(start, end));
  return outcome;
}

Outcome RunAutotuneBeam(const Options& options, const TimingBackend* kernels) {
  Outcome outcome;
  const bool traced = kernels != nullptr;
  if (traced) AddLayerDefaults(outcome);

  // Pessimized generator blocks the transform catalog can work on, so
  // the search has real headroom on every one. The pessimized lengths
  // cycle through a fixed range: search cost and the largest served
  // batch grow with block length, and the cycle gives every seed the
  // same mix of lengths.
  const granite::uarch::ThroughputModel oracle(
      granite::uarch::Microarchitecture::kHaswell);
  const std::size_t corpus_size =
      static_cast<std::size_t>(OpsFor(options, kBlocksPerSecond));
  std::vector<BasicBlock> corpus;
  std::unique_ptr<ServeState> state;
  const double setup_s = TimedSetup([&] {
    granite::dataset::GeneratorConfig config;
    config.max_instructions = kAutotuneMaxInstructions;
    granite::dataset::BlockGenerator generator(config, options.seed);
    std::vector<std::vector<BasicBlock>> by_length(kAutotuneMaxLength + 1);
    while (corpus.size() < corpus_size) {
      const std::size_t length =
          kAutotuneMinLength +
          corpus.size() % (kAutotuneMaxLength - kAutotuneMinLength + 1);
      while (by_length[length].empty()) {
        const BasicBlock block = generator.Generate();
        if (granite::autotune::EnumerateCandidates(block).empty()) continue;
        BasicBlock worse = granite::autotune::DeoptimizeBlock(
            block, oracle, kDeoptimizeRewrites);
        if (worse.size() >= kAutotuneMinLength &&
            worse.size() <= kAutotuneMaxLength) {
          by_length[worse.size()].push_back(std::move(worse));
        }
      }
      corpus.push_back(std::move(by_length[length].back()));
      by_length[length].pop_back();
    }
    state = StartServing(options, traced);
  });
  const double setup_rss_mb = PeakRssMb();

  granite::autotune::ServerCostClient server_client(state->server.get(),
                                                    kAutotuneTask);
  std::unique_ptr<TimedCostClient> timed_client;
  granite::autotune::CostClient* client = &server_client;
  if (traced) {
    timed_client = std::make_unique<TimedCostClient>(&server_client);
    client = timed_client.get();
  }
  granite::autotune::SearchConfig search;
  search.beam_width = 4;
  search.max_depth = 5;
  granite::autotune::BlockOptimizer optimizer(client, search);

  const ModelProbeMark mark(*state, kernels);
  const std::uint64_t faults_before = MinorFaults();
  std::vector<granite::autotune::OptimizeResult> results;
  std::vector<double> optimize_ms;
  std::size_t candidates = 0;
  std::size_t generated = 0;
  std::size_t duplicates = 0;
  const Clock::time_point start = Clock::now();
  while (results.size() < corpus.size()) {
    const Clock::time_point block_start = Clock::now();
    results.push_back(optimizer.Optimize(corpus[results.size()]));
    optimize_ms.push_back(MsBetween(block_start, Clock::now()));
    candidates += results.back().candidates_scored;
    generated += results.back().candidates_generated;
    duplicates += results.back().duplicates_skipped;
  }
  const Clock::time_point end = Clock::now();
  const std::uint64_t faults = MinorFaults() - faults_before;
  const double seconds = SecondsBetween(start, end);
  const double blocks = static_cast<double>(results.size());

  if (traced) {
    AddServingLayers(outcome, *state, mark, *kernels, faults, blocks,
                     state->server->Stats().latency_mean_us / 1e3);
    const double wait_ms = timed_client->waves().ms() / blocks;
    SetLayer(outcome, "autotune.score_wait_ms", wait_ms);
    SetLayer(outcome, "autotune.expand_ms", seconds * 1e3 / blocks - wait_ms);
    SetLayer(outcome, "autotune.candidates_per_block",
             static_cast<double>(candidates) / blocks);
    SetLayer(outcome, "autotune.duplicate_share",
             generated > 0 ? static_cast<double>(duplicates) /
                                 static_cast<double>(generated)
                           : 0.0);
  }

  std::size_t oracle_improved = 0;
  std::size_t model_improved = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const granite::autotune::OptimizeResult& result = results[i];
    const std::string label = "autotune_beam: block " + std::to_string(i);
    ++outcome.attempted;
    if (!result.scored || result.rejected > 0) {
      ++outcome.failed;
      outcome.correct = false;
      continue;
    }
    if (result.improved) ++model_improved;
    outcome.Check(result.best_cost <= result.original_cost,
                  label + ": best cost above the original cost");
    outcome.Check(
        Matches(result.best_cost,
                SingleBlockPrediction(*state, result.best, kAutotuneTask)),
        label + ": re-scoring the best block does not reproduce its cost");
    const auto reparsed =
        granite::assembly::ParseBasicBlock(result.best.ToString());
    outcome.Check(reparsed.ok() && granite::uarch::BlockFingerprint(
                                       *reparsed.value) ==
                                       granite::uarch::BlockFingerprint(
                                           result.best),
                  label + ": best block does not parse back to itself");
    if (oracle.CyclesPerIteration(result.best) <
        oracle.CyclesPerIteration(corpus[i]) - 1e-9) {
      ++oracle_improved;
    }
  }

  outcome.end_to_end["setup_s"] = {setup_s, "s"};
  outcome.end_to_end["blocks_per_s"] = {blocks / seconds, "blocks/s"};
  outcome.end_to_end["op_ms_p50"] = {Median(optimize_ms), "ms"};
  outcome.end_to_end["items_per_s"] = {
      static_cast<double>(candidates) / seconds, "items/s"};
  std::fprintf(stderr,
               "autotune_beam: %zu blocks in %.2fs, Optimize p50 %.1f ms, "
               "%.0f candidates/s, %.1f candidates/block; improved per "
               "model %zu, confirmed by the oracle %zu; cache hit rate "
               "%.3f; peak RSS %.1f MB after set-up\n",
               results.size(), seconds, Median(optimize_ms),
               static_cast<double>(candidates) / seconds,
               static_cast<double>(candidates) / blocks, model_improved,
               oracle_improved, state->server->Stats().cache_hit_rate,
               setup_rss_mb);
  return outcome;
}

}  // namespace perfbench
