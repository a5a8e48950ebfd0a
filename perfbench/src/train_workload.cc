/**
 * @file
 * train_b100: a closed loop of Trainer steps at the paper's batch of 100
 * blocks, fed from a corpus file that fits the streaming shard window.
 *
 * Set-up synthesizes an Ithemal-style corpus from the seed, writes it as
 * a `.gbc` file, opens it as a StreamingCorpusSource, splits off a
 * held-out set and builds the model and trainer (warm-up: one round).
 * The measured phase calls Trainer::Train in rounds of a few steps, each
 * round over a fresh shuffle of the training split. Afterwards the
 * held-out set is evaluated on every head; that pass is timed as the
 * inference rate (items_per_s), the paper's Table 10 pairing of training
 * and inference throughput.
 *
 * Checks: the training loss falls, and every head's held-out MAPE beats
 * the best constant predictor on the same labels.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dataset/block_source.h"
#include "dataset/corpus_io.h"
#include "dataset/dataset.h"
#include "graph/vocabulary.h"
#include "probes.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace dataset = granite::dataset;

/** 12,000 blocks: three 4096-record shards, well inside the default
 * 8-shard window, so the dataset layer stays off the critical path. */
constexpr std::size_t kCorpusBlocks = 12000;
constexpr double kTrainFraction = 0.95;
constexpr int kBatchSize = 100;
constexpr int kRoundSteps = 5;
/** Reference-host step rate that sizes the measured phase (OpsFor). */
constexpr double kStepsPerSecond = 7.5;
/** Steps trained before the accuracy check even when the measured phase
 * is shorter, so the check does not depend on the host's speed. */
constexpr int kMinSteps = 40;
/** Losses averaged at each end of the run for the "loss falls" check. */
constexpr std::size_t kLossWindow = 10;

/** Timestamps the training closures record. In an untraced run only the
 * forward start of each step is taken (one clock read per step). */
struct StepProbe {
  bool traced = false;
  std::vector<Clock::time_point> forward_starts;
  TimeCounter prepare;
  TimeCounter encode;
  TimeCounter forward;
  bool preparing = false;
  Clock::time_point prepare_start;
};

/** Marks the start of batch preparation: the trainer's first sample
 * lookup of a step (traced runs only). */
class PrepareProbe final : public dataset::BlockSource {
 public:
  PrepareProbe(const dataset::BlockSource* base, StepProbe* probe)
      : base_(base), probe_(probe) {}
  std::size_t size() const override { return base_->size(); }
  dataset::SampleView Get(std::size_t index) const override {
    if (!probe_->preparing) {
      probe_->preparing = true;
      probe_->prepare_start = Clock::now();
    }
    return base_->Get(index);
  }

 private:
  const dataset::BlockSource* base_;
  StepProbe* probe_;
};

struct TrainState {
  std::unique_ptr<dataset::StreamingCorpusSource> corpus;
  const TimedCorpusSource* timed_corpus = nullptr;
  std::vector<std::size_t> train_indices;
  std::unique_ptr<dataset::SubsetBlockSource> heldout;
  std::unique_ptr<granite::graph::Vocabulary> vocabulary;
  std::unique_ptr<granite::core::GraniteModel> model;
  std::unique_ptr<granite::train::Trainer> trainer;
  std::unique_ptr<StepProbe> probe;
};

granite::train::TrainerConfig RoundConfig(std::uint64_t seed) {
  granite::train::TrainerConfig config = BenchTrainerConfig(seed);
  config.num_steps = kRoundSteps;
  return config;
}

/** Builds everything the measured phase uses (timed as setup_s). */
std::unique_ptr<TrainState> SetUp(const Options& options, bool traced) {
  auto state = std::make_unique<TrainState>();
  const std::string path = options.workdir + "/train_corpus.gbc";

  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = kCorpusBlocks;
  synthesis.seed = options.seed;
  float decoder_bias = 0.0f;
  {
    const dataset::Dataset data = dataset::SynthesizeDataset(synthesis);
    decoder_bias = DecoderBias(data);
    dataset::SaveCorpus(data, path, synthesis.tool, synthesis.seed);
  }

  if (traced) {
    auto timed = std::make_unique<TimedCorpusSource>(path);
    state->timed_corpus = timed.get();
    state->corpus = std::move(timed);
  } else {
    state->corpus = std::make_unique<dataset::StreamingCorpusSource>(path);
  }
  dataset::IndexSplit split =
      dataset::SplitIndices(state->corpus->size(), kTrainFraction,
                            options.seed);
  state->train_indices = std::move(split.first);
  state->heldout = std::make_unique<dataset::SubsetBlockSource>(
      state->corpus.get(), std::move(split.second));

  state->vocabulary = std::make_unique<granite::graph::Vocabulary>(
      granite::graph::Vocabulary::CreateDefault());
  state->model = std::make_unique<granite::core::GraniteModel>(
      state->vocabulary.get(), BenchModelConfig(decoder_bias));
  state->probe = std::make_unique<StepProbe>();
  state->probe->traced = traced;

  granite::core::GraniteModel* model = state->model.get();
  StepProbe* probe = state->probe.get();
  state->trainer = std::make_unique<granite::train::Trainer>(
      [model](granite::ml::Tape& tape,
              const std::vector<const granite::assembly::BasicBlock*>&
                  blocks) {
        return model->ForwardGraphsOrBlocks(tape, &blocks, nullptr);
      },
      &model->parameters(), RoundConfig(options.seed));
  state->trainer->SetGraphPath(
      [model, probe](granite::ml::Tape& tape,
                     const granite::graph::BatchedGraph& batch) {
        const Clock::time_point start = Clock::now();
        probe->forward_starts.push_back(start);
        std::vector<granite::ml::Var> outputs =
            model->ForwardGraphsOrBlocks(tape, nullptr, &batch);
        if (probe->traced) probe->forward.Add(start, Clock::now());
        return outputs;
      },
      [model, probe](
          const std::vector<const granite::assembly::BasicBlock*>& blocks) {
        if (!probe->traced) return model->EncodeBlocks(blocks);
        const Clock::time_point start = Clock::now();
        if (probe->preparing) {
          probe->prepare.Add(probe->prepare_start, start);
          probe->preparing = false;
        }
        granite::graph::BatchedGraph graph = model->EncodeBlocks(blocks);
        probe->encode.Add(start, Clock::now());
        return graph;
      });
  return state;
}

/** One round of training over a fresh shuffle of the training split. */
granite::train::TrainingResult TrainRound(TrainState& state,
                                          std::uint64_t seed, int round) {
  std::vector<std::size_t> indices = state.train_indices;
  std::mt19937_64 rng(seed * 1000003u + static_cast<std::uint64_t>(round));
  std::shuffle(indices.begin(), indices.end(), rng);
  const dataset::SubsetBlockSource view(state.corpus.get(),
                                        std::move(indices));
  const dataset::SubsetBlockSource no_validation(state.corpus.get(), {});
  if (!state.probe->traced) {
    return state.trainer->Train(view, no_validation);
  }
  const PrepareProbe probed(&view, state.probe.get());
  return state.trainer->Train(probed, no_validation);
}

/** MAPE of the best constant predictor: the weighted median of the
 * labels with weights 1/label minimizes sum |label - c| / label. */
double BestConstantMape(std::vector<double> labels) {
  std::sort(labels.begin(), labels.end());
  double total_weight = 0.0;
  for (const double label : labels) total_weight += 1.0 / label;
  double cumulative = 0.0;
  double constant = labels.back();
  for (const double label : labels) {
    cumulative += 1.0 / label;
    if (cumulative >= total_weight / 2.0) {
      constant = label;
      break;
    }
  }
  double error = 0.0;
  for (const double label : labels) {
    error += std::abs(label - constant) / label;
  }
  return error / static_cast<double>(labels.size());
}

double Mean(const std::vector<double>& values, std::size_t begin,
            std::size_t end) {
  return std::accumulate(values.begin() + begin, values.begin() + end, 0.0) /
         static_cast<double>(end - begin);
}

}  // namespace

Outcome RunTrainB100(const Options& options, const TimingBackend* kernels) {
  Outcome outcome;
  const bool traced = kernels != nullptr;
  if (traced) AddLayerDefaults(outcome);

  std::unique_ptr<TrainState> state;
  const double setup_s = TimedSetup([&] {
    state = SetUp(options, traced);
    TrainRound(*state, options.seed, /*round=*/-1);  // Warm-up.
  });
  StepProbe& probe = *state->probe;
  probe.forward_starts.clear();
  const double prepare_ms_before = probe.prepare.ms();
  const double encode_ms_before = probe.encode.ms();
  const double forward_ms_before = probe.forward.ms();

  const KernelTotals kernels_before =
      traced ? kernels->Totals() : KernelTotals{};
  const std::size_t loads_before = state->corpus->shard_loads();
  const double load_ms_before =
      traced ? state->timed_corpus->shard_loads_timed().ms() : 0.0;
  const std::uint64_t faults_before = MinorFaults();
  std::vector<double> losses;
  const int rounds = OpsFor(options, kStepsPerSecond / kRoundSteps);
  const Clock::time_point start = Clock::now();
  int round = 0;
  while (round < rounds) {
    const granite::train::TrainingResult result =
        TrainRound(*state, options.seed, round++);
    for (const auto& [step, loss] : result.loss_history) {
      losses.push_back(loss);
    }
  }
  const Clock::time_point end = Clock::now();
  const std::uint64_t faults = MinorFaults() - faults_before;
  const std::size_t steps = probe.forward_starts.size();
  outcome.attempted += steps;

  std::vector<double> step_ms;
  for (std::size_t i = 0; i < steps; ++i) {
    const Clock::time_point next =
        i + 1 < steps ? probe.forward_starts[i + 1] : end;
    step_ms.push_back(MsBetween(probe.forward_starts[i], next));
  }
  const double seconds = SecondsBetween(start, end);
  const double mean_step_ms = seconds * 1e3 / static_cast<double>(steps);

  if (traced) {
    const KernelTotals phase = kernels->Totals().Since(kernels_before);
    const double n = static_cast<double>(steps);
    const double prepare_ms = (probe.prepare.ms() - prepare_ms_before) / n;
    const double encode_ms = (probe.encode.ms() - encode_ms_before) / n;
    const double forward_ms = (probe.forward.ms() - forward_ms_before) / n;
    const double backward_update_ms =
        mean_step_ms - prepare_ms - encode_ms - forward_ms;
    AddKernelLayers(outcome, phase,
                    (forward_ms + backward_update_ms) * n, faults, n);
    SetLayer(outcome, "dataset.prepare_ms", prepare_ms);
    SetLayer(outcome, "graph.encode_ms", encode_ms);
    SetLayer(outcome, "core.forward_ms", forward_ms);
    SetLayer(outcome, "train.backward_update_ms", backward_update_ms);
    SetLayer(outcome, "train.step_ms", mean_step_ms);
    SetLayer(outcome, "dataset.shard_loads",
             static_cast<double>(state->corpus->shard_loads() -
                                 loads_before) /
                 n);
    SetLayer(outcome, "dataset.shard_load_ms",
             (state->timed_corpus->shard_loads_timed().ms() -
              load_ms_before) /
                 n);
  }

  // Top up short runs so the checks see a comparable model.
  while (static_cast<int>(probe.forward_starts.size()) < kMinSteps) {
    const granite::train::TrainingResult result =
        TrainRound(*state, options.seed, round++);
    for (const auto& [step, loss] : result.loss_history) {
      losses.push_back(loss);
    }
  }

  // Held-out evaluation on every head: the inference rate and the
  // accuracy check.
  const Clock::time_point eval_start = Clock::now();
  std::vector<double> mape;
  for (std::size_t task = 0; task < BenchTasks().size(); ++task) {
    mape.push_back(
        state->trainer->EvaluateTask(*state->heldout, static_cast<int>(task))
            .mape);
  }
  const double eval_s = SecondsBetween(eval_start, Clock::now());
  const double eval_blocks =
      static_cast<double>(state->heldout->size() * BenchTasks().size());

  outcome.Check(losses.size() >= 2 * kLossWindow,
                "train_b100: too few steps to judge the loss");
  if (losses.size() >= 2 * kLossWindow) {
    const double first = Mean(losses, 0, kLossWindow);
    const double last =
        Mean(losses, losses.size() - kLossWindow, losses.size());
    std::fprintf(stderr, "train_b100: loss %.4f -> %.4f over %zu steps\n",
                 first, last, losses.size());
    outcome.Check(last < first, "train_b100: training loss did not fall");
  }
  for (std::size_t task = 0; task < BenchTasks().size(); ++task) {
    const double baseline = BestConstantMape(
        state->heldout->Throughputs(BenchTasks()[task]));
    std::fprintf(stderr,
                 "train_b100: head %zu held-out MAPE %.1f%% (best constant "
                 "%.1f%%)\n",
                 task, mape[task] * 100.0, baseline * 100.0);
    outcome.Check(mape[task] < baseline,
                  "train_b100: head " + std::to_string(task) +
                      " does not beat the best constant predictor");
  }

  outcome.end_to_end["setup_s"] = {setup_s, "s"};
  outcome.end_to_end["blocks_per_s"] = {
      static_cast<double>(steps * kBatchSize) / seconds, "blocks/s"};
  outcome.end_to_end["op_ms_p50"] = {Median(step_ms), "ms"};
  outcome.end_to_end["items_per_s"] = {eval_blocks / eval_s, "items/s"};
  std::fprintf(stderr,
               "train_b100: %zu steps in %.2fs, step p50 %.1f ms, eval "
               "%.0f blocks/s\n",
               steps, seconds, Median(step_ms), eval_blocks / eval_s);
  return outcome;
}

}  // namespace perfbench
