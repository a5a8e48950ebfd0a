#include "workloads.h"

#include <stdexcept>
#include <string>

namespace perfbench {
namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

/** Every per-layer metric of a traced run, each given per operation of
 * the workload (train step, open-phase request, Optimize() call, batch
 * draw) unless its unit says otherwise. */
constexpr LayerSpec kLayers[] = {
    {"ml.matmul_ms", "ms"},
    {"ml.layernorm_fwd_ms", "ms"},
    {"ml.layernorm_bwd_ms", "ms"},
    {"ml.gather_scatter_ms", "ms"},
    {"ml.pointwise_ms", "ms"},
    {"ml.kernel_calls", "count"},
    {"ml.tape_ms", "ms"},
    {"ml.minor_faults", "count"},
    {"graph.encode_ms", "ms"},
    {"core.forward_ms", "ms"},
    {"train.backward_update_ms", "ms"},
    {"train.step_ms", "ms"},
    {"model.batch_ms", "ms"},
    {"model.batch_blocks", "blocks"},
    {"model.cache_hit_rate", "ratio"},
    {"serve.queue_ms", "ms"},
    {"serve.batch_occupancy", "requests"},
    {"serve.deadline_flush_share", "ratio"},
    {"serve.generator_late_ms", "ms"},
    {"autotune.expand_ms", "ms"},
    {"autotune.score_wait_ms", "ms"},
    {"autotune.candidates_per_block", "count"},
    {"autotune.duplicate_share", "ratio"},
    {"asm.parse_us", "us"},
    {"dataset.prepare_ms", "ms"},
    {"dataset.shard_loads", "count"},
    {"dataset.shard_load_ms", "ms"},
};

/** Targets train as cycles per iteration (labels are per 100). */
constexpr double kTargetScale = 100.0;

}  // namespace

granite::core::GraniteConfig BenchModelConfig(float decoder_bias) {
  granite::core::GraniteConfig config =
      granite::core::GraniteConfig().WithEmbeddingSize(32);
  config.message_passing_iterations = 4;
  config.num_tasks = static_cast<int>(BenchTasks().size());
  config.decoder_output_bias_init = decoder_bias;
  return config;
}

granite::train::TrainerConfig BenchTrainerConfig(std::uint64_t seed) {
  granite::train::TrainerConfig config;
  config.batch_size = 100;
  config.eval_batch_size = 100;
  config.loss = granite::ml::LossFunction::kMeanAbsolutePercentageError;
  config.adam.learning_rate = 0.003f;
  config.target_scale = kTargetScale;
  config.tasks = BenchTasks();
  config.validation_every = 0;
  config.seed = seed;
  config.num_workers = 1;
  config.prefetch = false;
  return config;
}

float DecoderBias(const granite::dataset::Dataset& data) {
  double label_sum = 0.0;
  double instruction_sum = 0.0;
  for (const granite::dataset::Sample& sample : data.samples()) {
    for (const double label : sample.throughput) label_sum += label;
    instruction_sum += static_cast<double>(sample.block.size());
  }
  label_sum /= static_cast<double>(granite::uarch::kNumMicroarchitectures);
  return static_cast<float>(label_sum / kTargetScale / instruction_sum);
}

const std::vector<granite::uarch::Microarchitecture>& BenchTasks() {
  static const std::vector<granite::uarch::Microarchitecture> tasks = {
      granite::uarch::Microarchitecture::kIvyBridge,
      granite::uarch::Microarchitecture::kHaswell,
      granite::uarch::Microarchitecture::kSkylake,
  };
  return tasks;
}

void AddLayerDefaults(Outcome& outcome) {
  for (const LayerSpec& spec : kLayers) {
    outcome.layers[spec.name] = {0.0, spec.unit};
  }
}

void SetLayer(Outcome& outcome, const char* name, double value) {
  const auto it = outcome.layers.find(name);
  if (it == outcome.layers.end()) {
    throw std::logic_error(std::string("undeclared layer metric ") + name);
  }
  it->second.value = value;
}

void AddKernelLayers(Outcome& outcome, const KernelTotals& kernels,
                     double model_ms, std::uint64_t faults, double ops) {
  const auto per_op = [&](double total) { return ops > 0 ? total / ops : 0; };
  const auto family_ms = [&](KernelFamily family) {
    return per_op(kernels.ms[static_cast<int>(family)]);
  };
  SetLayer(outcome, "ml.matmul_ms", family_ms(KernelFamily::kMatMul));
  SetLayer(outcome, "ml.layernorm_fwd_ms",
           family_ms(KernelFamily::kLayerNormForward));
  SetLayer(outcome, "ml.layernorm_bwd_ms",
           family_ms(KernelFamily::kLayerNormBackward));
  SetLayer(outcome, "ml.gather_scatter_ms",
           family_ms(KernelFamily::kGatherScatter));
  SetLayer(outcome, "ml.pointwise_ms", family_ms(KernelFamily::kPointwise));
  SetLayer(outcome, "ml.kernel_calls",
           per_op(static_cast<double>(kernels.calls)));
  SetLayer(outcome, "ml.tape_ms", per_op(model_ms - kernels.total_ms()));
  SetLayer(outcome, "ml.minor_faults", per_op(static_cast<double>(faults)));
}

}  // namespace perfbench
