/**
 * @file
 * The benchmark's workloads and what they share: the one GRANITE
 * configuration every workload runs, and the per-layer metric table a
 * traced run fills in.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "core/granite_model.h"
#include "dataset/dataset.h"
#include "probes.h"
#include "report.h"
#include "train/trainer.h"
#include "uarch/microarchitecture.h"

namespace perfbench {

/**
 * Runs one workload. `kernels` is the installed kernel probe in a traced
 * run and null otherwise; a traced workload also installs its own
 * module probes and fills Outcome::layers.
 */
using WorkloadFn = Outcome (*)(const Options& options,
                               const TimingBackend* kernels);

Outcome RunTrainB100(const Options& options, const TimingBackend* kernels);
Outcome RunServeOpen(const Options& options, const TimingBackend* kernels);
Outcome RunAutotuneBeam(const Options& options, const TimingBackend* kernels);
Outcome RunImportStream(const Options& options, const TimingBackend* kernels);

/**
 * The GRANITE configuration of every workload: embedding 32, four
 * message-passing iterations, three task heads (the paper's multi-task
 * setting). Large enough that kernels dominate a step, unlike the
 * embedding-8 single-iteration model of the autotuner bench.
 */
granite::core::GraniteConfig BenchModelConfig(float decoder_bias);

/** Trainer settings shared by train_b100 and the served bundle: batch
 * 100, MAPE loss, Adam at 3e-3, targets scaled to cycles per iteration,
 * one worker, no validation. `num_steps` is the caller's. */
granite::train::TrainerConfig BenchTrainerConfig(std::uint64_t seed);

/** Initial decoder output bias that makes the untrained model predict
 * the mean label of `data`: mean target / mean block length. */
float DecoderBias(const granite::dataset::Dataset& data);

/** The task heads, in head order. */
const std::vector<granite::uarch::Microarchitecture>& BenchTasks();

/** Adds every per-layer metric at 0: a layer a workload does not
 * exercise, or cannot separate, reports 0. */
void AddLayerDefaults(Outcome& outcome);

/** Per-operation kernel metrics (time per family, calls, time outside
 * kernels) and minor page faults over a measured phase of `ops`
 * operations. `kernels` holds the phase's kernel totals (after minus
 * before); `model_ms` is the time spent inside the timed model calls, of
 * which everything not in a kernel is charged to the tape. */
void AddKernelLayers(Outcome& outcome, const KernelTotals& kernels,
                     double model_ms, std::uint64_t faults, double ops);

/** Sets a per-layer metric (which must be in the default table). */
void SetLayer(Outcome& outcome, const char* name, double value);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
