/**
 * @file
 * Layer probes of the traced run. Each probe wraps one module's public
 * interface and times the calls that cross it, so the per-layer metrics
 * come from the benchmark's own code; nothing inside the library is
 * instrumented. Untraced runs install none of these.
 *
 * All probes are safe for concurrent use: counters are relaxed atomics
 * (the totals are read only after the measured phase has joined).
 */
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "autotune/search.h"
#include "dataset/corpus_io.h"
#include "ml/kernels/kernel_backend.h"
#include "model/throughput_predictor.h"
#include "report.h"

namespace perfbench {

/** A relaxed nanosecond + event counter pair. */
class TimeCounter {
 public:
  void Add(Clock::time_point begin, Clock::time_point end) {
    ns_.fetch_add(static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          end - begin)
                          .count()),
                  std::memory_order_relaxed);
    events_.fetch_add(1, std::memory_order_relaxed);
  }
  double ms() const {
    return static_cast<double>(ns_.load(std::memory_order_relaxed)) / 1e6;
  }
  std::uint64_t events() const {
    return events_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> ns_{0};
  std::atomic<std::uint64_t> events_{0};
};

/** Kernel families the kernel probe reports separately. */
enum class KernelFamily {
  kMatMul,
  kLayerNormForward,
  kLayerNormBackward,
  /** Row gather, scatter-add / segment sum, column-block concat. */
  kGatherScatter,
  /** Element-wise maps, broadcasts and reductions. */
  kPointwise,
};
inline constexpr int kNumKernelFamilies = 5;

/** Kernel time per family and call count, as totals since start. */
struct KernelTotals {
  std::array<double, kNumKernelFamilies> ms{};
  std::uint64_t calls = 0;

  double total_ms() const;
  /** Per-family difference `*this - before` (a phase's share). */
  KernelTotals Since(const KernelTotals& before) const;
};

/**
 * Kernel-layer probe: a KernelBackend that forwards every op to the
 * wrapped backend through its public interface and times the call.
 * Installed with ml::SetDefaultKernelBackend before any model or
 * trainer is built, so every tape of the traced run records through it.
 */
class TimingBackend final : public granite::ml::KernelBackend {
 public:
  explicit TimingBackend(const granite::ml::KernelBackend* inner)
      : inner_(inner) {}

  const char* name() const override { return "timing"; }

  /** Kernel time and calls so far. */
  KernelTotals Totals() const;

 protected:
  using Tensor = granite::ml::Tensor;
  using UnaryOp = granite::ml::UnaryOp;
  using BinaryOp = granite::ml::BinaryOp;

  void DoMatMulAcc(const Tensor& a, const Tensor& b,
                   Tensor& out) const override;
  void DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                             Tensor& out) const override;
  void DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                             Tensor& out) const override;
  void DoLinearBias(const Tensor& a, const Tensor& w, const Tensor& bias,
                    Tensor& out) const override;
  void DoBinaryPointwise(BinaryOp op, const Tensor& a, const Tensor& b,
                         Tensor& out) const override;
  void DoScaleInto(const Tensor& a, float factor, Tensor& out) const override;
  void DoAddScalarInto(const Tensor& a, float constant,
                       Tensor& out) const override;
  void DoAccumulateAdd(const Tensor& a, Tensor& out) const override;
  void DoAccumulateScaled(const Tensor& a, float factor,
                          Tensor& out) const override;
  void DoAccumulateMul(const Tensor& a, const Tensor& b,
                       Tensor& out) const override;
  void DoAccumulateConstant(float constant, Tensor& out) const override;
  void DoUnaryForward(UnaryOp op, const Tensor& in, Tensor& out,
                      float param) const override;
  void DoAccumulateUnaryGrad(UnaryOp op, const Tensor& input,
                             const Tensor& output, const Tensor& out_grad,
                             Tensor& in_grad, float param) const override;
  void DoAddRowBroadcastInto(const Tensor& a, const Tensor& bias,
                             Tensor& out) const override;
  void DoAccumulateColumnSums(const Tensor& a, Tensor& out_row) const override;
  void DoMulColumnBroadcastInto(const Tensor& a, const Tensor& column,
                                Tensor& out) const override;
  void DoAccumulateMulColumnBroadcast(const Tensor& a, const Tensor& column,
                                      Tensor& out) const override;
  void DoAccumulateRowDots(const Tensor& a, const Tensor& b,
                           Tensor& out_column) const override;
  double DoSumAll(const Tensor& a) const override;
  void DoGatherRowsAcc(const Tensor& table, const std::vector<int>& indices,
                       Tensor& out, int out_col_offset) const override;
  void DoScatterAddRows(const Tensor& rows, const std::vector<int>& indices,
                        Tensor& table, int rows_col_offset) const override;
  void DoAccumulateColumnBlock(const Tensor& src, int src_col_offset,
                               Tensor& dest, int dest_col_offset,
                               int num_cols) const override;
  void DoLayerNormForward(const Tensor& x, const Tensor& gain,
                          const Tensor& bias, float epsilon, Tensor& out,
                          Tensor& normalized,
                          std::vector<float>& inv_stddev) const override;
  void DoLayerNormBackward(const Tensor& out_grad, const Tensor& gain,
                           const Tensor& normalized,
                           const std::vector<float>& inv_stddev,
                           Tensor* x_grad, Tensor* gain_grad,
                           Tensor* bias_grad) const override;

 private:
  /** Runs `call` and charges its duration to `family`. */
  template <typename Call>
  auto Timed(KernelFamily family, Call&& call) const;

  const granite::ml::KernelBackend* inner_;
  mutable std::array<TimeCounter, kNumKernelFamilies> families_;
};

/**
 * Model-layer probe: a ThroughputPredictor that serves through the
 * wrapped model and times each uncached batched forward. The wrapped
 * model must have its own prediction cache off; caching and
 * deduplication happen in this wrapper's inherited PredictBatchAllTasks,
 * exactly as they would in the wrapped model.
 */
class TimedPredictor final : public granite::model::ThroughputPredictor {
 public:
  explicit TimedPredictor(granite::model::ThroughputPredictor* inner)
      : inner_(inner) {}

  /** Uncached batched forwards (events) and their time. */
  const TimeCounter& batches() const { return batches_; }
  /** Blocks those forwards evaluated. */
  std::uint64_t batch_blocks() const {
    return batch_blocks_.load(std::memory_order_relaxed);
  }

  std::vector<granite::ml::Var> ForwardGraphsOrBlocks(
      granite::ml::Tape& tape,
      const std::vector<const granite::assembly::BasicBlock*>* blocks,
      const granite::graph::BatchedGraph* graph) const override {
    return inner_->ForwardGraphsOrBlocks(tape, blocks, graph);
  }
  std::vector<double> Predict(
      const std::vector<const granite::assembly::BasicBlock*>& blocks,
      int task) const override {
    return inner_->Predict(blocks, task);
  }
  int num_tasks() const override { return inner_->num_tasks(); }
  granite::ml::ParameterStore& parameters() override {
    return inner_->parameters();
  }
  const granite::ml::ParameterStore& parameters() const override {
    return inner_->parameters();
  }
  const granite::graph::Vocabulary& vocabulary() const override {
    return inner_->vocabulary();
  }
  granite::model::ModelKind kind() const override { return inner_->kind(); }
  std::string DescribeConfig() const override {
    return inner_->DescribeConfig();
  }
  bool SupportsGraphEncoding() const override {
    return inner_->SupportsGraphEncoding();
  }
  granite::graph::BatchedGraph EncodeBlocks(
      const std::vector<const granite::assembly::BasicBlock*>& blocks)
      const override {
    return inner_->EncodeBlocks(blocks);
  }

 protected:
  std::vector<std::vector<double>> ComputeBatchAllTasks(
      const std::vector<const granite::assembly::BasicBlock*>& blocks)
      const override;

 private:
  granite::model::ThroughputPredictor* inner_;
  mutable TimeCounter batches_;
  mutable std::atomic<std::uint64_t> batch_blocks_{0};
};

/**
 * Autotune probe: a CostClient that submits each wave to the wrapped
 * client and waits for every score before returning (already-ready)
 * futures. BlockOptimizer waits for the whole wave before expanding the
 * next one, so the search order is unchanged; the probe splits each
 * Optimize() into time waiting for scores and time expanding.
 */
class TimedCostClient final : public granite::autotune::CostClient {
 public:
  explicit TimedCostClient(granite::autotune::CostClient* inner)
      : inner_(inner) {}

  std::vector<std::optional<std::future<double>>> SubmitWave(
      const std::vector<const granite::assembly::BasicBlock*>& blocks)
      override;

  /** Waves (events) and the time spent submitting and waiting. */
  const TimeCounter& waves() const { return waves_; }

 private:
  granite::autotune::CostClient* inner_;
  TimeCounter waves_;
};

/**
 * Dataset-layer probe: a StreamingCorpusSource that times every shard
 * materialization (read + parse of one shard of records).
 */
class TimedCorpusSource final : public granite::dataset::StreamingCorpusSource {
 public:
  using StreamingCorpusSource::StreamingCorpusSource;

  const TimeCounter& shard_loads_timed() const { return loads_; }

 protected:
  std::vector<granite::dataset::Sample> LoadShard(
      std::size_t shard_index) const override;

 private:
  mutable TimeCounter loads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
