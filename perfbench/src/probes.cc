#include "probes.h"

#include <exception>
#include <utility>

namespace perfbench {

using granite::ml::BinaryOp;
using granite::ml::Tensor;
using granite::ml::UnaryOp;

template <typename Call>
auto TimingBackend::Timed(KernelFamily family, Call&& call) const {
  const Clock::time_point begin = Clock::now();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    families_[static_cast<int>(family)].Add(begin, Clock::now());
  } else {
    auto result = call();
    families_[static_cast<int>(family)].Add(begin, Clock::now());
    return result;
  }
}

double KernelTotals::total_ms() const {
  double total = 0.0;
  for (const double family_ms : ms) total += family_ms;
  return total;
}

KernelTotals KernelTotals::Since(const KernelTotals& before) const {
  KernelTotals delta;
  for (int i = 0; i < kNumKernelFamilies; ++i) {
    delta.ms[i] = ms[i] - before.ms[i];
  }
  delta.calls = calls - before.calls;
  return delta;
}

KernelTotals TimingBackend::Totals() const {
  KernelTotals totals;
  for (int i = 0; i < kNumKernelFamilies; ++i) {
    totals.ms[i] = families_[i].ms();
    totals.calls += families_[i].events();
  }
  return totals;
}

void TimingBackend::DoMatMulAcc(const Tensor& a, const Tensor& b,
                                Tensor& out) const {
  Timed(KernelFamily::kMatMul, [&] { inner_->MatMulAcc(a, b, out); });
}

void TimingBackend::DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                                          Tensor& out) const {
  Timed(KernelFamily::kMatMul,
        [&] { inner_->MatMulTransposeAAcc(a, b, out); });
}

void TimingBackend::DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                                          Tensor& out) const {
  Timed(KernelFamily::kMatMul,
        [&] { inner_->MatMulTransposeBAcc(a, b, out); });
}

void TimingBackend::DoLinearBias(const Tensor& a, const Tensor& w,
                                 const Tensor& bias, Tensor& out) const {
  Timed(KernelFamily::kMatMul, [&] { inner_->LinearBias(a, w, bias, out); });
}

void TimingBackend::DoBinaryPointwise(BinaryOp op, const Tensor& a,
                                      const Tensor& b, Tensor& out) const {
  Timed(KernelFamily::kPointwise,
        [&] { inner_->BinaryPointwise(op, a, b, out); });
}

void TimingBackend::DoScaleInto(const Tensor& a, float factor,
                                Tensor& out) const {
  Timed(KernelFamily::kPointwise, [&] { inner_->ScaleInto(a, factor, out); });
}

void TimingBackend::DoAddScalarInto(const Tensor& a, float constant,
                                    Tensor& out) const {
  Timed(KernelFamily::kPointwise,
        [&] { inner_->AddScalarInto(a, constant, out); });
}

void TimingBackend::DoAccumulateAdd(const Tensor& a, Tensor& out) const {
  Timed(KernelFamily::kPointwise, [&] { inner_->AccumulateAdd(a, out); });
}

void TimingBackend::DoAccumulateScaled(const Tensor& a, float factor,
                                       Tensor& out) const {
  Timed(KernelFamily::kPointwise,
        [&] { inner_->AccumulateScaled(a, factor, out); });
}

void TimingBackend::DoAccumulateMul(const Tensor& a, const Tensor& b,
                                    Tensor& out) const {
  Timed(KernelFamily::kPointwise, [&] { inner_->AccumulateMul(a, b, out); });
}

void TimingBackend::DoAccumulateConstant(float constant, Tensor& out) const {
  Timed(KernelFamily::kPointwise,
        [&] { inner_->AccumulateConstant(constant, out); });
}

void TimingBackend::DoUnaryForward(UnaryOp op, const Tensor& in, Tensor& out,
                                   float param) const {
  Timed(KernelFamily::kPointwise,
        [&] { inner_->UnaryForward(op, in, out, param); });
}

void TimingBackend::DoAccumulateUnaryGrad(UnaryOp op, const Tensor& input,
                                          const Tensor& output,
                                          const Tensor& out_grad,
                                          Tensor& in_grad,
                                          float param) const {
  Timed(KernelFamily::kPointwise, [&] {
    inner_->AccumulateUnaryGrad(op, input, output, out_grad, in_grad, param);
  });
}

void TimingBackend::DoAddRowBroadcastInto(const Tensor& a, const Tensor& bias,
                                          Tensor& out) const {
  Timed(KernelFamily::kPointwise,
        [&] { inner_->AddRowBroadcastInto(a, bias, out); });
}

void TimingBackend::DoAccumulateColumnSums(const Tensor& a,
                                           Tensor& out_row) const {
  Timed(KernelFamily::kPointwise,
        [&] { inner_->AccumulateColumnSums(a, out_row); });
}

void TimingBackend::DoMulColumnBroadcastInto(const Tensor& a,
                                             const Tensor& column,
                                             Tensor& out) const {
  Timed(KernelFamily::kPointwise,
        [&] { inner_->MulColumnBroadcastInto(a, column, out); });
}

void TimingBackend::DoAccumulateMulColumnBroadcast(const Tensor& a,
                                                   const Tensor& column,
                                                   Tensor& out) const {
  Timed(KernelFamily::kPointwise,
        [&] { inner_->AccumulateMulColumnBroadcast(a, column, out); });
}

void TimingBackend::DoAccumulateRowDots(const Tensor& a, const Tensor& b,
                                        Tensor& out_column) const {
  Timed(KernelFamily::kPointwise,
        [&] { inner_->AccumulateRowDots(a, b, out_column); });
}

double TimingBackend::DoSumAll(const Tensor& a) const {
  return Timed(KernelFamily::kPointwise, [&] { return inner_->SumAll(a); });
}

void TimingBackend::DoGatherRowsAcc(const Tensor& table,
                                    const std::vector<int>& indices,
                                    Tensor& out, int out_col_offset) const {
  Timed(KernelFamily::kGatherScatter, [&] {
    inner_->GatherRowsAcc(table, indices, out, out_col_offset);
  });
}

void TimingBackend::DoScatterAddRows(const Tensor& rows,
                                     const std::vector<int>& indices,
                                     Tensor& table,
                                     int rows_col_offset) const {
  Timed(KernelFamily::kGatherScatter, [&] {
    inner_->ScatterAddRows(rows, indices, table, rows_col_offset);
  });
}

void TimingBackend::DoAccumulateColumnBlock(const Tensor& src,
                                            int src_col_offset, Tensor& dest,
                                            int dest_col_offset,
                                            int num_cols) const {
  Timed(KernelFamily::kGatherScatter, [&] {
    inner_->AccumulateColumnBlock(src, src_col_offset, dest, dest_col_offset,
                                  num_cols);
  });
}

void TimingBackend::DoLayerNormForward(const Tensor& x, const Tensor& gain,
                                       const Tensor& bias, float epsilon,
                                       Tensor& out, Tensor& normalized,
                                       std::vector<float>& inv_stddev) const {
  Timed(KernelFamily::kLayerNormForward, [&] {
    inner_->LayerNormForward(x, gain, bias, epsilon, out, normalized,
                             inv_stddev);
  });
}

void TimingBackend::DoLayerNormBackward(const Tensor& out_grad,
                                        const Tensor& gain,
                                        const Tensor& normalized,
                                        const std::vector<float>& inv_stddev,
                                        Tensor* x_grad, Tensor* gain_grad,
                                        Tensor* bias_grad) const {
  Timed(KernelFamily::kLayerNormBackward, [&] {
    inner_->LayerNormBackward(out_grad, gain, normalized, inv_stddev, x_grad,
                              gain_grad, bias_grad);
  });
}

std::vector<std::vector<double>> TimedPredictor::ComputeBatchAllTasks(
    const std::vector<const granite::assembly::BasicBlock*>& blocks) const {
  const Clock::time_point begin = Clock::now();
  std::vector<std::vector<double>> result =
      inner_->PredictBatchAllTasks(blocks);
  batches_.Add(begin, Clock::now());
  batch_blocks_.fetch_add(blocks.size(), std::memory_order_relaxed);
  return result;
}

std::vector<std::optional<std::future<double>>> TimedCostClient::SubmitWave(
    const std::vector<const granite::assembly::BasicBlock*>& blocks) {
  const Clock::time_point begin = Clock::now();
  std::vector<std::optional<std::future<double>>> inner_futures =
      inner_->SubmitWave(blocks);
  std::vector<std::optional<std::future<double>>> ready(inner_futures.size());
  for (std::size_t i = 0; i < inner_futures.size(); ++i) {
    if (!inner_futures[i].has_value()) continue;  // Rejected stays rejected.
    std::promise<double> promise;
    ready[i] = promise.get_future();
    try {
      promise.set_value(inner_futures[i]->get());
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  waves_.Add(begin, Clock::now());
  return ready;
}

std::vector<granite::dataset::Sample> TimedCorpusSource::LoadShard(
    std::size_t shard_index) const {
  const Clock::time_point begin = Clock::now();
  std::vector<granite::dataset::Sample> shard =
      StreamingCorpusSource::LoadShard(shard_index);
  loads_.Add(begin, Clock::now());
  return shard;
}

}  // namespace perfbench
