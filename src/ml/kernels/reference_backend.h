/**
 * @file
 * The reference kernel backend. It owns two things:
 *  - the single implementation of every op outside the MatMul family
 *    (element-wise maps and their gradients, broadcasts, reductions,
 *    gather/scatter, column blocks, LayerNorm). OptimizedBackend and
 *    BlasBackend inherit these unchanged, so those ops give the same
 *    bits on every backend. The hot element-wise and row loops carry
 *    `#pragma omp simd`; none of them reorders a sum.
 *  - straightforward i-k-j / dot-product MatMul loops, kept as the
 *    correctness oracle that tests/kernels_test.cc holds the tiled and
 *    BLAS products against. LinearBias seeds the bias and calls the
 *    virtual MatMulAcc, so every backend shares it over its own product.
 */
#ifndef GRANITE_ML_KERNELS_REFERENCE_BACKEND_H_
#define GRANITE_ML_KERNELS_REFERENCE_BACKEND_H_

#include "ml/kernels/kernel_backend.h"

namespace granite::ml {

/** Naive MatMul oracle plus the shared non-MatMul kernels; stateless and
 * thread-safe. */
class ReferenceBackend : public KernelBackend {
 public:
  const char* name() const override { return "reference"; }

 protected:
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
};

}  // namespace granite::ml

#endif  // GRANITE_ML_KERNELS_REFERENCE_BACKEND_H_
