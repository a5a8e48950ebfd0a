/**
 * @file
 * The optimized kernel backend: the MatMul products (MatMulAcc and both
 * transposed variants) as cache-blocked, register-tiled, transpose-aware
 * micro-kernels with vectorizable (`#pragma omp simd`) inner loops. It is
 * the process default.
 *
 * Every other op is inherited from ReferenceBackend, which holds the
 * single implementation of each non-MatMul kernel, so those ops give the
 * same bits on every backend. The inherited LinearBias seeds the bias and
 * then calls this backend's MatMulAcc. The tiled products may differ from the
 * reference's naive loops by floating-point reassociation only;
 * tests/kernels_test.cc holds them to a tolerance across odd, prime and
 * blocked shapes that reach every remainder path of the tiles.
 */
#ifndef GRANITE_ML_KERNELS_OPTIMIZED_BACKEND_H_
#define GRANITE_ML_KERNELS_OPTIMIZED_BACKEND_H_

#include "ml/kernels/reference_backend.h"

namespace granite::ml {

/** Blocked/SIMD MatMul family; stateless and thread-safe. */
class OptimizedBackend : public ReferenceBackend {
 public:
  const char* name() const override;

 protected:
  void DoMatMulAcc(const Tensor& a, const Tensor& b,
                   Tensor& out) const override;
  void DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                             Tensor& out) const override;
  void DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                             Tensor& out) const override;
};

}  // namespace granite::ml

#endif  // GRANITE_ML_KERNELS_OPTIMIZED_BACKEND_H_
