#include "ml/kernels/optimized_backend.h"

#include <algorithm>

namespace granite::ml {
namespace {

// Micro-kernel tile sizes. kMr rows of the output are computed at once
// against kNr-column slivers of B, so each B row load is reused kMr times
// and the kMr x kNr accumulator block lives in vector registers across the
// whole k loop (4 x 16 floats = 8 AVX2 registers, leaving room for the
// broadcast A values and the B sliver).
constexpr int kMr = 4;
constexpr int kNr = 16;
// k-blocking keeps the active B panel (kKc rows x kNr columns of cache
// lines) resident in L1/L2 while it is swept once per output row tile.
constexpr int kKc = 256;

}  // namespace

const char* OptimizedBackend::name() const { return "optimized"; }

void OptimizedBackend::DoMatMulAcc(const Tensor& a, const Tensor& b,
                                   Tensor& out) const {
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  const int n_main = n - n % kNr;
  for (int p0 = 0; p0 < k; p0 += kKc) {
    const int p1 = std::min(p0 + kKc, k);
    int i = 0;
    for (; i + kMr <= m; i += kMr) {
      const float* __restrict__ a0 = a.row_data(i + 0);
      const float* __restrict__ a1 = a.row_data(i + 1);
      const float* __restrict__ a2 = a.row_data(i + 2);
      const float* __restrict__ a3 = a.row_data(i + 3);
      float* __restrict__ o0 = out.row_data(i + 0);
      float* __restrict__ o1 = out.row_data(i + 1);
      float* __restrict__ o2 = out.row_data(i + 2);
      float* __restrict__ o3 = out.row_data(i + 3);
      for (int j0 = 0; j0 < n_main; j0 += kNr) {
        float acc0[kNr], acc1[kNr], acc2[kNr], acc3[kNr];
#pragma omp simd
        for (int jj = 0; jj < kNr; ++jj) {
          acc0[jj] = 0.0f;
          acc1[jj] = 0.0f;
          acc2[jj] = 0.0f;
          acc3[jj] = 0.0f;
        }
        for (int p = p0; p < p1; ++p) {
          const float* __restrict__ b_row = b.row_data(p) + j0;
          const float v0 = a0[p];
          const float v1 = a1[p];
          const float v2 = a2[p];
          const float v3 = a3[p];
#pragma omp simd
          for (int jj = 0; jj < kNr; ++jj) {
            const float bv = b_row[jj];
            acc0[jj] += v0 * bv;
            acc1[jj] += v1 * bv;
            acc2[jj] += v2 * bv;
            acc3[jj] += v3 * bv;
          }
        }
#pragma omp simd
        for (int jj = 0; jj < kNr; ++jj) {
          o0[j0 + jj] += acc0[jj];
          o1[j0 + jj] += acc1[jj];
          o2[j0 + jj] += acc2[jj];
          o3[j0 + jj] += acc3[jj];
        }
      }
      // Column remainder: axpy over the trailing n % kNr columns.
      if (n_main < n) {
        for (int p = p0; p < p1; ++p) {
          const float* __restrict__ b_row = b.row_data(p);
          const float v0 = a0[p];
          const float v1 = a1[p];
          const float v2 = a2[p];
          const float v3 = a3[p];
#pragma omp simd
          for (int j = n_main; j < n; ++j) {
            const float bv = b_row[j];
            o0[j] += v0 * bv;
            o1[j] += v1 * bv;
            o2[j] += v2 * bv;
            o3[j] += v3 * bv;
          }
        }
      }
    }
    // Row remainder: plain vectorized axpy rows.
    for (; i < m; ++i) {
      const float* __restrict__ a_row = a.row_data(i);
      float* __restrict__ o_row = out.row_data(i);
      for (int p = p0; p < p1; ++p) {
        const float v = a_row[p];
        const float* __restrict__ b_row = b.row_data(p);
#pragma omp simd
        for (int j = 0; j < n; ++j) o_row[j] += v * b_row[j];
      }
    }
  }
}

void OptimizedBackend::DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                                             Tensor& out) const {
  const int k = a.rows();
  const int m = a.cols();
  const int n = b.cols();
  // Rank-1 update structure: for every p, out[i] += A[p,i] * B[p,:]. The
  // i tile of kMr output rows reuses each B row load kMr times, exactly
  // like the plain kernel, with A read column-wise (stride a.cols()).
  int i = 0;
  for (; i + kMr <= m; i += kMr) {
    float* __restrict__ o0 = out.row_data(i + 0);
    float* __restrict__ o1 = out.row_data(i + 1);
    float* __restrict__ o2 = out.row_data(i + 2);
    float* __restrict__ o3 = out.row_data(i + 3);
    for (int p = 0; p < k; ++p) {
      const float* __restrict__ a_row = a.row_data(p);
      const float* __restrict__ b_row = b.row_data(p);
      const float v0 = a_row[i + 0];
      const float v1 = a_row[i + 1];
      const float v2 = a_row[i + 2];
      const float v3 = a_row[i + 3];
      if (v0 == 0.0f && v1 == 0.0f && v2 == 0.0f && v3 == 0.0f) continue;
#pragma omp simd
      for (int j = 0; j < n; ++j) {
        const float bv = b_row[j];
        o0[j] += v0 * bv;
        o1[j] += v1 * bv;
        o2[j] += v2 * bv;
        o3[j] += v3 * bv;
      }
    }
  }
  for (; i < m; ++i) {
    float* __restrict__ o_row = out.row_data(i);
    for (int p = 0; p < k; ++p) {
      const float v = a.row_data(p)[i];
      if (v == 0.0f) continue;
      const float* __restrict__ b_row = b.row_data(p);
#pragma omp simd
      for (int j = 0; j < n; ++j) o_row[j] += v * b_row[j];
    }
  }
}

void OptimizedBackend::DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                                             Tensor& out) const {
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();
  // Dot-product structure: out[i,j] += <A row i, B row j>. Tiling j by 4
  // reuses each A row load four times; each dot product vectorizes as a
  // SIMD reduction.
  for (int i = 0; i < m; ++i) {
    const float* __restrict__ a_row = a.row_data(i);
    float* __restrict__ o_row = out.row_data(i);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* __restrict__ b0 = b.row_data(j + 0);
      const float* __restrict__ b1 = b.row_data(j + 1);
      const float* __restrict__ b2 = b.row_data(j + 2);
      const float* __restrict__ b3 = b.row_data(j + 3);
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
#pragma omp simd reduction(+ : s0, s1, s2, s3)
      for (int p = 0; p < k; ++p) {
        const float av = a_row[p];
        s0 += av * b0[p];
        s1 += av * b1[p];
        s2 += av * b2[p];
        s3 += av * b3[p];
      }
      o_row[j + 0] += s0;
      o_row[j + 1] += s1;
      o_row[j + 2] += s2;
      o_row[j + 3] += s3;
    }
    for (; j < n; ++j) {
      const float* __restrict__ b_row = b.row_data(j);
      float sum = 0.0f;
#pragma omp simd reduction(+ : sum)
      for (int p = 0; p < k; ++p) sum += a_row[p] * b_row[p];
      o_row[j] += sum;
    }
  }
}

}  // namespace granite::ml
