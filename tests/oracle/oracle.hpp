// Test-only oracle: the naive kernels and seed-layout layers that the
// production GEMM forms and layers are checked against, bit for bit.
//
// Everything here is the straightforward textbook loop nest on row-major
// (NCHW) tensors: naive triple-loop GEMMs, a row-major im2col/col2im
// conv, separate bias and LeakyReLU passes. The production kernels
// (nn/gemm.hpp) promise the same float operations in the same order for
// every output element — products added one at a time in ascending-k
// order onto a single chain — so their results must equal these to the
// last bit (memcmp, never a tolerance). This code never runs in the
// library; it exists so that one fast path can be kept without keeping
// an in-binary baseline next to it.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace sma::oracle {

// --- naive GEMMs (accumulate into C) -------------------------------------
//   gemm_nn: C[M,N] += A[M,K] * B[K,N]
//   gemm_tn: C[M,N] += A^T     * B[K,N]   (a stored [K, M])
//   gemm_nt: C[M,N] += A[M,K] * B^T       (b stored [N, K])
// nn and tn skip exact-zero A elements (as the seed kernels did); gemm_nt
// sums each dot product on a fresh chain and adds it to C once.
void gemm_nn(int m, int n, int k, const float* a, const float* b, float* c);
void gemm_tn(int m, int n, int k, const float* a, const float* b, float* c);
void gemm_nt(int m, int n, int k, const float* a, const float* b, float* c);

/// Elementwise LeakyReLU as a standalone layer: y = x for x >= 0, slope *
/// x otherwise; backward scales dy where the cached input was negative.
/// The fused activation epilogue of the production layers must match it.
class LeakyReLU {
 public:
  explicit LeakyReLU(float slope = 0.01f) : slope_(slope) {}
  nn::Tensor forward(const nn::Tensor& x);
  nn::Tensor backward(const nn::Tensor& dy);

 private:
  float slope_;
  nn::Tensor x_;
};

/// One layer's forward output and the gradients of one backward pass,
/// all row-major. dw/db accumulate from zero, like a fresh layer's.
struct LayerPass {
  nn::Tensor y;
  nn::Tensor dx;
  nn::Tensor dw;
  nn::Tensor db;
};

/// Linear: y = x w^T + b (+ LeakyReLU), x [rows, in], w [out, in],
/// b [out], dy [rows, out].
LayerPass linear(const nn::Tensor& x, const nn::Tensor& w,
                 const nn::Tensor& b, bool lrelu, float slope,
                 const nn::Tensor& dy);

/// 3x3 convolution, padding 1, the given stride (+ LeakyReLU), through a
/// row-major im2col [rows, patch]: x [n, c_in, h, w], w [out, c_in * 9],
/// b [out], dy [n, out, ho, wo] — every tensor row-major NCHW.
LayerPass conv2d(const nn::Tensor& x, const nn::Tensor& w,
                 const nn::Tensor& b, int stride, bool lrelu, float slope,
                 const nn::Tensor& dy);

}  // namespace sma::oracle
