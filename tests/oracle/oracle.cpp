#include "oracle/oracle.hpp"

#include <cstddef>
#include <stdexcept>

namespace sma::oracle {

using nn::Tensor;

void gemm_nn(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    float* ci = c + static_cast<std::size_t>(i) * n;
    const float* ai = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float av = ai[p];
      if (av == 0.0f) continue;
      const float* bp = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

void gemm_tn(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int p = 0; p < k; ++p) {
    const float* ap = a + static_cast<std::size_t>(p) * m;
    const float* bp = b + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = ap[i];
      if (av == 0.0f) continue;
      float* ci = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

void gemm_nt(int m, int n, int k, const float* a, const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<std::size_t>(i) * k;
    float* ci = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* bj = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] += acc;
    }
  }
}

Tensor LeakyReLU::forward(const Tensor& x) {
  x_ = x;
  Tensor y = x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0.0f) y[i] *= slope_;
  }
  return y;
}

Tensor LeakyReLU::backward(const Tensor& dy) {
  Tensor dx = dy;
  for (std::size_t i = 0; i < dx.size(); ++i) {
    if (x_[i] < 0.0f) dx[i] *= slope_;
  }
  return dx;
}

LayerPass linear(const Tensor& x, const Tensor& w, const Tensor& b,
                 bool lrelu, float slope, const Tensor& dy) {
  const int out = w.dim(0);
  const int in = w.dim(1);
  const int rows = static_cast<int>(x.size()) / in;
  LayerPass pass;

  // Forward: naive nt into a zeroed output, then a separate bias pass and
  // a separate activation layer.
  Tensor pre({rows, out});
  gemm_nt(rows, out, in, x.data(), w.data(), pre.data());
  for (int r = 0; r < rows; ++r) {
    for (int o = 0; o < out; ++o) {
      pre[static_cast<std::size_t>(r) * out + o] += b[o];
    }
  }
  LeakyReLU act(slope);
  pass.y = lrelu ? act.forward(pre) : pre;

  // Backward.
  const Tensor dpre = lrelu ? act.backward(dy) : dy;
  pass.dw = Tensor({out, in});
  gemm_tn(out, in, rows, dpre.data(), x.data(), pass.dw.data());
  pass.db = Tensor({out});
  for (int r = 0; r < rows; ++r) {
    for (int o = 0; o < out; ++o) {
      pass.db[o] += dpre[static_cast<std::size_t>(r) * out + o];
    }
  }
  pass.dx = Tensor({rows, in});
  gemm_nn(rows, in, out, dpre.data(), w.data(), pass.dx.data());
  return pass;
}

LayerPass conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
                 int stride, bool lrelu, float slope, const Tensor& dy) {
  if (x.layout() != nn::Layout::kRowMajor ||
      dy.layout() != nn::Layout::kRowMajor) {
    throw std::invalid_argument("oracle::conv2d takes row-major tensors");
  }
  const int n = x.dim(0);
  const int c_in = x.dim(1);
  const int h = x.dim(2);
  const int wd = x.dim(3);
  const int out = w.dim(0);
  const int ho = (h + 2 - 3) / stride + 1;
  const int wo = (wd + 2 - 3) / stride + 1;
  const int rows = n * ho * wo;
  const int patch = c_in * 9;

  // im2col, row-major [rows, patch], rows = (img, oy, ox) and patch =
  // (c, ky, kx); taps outside the image are padding zeros.
  Tensor cols({rows, patch});
  float* col = cols.data();
  for (int img = 0; img < n; ++img) {
    for (int oy = 0; oy < ho; ++oy) {
      for (int ox = 0; ox < wo; ++ox) {
        for (int c = 0; c < c_in; ++c) {
          const float* plane =
              x.data() + (static_cast<std::size_t>(img) * c_in + c) * h * wd;
          for (int ky = 0; ky < 3; ++ky) {
            const int iy = oy * stride - 1 + ky;
            for (int kx = 0; kx < 3; ++kx) {
              const int ix = ox * stride - 1 + kx;
              *col++ = (iy >= 0 && iy < h && ix >= 0 && ix < wd)
                           ? plane[static_cast<std::size_t>(iy) * wd + ix]
                           : 0.0f;
            }
          }
        }
      }
    }
  }

  // [n, out, ho, wo] <-> [rows, out].
  const std::size_t how = static_cast<std::size_t>(ho) * wo;
  auto row_index = [&](int img, std::size_t t, int o) {
    return (static_cast<std::size_t>(img) * how + t) * out + o;
  };
  auto nchw_index = [&](int img, std::size_t t, int o) {
    return (static_cast<std::size_t>(img) * out + o) * how + t;
  };
  Tensor dy_rows({rows, out});
  for (int img = 0; img < n; ++img) {
    for (int o = 0; o < out; ++o) {
      for (std::size_t t = 0; t < how; ++t) {
        dy_rows[row_index(img, t, o)] = dy[nchw_index(img, t, o)];
      }
    }
  }

  // The GEMM part of a conv is a Linear over the im2col rows.
  LayerPass dense = linear(cols, w, b, lrelu, slope, dy_rows);

  LayerPass pass;
  pass.y = Tensor({n, out, ho, wo});
  for (int img = 0; img < n; ++img) {
    for (int o = 0; o < out; ++o) {
      for (std::size_t t = 0; t < how; ++t) {
        pass.y[nchw_index(img, t, o)] = dense.y[row_index(img, t, o)];
      }
    }
  }
  pass.dw = dense.dw;
  pass.db = dense.db;

  // col2im: scatter-add dcols back onto the taps im2col read.
  pass.dx = Tensor({n, c_in, h, wd});
  const float* dcol = dense.dx.data();
  for (int img = 0; img < n; ++img) {
    for (int oy = 0; oy < ho; ++oy) {
      for (int ox = 0; ox < wo; ++ox) {
        for (int c = 0; c < c_in; ++c) {
          float* plane = pass.dx.data() +
                         (static_cast<std::size_t>(img) * c_in + c) * h * wd;
          for (int ky = 0; ky < 3; ++ky) {
            const int iy = oy * stride - 1 + ky;
            for (int kx = 0; kx < 3; ++kx) {
              const int ix = ox * stride - 1 + kx;
              const float v = *dcol++;
              if (iy >= 0 && iy < h && ix >= 0 && ix < wd) {
                plane[static_cast<std::size_t>(iy) * wd + ix] += v;
              }
            }
          }
        }
      }
    }
  }
  return pass;
}

}  // namespace sma::oracle
