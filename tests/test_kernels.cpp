// Bit-identity of every production GEMM form and of the Linear/Conv2d
// layers against the naive test-only oracle (tests/oracle/) — the
// contract that lets the blocked kernels stand alone without perturbing
// a single downstream number (trained models, CCRs, the parallel
// runtime's serial == parallel checks).
//
// Every comparison here is exact to the bit (memcmp, not EXPECT_NEAR):
// the blocked kernels keep each output element's accumulation a single
// ascending-k chain, so any reassociation bug shows up as a hard failure
// on the shapes below, which include sizes well off every register tile.
#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "oracle/oracle.hpp"
#include "util/rng.hpp"

namespace sma::nn {
namespace {

std::vector<float> random_vec(std::size_t n, util::Pcg32& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

bool bit_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && bit_equal(a.data(), b.data(), a.size());
}

/// [rows, cols] row-major -> [cols, rows] row-major.
std::vector<float> transpose(const std::vector<float>& x, int rows, int cols) {
  std::vector<float> t(x.size());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      t[static_cast<std::size_t>(c) * rows + r] =
          x[static_cast<std::size_t>(r) * cols + c];
    }
  }
  return t;
}

// Shapes straddling every register tile (4x8 portable, 4x16 AVX2, 8x32
// AVX-512): exact multiples, off-by-one tails, single rows/columns, k = 1.
struct Shape {
  int m, n, k;
};
const Shape kShapes[] = {
    {1, 1, 1},   {1, 8, 4},    {4, 8, 16},  {5, 9, 7},    {3, 17, 1},
    {8, 16, 32}, {13, 31, 29}, {17, 5, 64}, {33, 40, 13}, {6, 128, 130},
    {40, 33, 57},
};

/// Random operands for one shape. With `sparse_a` every third element of
/// A is an exact zero (structural zeros such as im2col padding): the
/// oracle's nn/tn kernels skip those, the blocked ones multiply through,
/// and the bits must not change.
struct Operands {
  std::vector<float> a, b, c0, bias;
};

Operands make_operands(const Shape& s, std::size_t bias_size, bool sparse_a,
                       std::uint64_t salt) {
  util::Pcg32 rng(salt + s.m * 131u + s.n * 17u + s.k);
  Operands ops;
  ops.a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
  ops.b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
  // Nonzero initial C exercises the += semantics (the dW accumulation
  // path), where association with prior contents matters.
  ops.c0 = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
  ops.bias = random_vec(bias_size, rng);
  if (sparse_a) {
    for (std::size_t i = 0; i < ops.a.size(); i += 3) ops.a[i] = 0.0f;
  }
  return ops;
}

std::string describe(const Shape& s, bool sparse_a) {
  return "shape " + std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
         std::to_string(s.k) + (sparse_a ? " (sparse A)" : "");
}

// ---- accumulate forms --------------------------------------------------

TEST(KernelTest, GemmAccTnMatchesOracle) {
  for (const Shape& s : kShapes) {
    for (bool sparse : {false, true}) {
      // A is stored [K, M].
      const Operands ops = make_operands(s, 0, sparse, 1000);
      std::vector<float> want = ops.c0;
      oracle::gemm_tn(s.m, s.n, s.k, ops.a.data(), ops.b.data(), want.data());
      std::vector<float> got = ops.c0;
      GemmScratch ws;
      gemm_acc_tn(s.m, s.n, s.k, ops.a.data(), ops.b.data(), got.data(), ws);
      EXPECT_TRUE(bit_equal(want.data(), got.data(), want.size()))
          << describe(s, sparse);
    }
  }
}

TEST(KernelTest, GemmAccNtMatchesOracle) {
  for (const Shape& s : kShapes) {
    for (bool sparse : {false, true}) {
      // B is stored [N, K]; the oracle sees it transposed back to [K, N],
      // so both accumulate C + a0*b0 + a1*b1 + ... in ascending k.
      const Operands ops = make_operands(s, 0, sparse, 2000);
      const std::vector<float> b_kn = transpose(ops.b, s.n, s.k);
      std::vector<float> want = ops.c0;
      oracle::gemm_nn(s.m, s.n, s.k, ops.a.data(), b_kn.data(), want.data());
      std::vector<float> got = ops.c0;
      GemmScratch ws;
      gemm_acc_nt(s.m, s.n, s.k, ops.a.data(), ops.b.data(), got.data(), ws);
      EXPECT_TRUE(bit_equal(want.data(), got.data(), want.size()))
          << describe(s, sparse);
    }
  }
}

// ---- overwrite forms ---------------------------------------------------
// Destinations start as garbage: the overwrite forms must ignore prior
// contents (layers reuse arena buffers without clearing).

TEST(KernelTest, GemmOvrNnMatchesOracle) {
  for (const Shape& s : kShapes) {
    for (bool sparse : {false, true}) {
      const Operands ops = make_operands(s, 0, sparse, 3000);
      std::vector<float> want(ops.c0.size(), 0.0f);
      oracle::gemm_nn(s.m, s.n, s.k, ops.a.data(), ops.b.data(), want.data());
      std::vector<float> got(ops.c0.size(), 123.0f);
      GemmScratch ws;
      gemm_ovr_nn(s.m, s.n, s.k, ops.a.data(), ops.b.data(), got.data(), ws);
      EXPECT_TRUE(bit_equal(want.data(), got.data(), want.size()))
          << describe(s, sparse);
    }
  }
}

TEST(KernelTest, GemmOvrTnMatchesOracle) {
  for (const Shape& s : kShapes) {
    for (bool sparse : {false, true}) {
      // A is stored [K, M].
      const Operands ops = make_operands(s, 0, sparse, 4000);
      std::vector<float> want(ops.c0.size(), 0.0f);
      oracle::gemm_tn(s.m, s.n, s.k, ops.a.data(), ops.b.data(), want.data());
      std::vector<float> got(ops.c0.size(), -77.0f);
      GemmScratch ws;
      gemm_ovr_tn(s.m, s.n, s.k, ops.a.data(), ops.b.data(), got.data(), ws);
      EXPECT_TRUE(bit_equal(want.data(), got.data(), want.size()))
          << describe(s, sparse);
    }
  }
}

/// The oracle's forward epilogue on a naive pre-activation: add bias (per
/// column or per row), record the negative mask, then LeakyReLU.
void oracle_epilogue(const Shape& s, const std::vector<float>& bias,
                     bool row_bias, Epilogue epilogue, float slope,
                     std::vector<float>& c, std::vector<std::uint8_t>& mask) {
  for (int i = 0; i < s.m; ++i) {
    for (int j = 0; j < s.n; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * s.n + j;
      c[idx] += row_bias ? bias[i] : bias[j];
      mask[idx] = c[idx] < 0.0f ? 1 : 0;
    }
  }
  if (epilogue == Epilogue::kBiasLeakyReLU) {
    for (float& v : c) {
      if (v < 0.0f) v *= slope;
    }
  }
}

TEST(KernelTest, GemmForwardNtMatchesOracle) {
  const float slope = 0.01f;
  for (const Shape& s : kShapes) {
    // B is stored [N, K]; the bias is per output column.
    const Operands ops = make_operands(s, s.n, false, 5000);
    const std::size_t c_size = ops.c0.size();
    for (Epilogue epilogue : {Epilogue::kBias, Epilogue::kBiasLeakyReLU}) {
      std::vector<float> want(c_size, 0.0f);
      std::vector<std::uint8_t> want_mask(c_size, 0);
      oracle::gemm_nt(s.m, s.n, s.k, ops.a.data(), ops.b.data(), want.data());
      oracle_epilogue(s, ops.bias, /*row_bias=*/false, epilogue, slope, want,
                      want_mask);
      for (bool with_mask : {true, false}) {
        std::vector<float> got(c_size, 123.0f);
        std::vector<std::uint8_t> mask(c_size, 2);
        GemmScratch ws;
        gemm_forward_nt(s.m, s.n, s.k, ops.a.data(), ops.b.data(),
                        ops.bias.data(), got.data(), epilogue, slope,
                        with_mask ? mask.data() : nullptr, ws);
        EXPECT_TRUE(bit_equal(want.data(), got.data(), c_size))
            << describe(s, false) << " lrelu "
            << (epilogue == Epilogue::kBiasLeakyReLU) << " mask " << with_mask;
        if (with_mask) {
          EXPECT_EQ(want_mask, mask) << describe(s, false);
        } else {
          EXPECT_EQ(mask, std::vector<std::uint8_t>(c_size, 2))
              << "a null mask must not be written";
        }
      }
    }
  }
}

TEST(KernelTest, GemmForwardNnRowbiasMatchesOracle) {
  const float slope = 0.01f;
  for (const Shape& s : kShapes) {
    // B is stored [K, N]; the bias is per output row. The oracle sums
    // each dot product on a fresh chain, as the overwrite form does.
    const Operands ops = make_operands(s, s.m, false, 6000);
    const std::vector<float> b_nk = transpose(ops.b, s.k, s.n);
    const std::size_t c_size = ops.c0.size();
    for (Epilogue epilogue : {Epilogue::kBias, Epilogue::kBiasLeakyReLU}) {
      std::vector<float> want(c_size, 0.0f);
      std::vector<std::uint8_t> want_mask(c_size, 0);
      oracle::gemm_nt(s.m, s.n, s.k, ops.a.data(), b_nk.data(), want.data());
      oracle_epilogue(s, ops.bias, /*row_bias=*/true, epilogue, slope, want,
                      want_mask);
      for (bool with_mask : {true, false}) {
        std::vector<float> got(c_size, -77.0f);
        std::vector<std::uint8_t> mask(c_size, 3);
        GemmScratch ws;
        gemm_forward_nn_rowbias(s.m, s.n, s.k, ops.a.data(), ops.b.data(),
                                ops.bias.data(), got.data(), epilogue, slope,
                                with_mask ? mask.data() : nullptr, ws);
        EXPECT_TRUE(bit_equal(want.data(), got.data(), c_size))
            << describe(s, false) << " lrelu "
            << (epilogue == Epilogue::kBiasLeakyReLU) << " mask " << with_mask;
        if (with_mask) {
          EXPECT_EQ(want_mask, mask) << describe(s, false);
        } else {
          EXPECT_EQ(mask, std::vector<std::uint8_t>(c_size, 3))
              << "a null mask must not be written";
        }
      }
    }
  }
}

// ---- layer-level identity ----------------------------------------------

/// Gradient of a layer's output, drawn in row-major (NCHW) logical order.
Tensor random_dy(const std::vector<int>& shape, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  Tensor dy(shape);
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dy[i] = static_cast<float>(rng.next_gaussian());
  }
  return dy;
}

TEST(KernelTest, LinearMatchesOracle) {
  for (Act act : {Act::kNone, Act::kLeakyReLU}) {
    for (const auto& [rows, in, out] :
         {std::tuple{1, 1, 1}, std::tuple{5, 9, 13}, std::tuple{16, 128, 32},
          std::tuple{3, 27, 128}}) {
      util::Pcg32 data_rng(17u + rows + in + out);
      const Tensor x = Tensor::randn({rows, in}, data_rng, 1.0);
      const Tensor dy = random_dy({rows, out}, 91);

      util::Pcg32 rng(55);
      Linear layer(in, out, rng, "t", act);
      const Tensor y = layer.forward(x);
      const Tensor dx = layer.backward(dy);
      std::vector<Param> params;
      layer.collect_params(params);

      const oracle::LayerPass want =
          oracle::linear(x, *params[0].value, *params[1].value,
                         act == Act::kLeakyReLU, 0.01f, dy);
      const std::string what = "linear " + std::to_string(rows) + "x" +
                               std::to_string(in) + "->" +
                               std::to_string(out);
      EXPECT_TRUE(bit_equal(want.y, y)) << what << " forward";
      EXPECT_TRUE(bit_equal(want.dx, dx)) << what << " dx";
      EXPECT_TRUE(bit_equal(want.dw, *params[0].grad)) << what << " dw";
      EXPECT_TRUE(bit_equal(want.db, *params[1].grad)) << what << " db";
    }
  }
}

struct ConvCase {
  int n, in_ch, out_ch, stride, size;
};

/// One conv layer's forward + backward against the oracle, with the
/// input stored in `x_layout` (row-major: the dataset seam; channel-major:
/// an upstream conv's output). The output and dy are channel-major; dx
/// comes back in the input's layout.
void expect_conv_matches_oracle(const ConvCase& c, Act act, Layout x_layout) {
  util::Pcg32 data_rng(29u + c.n * 7 + c.in_ch * c.out_ch + c.size);
  const Tensor x = Tensor::randn({c.n, c.in_ch, c.size, c.size}, data_rng, 1.0);

  util::Pcg32 rng(66);
  Conv2d conv(c.in_ch, c.out_ch, c.stride, rng, "t", act);
  const Tensor y = conv.forward(to_layout(x, x_layout));
  ASSERT_EQ(y.layout(), Layout::kChannelMajor);
  const Tensor dy_rm = random_dy(y.shape(), 37);
  const Tensor dx = conv.backward(to_layout(dy_rm, Layout::kChannelMajor));
  ASSERT_EQ(dx.layout(), x_layout);
  std::vector<Param> params;
  conv.collect_params(params);

  const oracle::LayerPass want =
      oracle::conv2d(x, *params[0].value, *params[1].value, c.stride,
                     act == Act::kLeakyReLU, 0.01f, dy_rm);
  const std::string what =
      "conv n" + std::to_string(c.n) + " " + std::to_string(c.in_ch) + "->" +
      std::to_string(c.out_ch) + " s" + std::to_string(c.stride) + " size " +
      std::to_string(c.size) +
      (x_layout == Layout::kChannelMajor ? " (cm input)" : " (rm input)");
  EXPECT_TRUE(bit_equal(want.y, to_row_major(y))) << what << " forward";
  EXPECT_TRUE(bit_equal(want.dx, to_row_major(dx))) << what << " dx";
  EXPECT_TRUE(bit_equal(want.dw, *params[0].grad)) << what << " dw";
  EXPECT_TRUE(bit_equal(want.db, *params[1].grad)) << what << " db";
}

TEST(KernelTest, Conv2dMatchesOracle) {
  // Non-multiple-of-tile channel counts and odd image sizes included.
  for (Act act : {Act::kNone, Act::kLeakyReLU}) {
    for (const ConvCase& c :
         {ConvCase{1, 1, 1, 1, 3}, ConvCase{2, 3, 5, 1, 7},
          ConvCase{2, 3, 8, 3, 15}, ConvCase{1, 5, 13, 3, 11}}) {
      for (Layout layout : {Layout::kRowMajor, Layout::kChannelMajor}) {
        expect_conv_matches_oracle(c, act, layout);
      }
    }
  }
}

TEST(KernelTest, Conv2dStridedOnOnePixelInputIsDeterministic) {
  // Regression: for a 1-wide feature map and kernel column kx = 2 the
  // pack paths' edge formula (w - kx) / stride + 1 truncated -1/stride
  // toward zero, admitting an out-of-bounds tap: im2col read one float
  // past the row (heap garbage on the last plane — trained models became
  // nondeterministic) and col2im WROTE one float past it. Only stride-3
  // convs see it (stride 1 divides -1 exactly), and only once the trunk
  // shrinks to 1x1 maps — tiny test nets, not the paper profiles.
  for (const ConvCase& c :
       {ConvCase{7, 8, 10, 3, 1}, ConvCase{3, 2, 5, 3, 1},
        ConvCase{1, 1, 1, 3, 1}}) {
    // Pollute the allocator's free lists so stale-memory taps cannot
    // masquerade as zeros.
    {
      std::vector<float> junk(1 << 18, 1e9f);
      volatile float sink = junk[0];
      (void)sink;
    }
    for (Layout layout : {Layout::kRowMajor, Layout::kChannelMajor}) {
      expect_conv_matches_oracle(c, Act::kLeakyReLU, layout);
    }

    // And the layer must be repeatable against itself under a dirtied
    // heap (the original failure mode).
    util::Pcg32 data_rng(11u + c.n);
    const Tensor x =
        Tensor::randn({c.n, c.in_ch, c.size, c.size}, data_rng, 1.0);
    Tensor y_first;
    Tensor dx_first;
    for (int round = 0; round < 2; ++round) {
      std::vector<float> junk(1 << 16, -1e9f);
      volatile float sink = junk[0];
      (void)sink;
      util::Pcg32 rng(44);
      Conv2d conv(c.in_ch, c.out_ch, c.stride, rng, "t", Act::kLeakyReLU);
      Tensor y = conv.forward(x);
      Tensor dy = random_dy(y.shape(), 13);
      dy.set_layout(y.layout());
      Tensor dx = conv.backward(dy);
      if (round == 0) {
        y_first = y;
        dx_first = dx;
      } else {
        EXPECT_TRUE(bit_equal(y_first, y));
        EXPECT_TRUE(bit_equal(dx_first, dx));
      }
    }
  }
}

TEST(KernelTest, FusedActivationMatchesSeparateLayer) {
  // Linear(Act::kLeakyReLU) must equal Linear(no act) + a standalone
  // LeakyReLU exactly, forward and backward — the epilogue fusion is
  // pure plumbing.
  util::Pcg32 data_rng(3);
  Tensor x = Tensor::randn({7, 19}, data_rng, 1.0);
  Tensor dy = Tensor::randn({7, 11}, data_rng, 1.0);

  util::Pcg32 rng_a(9);
  Linear fused(19, 11, rng_a, "t", Act::kLeakyReLU);
  Tensor y_fused = fused.forward(x);
  Tensor dx_fused = fused.backward(dy);

  util::Pcg32 rng_b(9);
  Linear plain(19, 11, rng_b, "t");
  oracle::LeakyReLU act;
  Tensor y_plain = act.forward(plain.forward(x));
  Tensor dx_plain = plain.backward(act.backward(dy));

  EXPECT_TRUE(bit_equal(y_fused, y_plain));
  EXPECT_TRUE(bit_equal(dx_fused, dx_plain));
}

TEST(KernelTest, ScratchSurvivesShapeChanges) {
  // One layer instance driven through growing and shrinking batches: the
  // reusable scratch must resize correctly and stale contents must never
  // leak into results (compare against a fresh layer per shape).
  util::Pcg32 rng_a(111);
  Linear reused(23, 31, rng_a, "reused", Act::kLeakyReLU);
  for (int rows : {16, 3, 40, 1, 7}) {
    util::Pcg32 data_rng(rows);
    Tensor x = Tensor::randn({rows, 23}, data_rng, 1.0);

    Tensor y_reused = reused.forward(x);

    util::Pcg32 rng_b(111);
    Linear fresh(23, 31, rng_b, "fresh", Act::kLeakyReLU);
    Tensor y_fresh = fresh.forward(x);

    EXPECT_TRUE(bit_equal(y_reused, y_fresh)) << "rows " << rows;
  }
}

}  // namespace
}  // namespace sma::nn
