// Kernel-core benchmark: achieved GF/s of each GEMM form on the shapes
// the fast-profile network actually runs, and layer-level conv/dense
// forward+backward timings. Bit-identity of every form and layer against
// the naive kernels is checked by test_kernels' oracle tests; earlier
// naive/blocked comparisons live in the committed BENCH_kernels.json.
//
// Human-readable progress goes to stderr; stdout carries exactly one JSON
// object (scripts/bench.sh redirects it to BENCH_kernels.json).
//
// Flags:
//   --smoke        tiny shapes, no timing claims: runs every form and
//                  layer once (CI sanity mode)
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using sma::nn::Tensor;

std::vector<float> random_vec(std::size_t n, sma::util::Pcg32& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

/// Seconds per call of `fn`, repeated until ~0.2 s of samples.
template <typename Fn>
double time_call(Fn&& fn, int min_reps = 3) {
  fn();  // warmup
  sma::util::Timer timer;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while ((timer.seconds() < 0.2 || reps < min_reps) && reps < 10000);
  return timer.seconds() / reps;
}

/// One GEMM call: `form` names the nn/gemm.hpp entry point (gemm_<form>).
/// Every form reads an m*k A operand and a k*n B operand.
struct GemmCase {
  const char* form;
  int m, n, k;
  const char* role;
};

struct GemmResult {
  GemmCase spec;
  double blocked_gflops = 0.0;
};

GemmResult run_gemm_case(const GemmCase& spec, bool timed) {
  sma::util::Pcg32 rng(0x9e3779b9u ^ spec.m ^ (spec.n << 8) ^ (spec.k << 16));
  const std::vector<float> a =
      random_vec(static_cast<std::size_t>(spec.m) * spec.k, rng);
  const std::vector<float> b =
      random_vec(static_cast<std::size_t>(spec.k) * spec.n, rng);
  const std::vector<float> bias = random_vec(
      static_cast<std::size_t>(spec.m > spec.n ? spec.m : spec.n), rng);
  std::vector<float> c =
      random_vec(static_cast<std::size_t>(spec.m) * spec.n, rng);
  std::vector<std::uint8_t> mask(c.size());
  sma::nn::GemmScratch scratch;
  const std::string form = spec.form;
  const auto lrelu = sma::nn::Epilogue::kBiasLeakyReLU;

  auto call = [&] {
    const int m = spec.m, n = spec.n, k = spec.k;
    if (form == "forward_nn_rowbias") {
      sma::nn::gemm_forward_nn_rowbias(m, n, k, a.data(), b.data(),
                                       bias.data(), c.data(), lrelu, 0.01f,
                                       mask.data(), scratch);
    } else if (form == "forward_nt") {
      sma::nn::gemm_forward_nt(m, n, k, a.data(), b.data(), bias.data(),
                               c.data(), lrelu, 0.01f, mask.data(), scratch);
    } else if (form == "acc_nt") {
      sma::nn::gemm_acc_nt(m, n, k, a.data(), b.data(), c.data(), scratch);
    } else if (form == "acc_tn") {
      sma::nn::gemm_acc_tn(m, n, k, a.data(), b.data(), c.data(), scratch);
    } else if (form == "ovr_nn") {
      sma::nn::gemm_ovr_nn(m, n, k, a.data(), b.data(), c.data(), scratch);
    } else {
      sma::nn::gemm_ovr_tn(m, n, k, a.data(), b.data(), c.data(), scratch);
    }
  };

  GemmResult result{spec, 0.0};
  if (timed) {
    const double flops = 2.0 * spec.m * spec.n * spec.k;
    result.blocked_gflops = flops / time_call(call) / 1e9;
  } else {
    call();
  }
  return result;
}

struct LayerResult {
  std::string name;
  double blocked_fwd_us = 0.0;
  double blocked_bwd_us = 0.0;
};

/// Forward+backward timing of one fused-LeakyReLU conv layer on a
/// row-major input (the dataset seam); its output and dy are
/// channel-major.
LayerResult run_conv_case(int in_ch, int out_ch, int stride, int imgs,
                          int size, bool timed) {
  std::ostringstream name;
  name << "conv " << in_ch << "->" << out_ch << " s" << stride << " ["
       << imgs << "x" << size << "x" << size << "]";
  LayerResult result;
  result.name = name.str();

  sma::util::Pcg32 data_rng(1234);
  const Tensor x = Tensor::randn({imgs, in_ch, size, size}, data_rng, 1.0);
  sma::util::Pcg32 rng(77);
  sma::nn::Conv2d layer(in_ch, out_ch, stride, rng, "bench",
                        sma::nn::Act::kLeakyReLU);
  Tensor dy = layer.forward(x);
  sma::util::Pcg32 grad_rng(55);
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dy[i] = static_cast<float>(grad_rng.next_gaussian());
  }
  layer.backward(dy);
  if (timed) {
    result.blocked_fwd_us = time_call([&] { layer.forward(x); }) * 1e6;
    result.blocked_bwd_us = time_call([&] { layer.backward(dy); }) * 1e6;
  }
  return result;
}

LayerResult run_dense_case(int rows, int in, int out, bool timed) {
  std::ostringstream name;
  name << "dense " << rows << "x" << in << "->" << out;
  LayerResult result;
  result.name = name.str();

  sma::util::Pcg32 data_rng(4321);
  const Tensor x = Tensor::randn({rows, in}, data_rng, 1.0);
  const Tensor dy = Tensor::randn({rows, out}, data_rng, 1.0);
  sma::util::Pcg32 rng(88);
  sma::nn::Linear layer(in, out, rng, "bench", sma::nn::Act::kLeakyReLU);
  layer.forward(x);
  layer.backward(dy);
  if (timed) {
    result.blocked_fwd_us = time_call([&] { layer.forward(x); }) * 1e6;
    result.blocked_bwd_us = time_call([&] { layer.backward(dy); }) * 1e6;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  sma::benchutil::init_observability();

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  const bool timed = !smoke;

  // GEMM shapes from the fast profile (15x15 three-scale images, 16-image
  // queries, conv widths 8/16/32/64, hidden 128): the conv forward over
  // the transposed im2col, the backward dW / dX forms, and the FC trunk.
  std::vector<GemmCase> gemm_cases;
  if (smoke) {
    gemm_cases = {
        {"forward_nn_rowbias", 5, 9, 7, "smoke"},
        {"forward_nt", 7, 13, 9, "smoke"},
        {"acc_nt", 9, 5, 11, "smoke"},
        {"acc_tn", 9, 5, 11, "smoke"},
        {"ovr_nn", 5, 9, 7, "smoke"},
        {"ovr_tn", 5, 9, 7, "smoke"},
    };
  } else {
    gemm_cases = {
        {"forward_nn_rowbias", 8, 3600, 27, "conv1_0 fwd"},
        {"forward_nn_rowbias", 8, 3600, 72, "conv1_1 fwd"},
        {"forward_nn_rowbias", 16, 400, 72, "conv2_0 fwd"},
        {"forward_nn_rowbias", 32, 64, 144, "conv3_0 fwd"},
        {"forward_nt", 15, 128, 128, "resblock fwd"},
        {"ovr_tn", 72, 3600, 8, "conv1 dX"},
        {"ovr_nn", 15, 128, 128, "resblock dX"},
        {"acc_nt", 8, 72, 3600, "conv1 dW"},
        {"acc_tn", 128, 128, 15, "resblock dW"},
    };
  }

  std::vector<GemmResult> gemm_results;
  for (const GemmCase& spec : gemm_cases) {
    GemmResult r = run_gemm_case(spec, timed);
    if (timed) {
      std::cerr << "gemm_" << spec.form << " " << spec.m << "x" << spec.n
                << "x" << spec.k << " (" << spec.role << "): "
                << r.blocked_gflops << " GF/s\n";
    }
    gemm_results.push_back(r);
  }

  std::vector<LayerResult> layer_results;
  if (smoke) {
    layer_results.push_back(run_conv_case(3, 5, 1, 2, 7, false));
    layer_results.push_back(run_conv_case(2, 3, 3, 1, 11, false));
    layer_results.push_back(run_dense_case(3, 17, 9, false));
  } else {
    layer_results.push_back(run_conv_case(3, 8, 1, 16, 15, true));
    layer_results.push_back(run_conv_case(8, 16, 3, 16, 15, true));
    layer_results.push_back(run_dense_case(15, 128, 128, true));
    for (const LayerResult& r : layer_results) {
      std::cerr << r.name << ": fwd " << r.blocked_fwd_us << " us, bwd "
                << r.blocked_bwd_us << " us\n";
    }
  }

  std::ostringstream json;
  json << "{\"bench\": \"kernels\", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"gemm\": [";
  for (std::size_t i = 0; i < gemm_results.size(); ++i) {
    const GemmResult& r = gemm_results[i];
    json << (i ? ", " : "") << "{\"form\": \"" << r.spec.form
         << "\", \"m\": " << r.spec.m << ", \"n\": " << r.spec.n
         << ", \"k\": " << r.spec.k << ", \"role\": \"" << r.spec.role
         << "\", \"blocked_gflops\": " << r.blocked_gflops << "}";
  }
  json << "], \"layers\": [";
  for (std::size_t i = 0; i < layer_results.size(); ++i) {
    const LayerResult& r = layer_results[i];
    json << (i ? ", " : "") << "{\"layer\": \"" << r.name
         << "\", \"blocked_fwd_us\": " << r.blocked_fwd_us
         << ", \"blocked_bwd_us\": " << r.blocked_bwd_us << "}";
  }
  json << "]";
  sma::obs::RunReport report("kernels", 1);
  json << sma::benchutil::report_fragment(report) << "}";
  std::cout << json.str() << "\n";
  sma::benchutil::flush_trace();
  return 0;
}
