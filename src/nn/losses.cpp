#include "nn/losses.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sma::nn {

namespace {

int candidate_count(const Tensor& scores) {
  if (scores.shape().empty()) throw std::invalid_argument("empty scores");
  return scores.dim(0);
}

}  // namespace

LossResult softmax_regression_loss(const Tensor& scores, int target) {
  const int n = candidate_count(scores);
  if (static_cast<std::size_t>(n) != scores.size()) {
    throw std::invalid_argument("softmax loss expects one score per VPP");
  }
  if (target < 0 || target >= n) {
    throw std::invalid_argument("target out of range");
  }

  // Numerically stable softmax.
  float max_score = scores[0];
  for (int j = 1; j < n; ++j) max_score = std::max(max_score, scores[j]);
  double denom = 0.0;
  for (int j = 0; j < n; ++j) {
    denom += std::exp(static_cast<double>(scores[j] - max_score));
  }

  LossResult result;
  result.grad = Tensor(scores.shape());
  for (int j = 0; j < n; ++j) {
    double p = std::exp(static_cast<double>(scores[j] - max_score)) / denom;
    result.grad[j] = static_cast<float>(p - (j == target ? 1.0 : 0.0));
  }
  double pt = std::exp(static_cast<double>(scores[target] - max_score)) / denom;
  result.loss = -std::log(std::max(pt, 1e-30));
  return result;
}

LossResult two_class_loss(const Tensor& scores, int target) {
  if (scores.shape().size() != 2 || scores.dim(1) != 2) {
    throw std::invalid_argument("two-class loss expects [n, 2] scores");
  }
  const int n = scores.dim(0);
  if (target < 0 || target >= n) {
    throw std::invalid_argument("target out of range");
  }

  LossResult result;
  result.grad = Tensor(scores.shape());
  double total = 0.0;
  for (int j = 0; j < n; ++j) {
    const double s_neg = scores[static_cast<std::size_t>(j) * 2 + 0];
    const double s_pos = scores[static_cast<std::size_t>(j) * 2 + 1];
    // Two-way softmax probability of the labelled class.
    const double m = std::max(s_neg, s_pos);
    const double e_neg = std::exp(s_neg - m);
    const double e_pos = std::exp(s_pos - m);
    const double z = e_neg + e_pos;
    const double p_pos = e_pos / z;
    const bool positive = j == target;
    const double p_label = positive ? p_pos : 1.0 - p_pos;
    total += -std::log(std::max(p_label, 1e-30));
    // d/ds of -log softmax(label): p - one_hot(label), scaled by 1/n.
    const double y_pos = positive ? 1.0 : 0.0;
    result.grad[static_cast<std::size_t>(j) * 2 + 1] =
        static_cast<float>((p_pos - y_pos) / n);
    result.grad[static_cast<std::size_t>(j) * 2 + 0] =
        static_cast<float>(((1.0 - p_pos) - (1.0 - y_pos)) / n);
  }
  result.loss = total / n;
  return result;
}

int predict(const Tensor& scores) {
  const int n = candidate_count(scores);
  if (n == 0) return -1;
  const float* s = scores.data();
  if (scores.shape().size() == 2 && scores.dim(1) == 2) {
    int best = 0;
    float best_margin = s[1] - s[0];
    for (int j = 1; j < n; ++j) {
      float margin = s[static_cast<std::size_t>(j) * 2 + 1] -
                     s[static_cast<std::size_t>(j) * 2 + 0];
      if (margin > best_margin) {
        best_margin = margin;
        best = j;
      }
    }
    return best;
  }
  int best = 0;
  for (int j = 1; j < n; ++j) {
    if (s[j] > s[best]) best = j;
  }
  return best;
}

}  // namespace sma::nn
