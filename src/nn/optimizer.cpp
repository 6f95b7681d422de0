#include "nn/optimizer.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "runtime/parallel.hpp"
#include "util/durable_io.hpp"

namespace sma::nn {

Adam::Adam(std::vector<Param> params, const AdamConfig& config)
    : params_(std::move(params)), config_(config), lr_(config.lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param& p : params_) {
    m_.emplace_back(p.value->size(), 0.0f);
    v_.emplace_back(p.value->size(), 0.0f);
  }
}

Adam::StepScales Adam::begin_step() {
  ++t_;
  return StepScales{1.0 - std::pow(config_.beta1, t_),
                    1.0 - std::pow(config_.beta2, t_)};
}

void Adam::update_param(std::size_t i, const StepScales& scales) {
  Tensor& value = *params_[i].value;
  Tensor& grad = *params_[i].grad;
  std::vector<float>& m = m_[i];
  std::vector<float>& v = v_[i];
  for (std::size_t j = 0; j < value.size(); ++j) {
    const float g = grad[j];
    m[j] = static_cast<float>(config_.beta1 * m[j] +
                              (1.0 - config_.beta1) * g);
    v[j] = static_cast<float>(config_.beta2 * v[j] +
                              (1.0 - config_.beta2) * g * g);
    const double mh = m[j] / scales.bc1;
    const double vh = v[j] / scales.bc2;
    value[j] -=
        static_cast<float>(lr_ * mh / (std::sqrt(vh) + config_.eps));
    grad[j] = 0.0f;
  }
}

void Adam::step(runtime::ThreadPool* pool) {
  const StepScales scales = begin_step();
  runtime::parallel_for(pool, 0, params_.size(), /*grain=*/4,
                        [&](std::size_t i) { update_param(i, scales); });
}

void Adam::zero_grad() {
  for (Param& p : params_) p.grad->fill(0.0f);
}

void Adam::decay_lr() { lr_ *= config_.decay; }

std::size_t Adam::num_parameters() const {
  std::size_t total = 0;
  for (const Param& p : params_) total += p.value->size();
  return total;
}

void Adam::serialize(util::ByteWriter& out) const {
  out.f64(lr_).i64(t_).u64(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    out.u64(m_[i].size())
        .bytes(m_[i].data(), m_[i].size() * sizeof(float))
        .bytes(v_[i].data(), v_[i].size() * sizeof(float));
  }
}

void Adam::deserialize(util::ByteReader& in) {
  const double lr = in.f64("learning rate");
  const std::int64_t t = in.i64("step counter");
  const std::uint64_t count = in.u64("parameter count");
  if (count != params_.size()) {
    throw util::FrameError(
        "Adam state parameter count mismatch: state has " +
        std::to_string(count) + ", optimizer has " +
        std::to_string(params_.size()));
  }
  // Validate the whole state before assigning any of it.
  std::vector<std::string_view> m(params_.size());
  std::vector<std::string_view> v(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const char* name = params_[i].name.c_str();
    const std::uint64_t size = in.u64(name);
    if (size != m_[i].size()) {
      throw util::FrameError("Adam state size mismatch for " +
                             params_[i].name + ": state has " +
                             std::to_string(size) + ", expected " +
                             std::to_string(m_[i].size()));
    }
    m[i] = in.bytes(size * sizeof(float), name);
    v[i] = in.bytes(size * sizeof(float), name);
  }
  in.expect_end("Adam state");
  lr_ = lr;
  t_ = static_cast<long>(t);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (m[i].empty()) continue;
    std::memcpy(m_[i].data(), m[i].data(), m[i].size());
    std::memcpy(v_[i].data(), v[i].data(), v[i].size());
  }
}

}  // namespace sma::nn
