#include "src/optim/adam.hpp"

#include <cmath>

#include "src/common/error.hpp"

namespace splitmed::optim {

Adam::Adam(std::vector<nn::Parameter*> params, AdamOptions options)
    : params_(std::move(params)), options_(options) {
  SPLITMED_CHECK(options_.learning_rate > 0.0F, "Adam: lr must be positive");
  SPLITMED_CHECK(options_.beta1 >= 0.0F && options_.beta1 < 1.0F &&
                     options_.beta2 >= 0.0F && options_.beta2 < 1.0F,
                 "Adam: betas must be in [0,1)");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const nn::Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 =
      1.0F - std::pow(options_.beta1, static_cast<float>(t_));
  const float bc2 =
      1.0F - std::pow(options_.beta2, static_cast<float>(t_));
  const float lr = options_.learning_rate * std::sqrt(bc2) / bc1;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Parameter& p = *params_[i];
    auto val = p.value.data();
    auto g = p.grad.data();
    auto m = m_[i].data();
    auto v = v_[i].data();
    for (std::size_t j = 0; j < val.size(); ++j) {
      const float grad = g[j] + options_.weight_decay * val[j];
      m[j] = options_.beta1 * m[j] + (1.0F - options_.beta1) * grad;
      v[j] = options_.beta2 * v[j] + (1.0F - options_.beta2) * grad * grad;
      val[j] -= lr * m[j] / (std::sqrt(v[j]) + options_.eps);
    }
  }
}

}  // namespace splitmed::optim
