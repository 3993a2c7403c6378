#include "src/nn/activations.hpp"

#include <cmath>

#include "src/common/error.hpp"

namespace splitmed::nn {

void relu_backward_mask(std::span<const float> act,
                        std::span<const float> grad, std::span<float> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float g = grad[i];
    out[i] = act[i] > 0.0F ? g : 0.0F;
  }
}

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  return infer(input);
}

Tensor ReLU::infer(const Tensor& input) {
  Tensor out(input.shape());
  auto id = input.data();
  auto od = out.data();
  for (std::size_t i = 0; i < id.size(); ++i) {
    od[i] = id[i] > 0.0F ? id[i] : 0.0F;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  check_same_shape(grad_output.shape(), cached_input_.shape(),
                   "ReLU backward");
  Tensor grad(grad_output.shape());
  relu_backward_mask(cached_input_.data(), grad_output.data(), grad.data());
  return grad;
}

Tensor Tanh::forward(const Tensor& input, bool /*training*/) {
  cached_output_ = infer(input);
  return cached_output_;
}

Tensor Tanh::infer(const Tensor& input) {
  Tensor out(input.shape());
  auto id = input.data();
  auto od = out.data();
  for (std::size_t i = 0; i < id.size(); ++i) od[i] = std::tanh(id[i]);
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  check_same_shape(grad_output.shape(), cached_output_.shape(),
                   "Tanh backward");
  Tensor grad(grad_output.shape());
  auto gd = grad_output.data();
  auto yd = cached_output_.data();
  auto out = grad.data();
  for (std::size_t i = 0; i < gd.size(); ++i) {
    out[i] = gd[i] * (1.0F - yd[i] * yd[i]);
  }
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input, bool /*training*/) {
  cached_output_ = infer(input);
  return cached_output_;
}

Tensor Sigmoid::infer(const Tensor& input) {
  Tensor out(input.shape());
  auto id = input.data();
  auto od = out.data();
  for (std::size_t i = 0; i < id.size(); ++i) {
    od[i] = 1.0F / (1.0F + std::exp(-id[i]));
  }
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  check_same_shape(grad_output.shape(), cached_output_.shape(),
                   "Sigmoid backward");
  Tensor grad(grad_output.shape());
  auto gd = grad_output.data();
  auto yd = cached_output_.data();
  auto out = grad.data();
  for (std::size_t i = 0; i < gd.size(); ++i) {
    out[i] = gd[i] * yd[i] * (1.0F - yd[i]);
  }
  return grad;
}

}  // namespace splitmed::nn
