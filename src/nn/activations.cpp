#include "src/nn/activations.hpp"

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

}  // namespace splitmed::nn
