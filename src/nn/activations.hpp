// Pointwise activation layers.
#pragma once

#include <span>

#include "src/nn/layer.hpp"

namespace splitmed::nn {

/// The dReLU mask, the one body behind ReLU::backward and the planner's
/// fused conv/linear→ReLU backward: out[i] = act[i] > 0 ? grad[i] : +0.0.
/// `act` may be the ReLU's input or its output (x > 0 ⟺ max(x, 0) > 0), so
/// NaN and ±0 activations mask either way, and a kept lane keeps the
/// gradient's exact bits. Every gradient is loaded unconditionally, so the
/// loop compiles to a packed compare and AND with no per-element branch.
/// The three spans have one size.
void relu_backward_mask(std::span<const float> act,
                        std::span<const float> grad, std::span<float> out);

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// max(x, 0); forward() is this plus the input cache.
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override {
    return input;
  }
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

}  // namespace splitmed::nn
