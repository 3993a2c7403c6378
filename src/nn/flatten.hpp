// Flattens [b, ...] -> [b, prod(...)]. Pure reshape; gradients reshape back.
#pragma once

#include "src/nn/layer.hpp"

namespace splitmed::nn {

class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  Shape cached_input_shape_;
};

}  // namespace splitmed::nn
