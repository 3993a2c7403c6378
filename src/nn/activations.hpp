// Pointwise activation layers.
#pragma once

#include "src/nn/layer.hpp"

namespace splitmed::nn {

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

class Tanh final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override {
    return input;
  }
  [[nodiscard]] std::string name() const override { return "Tanh"; }

 private:
  Tensor cached_output_;
};

class Sigmoid final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override {
    return input;
  }
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }

 private:
  Tensor cached_output_;
};

}  // namespace splitmed::nn
