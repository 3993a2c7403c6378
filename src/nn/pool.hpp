// Spatial pooling layers (NCHW).
#pragma once

#include <vector>

#include "src/nn/layer.hpp"

namespace splitmed::nn {

/// Non-overlapping-or-strided max pooling with square window.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::int64_t window, std::int64_t stride = 0);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// The same window-max scan as forward(), without recording argmax (a
  /// select-based scan for 2x2 windows at stride 2 over even heights).
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::int64_t window_;
  std::int64_t stride_;
  Shape cached_input_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

/// Global average pooling: [b,c,h,w] -> [b,c].
class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_input_shape_;
};

}  // namespace splitmed::nn
