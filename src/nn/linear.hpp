// Fully-connected layer: y = x·Wᵀ + b, x: [batch, in], W: [out, in].
#pragma once

#include <span>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"
#include "src/tensor/gemm_kernels.hpp"

namespace splitmed::nn {

class Linear final : public Layer {
 public:
  /// He-normal weight init (library default: layers feed ReLUs), zero bias.
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Weight and bias gradients only: skips the dx = g·W GEMM.
  void backward_params(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::int64_t in_features() const { return in_; }
  [[nodiscard]] std::int64_t out_features() const { return out_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  [[nodiscard]] const Tensor& bias_value() const { return bias_.value; }

  /// Planner entry points (src/nn/plan.cpp); see Conv2d for the contract.
  /// Here the GEMM is x·Wᵀ so the epilogue parameters index C COLUMNS
  /// (per_row=false, one per output feature).
  Tensor forward_fused(const Tensor& input, const gemmk::Epilogue& ep,
                       bool cache);
  void run_fused(std::span<const float> input, std::int64_t batch,
                 std::span<float> out, const gemmk::Epilogue& ep) const;
  /// With input_grad=false: parameter gradients only, default Tensor back.
  Tensor backward_from(std::span<const float> grad_output,
                       const Shape& grad_shape, bool input_grad = true);

 private:
  std::int64_t in_;
  std::int64_t out_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  Tensor cached_input_;
};

}  // namespace splitmed::nn
