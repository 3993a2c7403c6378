// Basic residual block (ResNet v1): conv-bn-relu-conv-bn + skip, then ReLU.
// When stride > 1 or channel counts differ, the skip path is a 1x1
// projection conv + BN (option B of He et al.).
#pragma once

#include "src/common/rng.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/layer.hpp"

namespace splitmed::nn {

class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                std::int64_t stride, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Planner-fused inference: conv+bn(+relu) stages run with epilogue-fused
  /// GEMMs through workspace slabs; the residual join and final ReLU stay
  /// elementwise OUTSIDE the GEMM (the join reads two producers, so folding
  /// it into either would need the other materialized anyway — adding it
  /// post-fold keeps the exact ops::add float sequence). Bitwise identical
  /// to forward(input, false); with the planner off it runs the same layer
  /// sequence through each layer's infer(). Touches no backward cache.
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::string name() const override;

  /// Forwards to the embedded BatchNorm layers (running statistics).
  void save_extra_state(BufferWriter& writer) const override;
  void load_extra_state(BufferReader& reader) override;

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  bool has_projection_;
  std::unique_ptr<Conv2d> proj_conv_;
  std::unique_ptr<BatchNorm2d> proj_bn_;
  // Caches for backward.
  Tensor cached_relu1_out_;
  Tensor cached_sum_;  // pre-activation of the final ReLU
};

}  // namespace splitmed::nn
