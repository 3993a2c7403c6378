// Basic residual block (ResNet v1): conv-bn-relu-conv-bn + skip, then ReLU.
// When stride > 1 or channel counts differ, the skip path is a 1x1
// projection conv + BN (option B of He et al.).
//
// Both paths are planned Sequentials, so they run, fuse and trace like any
// other layer chain; the block adds only the residual join and final ReLU.
#pragma once

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"
#include "src/nn/sequential.hpp"

namespace splitmed::nn {

class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                std::int64_t stride, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Both paths' infer() (fused by the planner: bias + eval BN (+ ReLU)
  /// in the GEMM write-back, chained through workspace slabs), then the
  /// join and final ReLU in one elementwise pass, the same body forward()
  /// runs. The join reads two producers, so it stays outside either GEMM.
  /// Bitwise identical to forward(input, false); touches no backward
  /// cache.
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::string name() const override;

  /// The BatchNorm running statistics: bn1, bn2, a u8 projection flag,
  /// then the projection BN.
  void save_extra_state(BufferWriter& writer) const override;
  void load_extra_state(BufferReader& reader) override;

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  Sequential main_;  ///< conv 3x3/stride, bn, relu, conv 3x3, bn
  Sequential skip_;  ///< empty (identity) or conv 1x1/stride, bn
  Tensor cached_sum_;  // pre-activation of the final ReLU
};

}  // namespace splitmed::nn
