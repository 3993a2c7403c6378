// Batch normalization over NCHW (per-channel statistics across N, H, W).
#pragma once

#include "src/nn/layer.hpp"

namespace splitmed::nn {

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1F,
                       float eps = 1e-5F);

  /// training=true uses batch statistics and updates the running estimates;
  /// training=false normalizes with the running estimates.
  Tensor forward(const Tensor& input, bool training) override;
  /// After a training forward: full batch-coupled gradient. After an eval
  /// forward the layer is a frozen per-channel affine map, and backward
  /// differentiates exactly that (used by privacy::reconstruct_inputs,
  /// which attacks the deployed eval-mode L1).
  Tensor backward(const Tensor& grad_output) override;
  /// Eval normalization with the running estimates; forward(input, false)
  /// is this plus the backward cache (input copy, mode flags).
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  [[nodiscard]] std::string name() const override;

  /// Running mean/var are training state outside parameters(); a checkpoint
  /// that skipped them would change every post-resume evaluation.
  void save_extra_state(BufferWriter& writer) const override;
  void load_extra_state(BufferReader& reader) override;

  [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const { return running_var_; }
  [[nodiscard]] const Tensor& gamma_value() const { return gamma_.value; }
  [[nodiscard]] const Tensor& beta_value() const { return beta_.value; }
  [[nodiscard]] float eps() const { return eps_; }
  [[nodiscard]] std::int64_t channels() const { return channels_; }

 private:
  std::int64_t channels_;
  float momentum_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;
  // Backward cache; which members are valid depends on the last forward's
  // mode (last_forward_training_).
  bool last_forward_training_ = false;
  bool has_forward_ = false;
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // [channels]; training-mode batch stats
  Tensor cached_eval_input_;
};

}  // namespace splitmed::nn
