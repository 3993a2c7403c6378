// 2-D convolution (NCHW) via im2col + GEMM; whole-plane geometries lower
// straight into the GEMM's B panels (MaskedShift, gemm_panels).
#pragma once

#include <span>

#include "src/common/rng.hpp"
#include "src/nn/layer.hpp"
#include "src/tensor/gemm_kernels.hpp"
#include "src/tensor/im2col.hpp"

namespace splitmed::nn {

class Conv2d final : public Layer {
 public:
  /// Square kernel, symmetric padding. He-normal init, zero bias.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Weight and bias gradients only: skips the input-gradient GEMM and
  /// col2im.
  void backward_params(const Tensor& grad_output) override;
  Tensor infer(const Tensor& input) override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::int64_t in_channels() const { return in_c_; }
  [[nodiscard]] std::int64_t out_channels() const { return out_c_; }
  [[nodiscard]] const Tensor& bias_value() const { return bias_.value; }

  /// Planner entry points (src/nn/plan.cpp). The convolution with the
  /// elementwise tail `ep` (which must already include this layer's bias —
  /// per_row=true, indexed by output channel) fused into the GEMM
  /// write-back. Caches the input for backward when `cache` is set; the
  /// fused OUTPUT is the caller's to cache (dReLU masks on it).
  Tensor forward_fused(const Tensor& input, const gemmk::Epilogue& ep,
                       bool cache);
  /// Raw-span variant for slab-chained inference: input/out are NCHW with
  /// the given geometry; out must hold batch*out_channels*out_h*out_w.
  void run_fused(std::span<const float> input, std::int64_t batch,
                 std::int64_t in_h, std::int64_t in_w, std::span<float> out,
                 const gemmk::Epilogue& ep) const;
  /// backward() against a raw grad span (the planner's fused groups mask
  /// dReLU into arena scratch and feed it here — bitwise identical to
  /// backward(Tensor) on the same bytes). With input_grad=false it
  /// accumulates the same parameter gradients and returns a default Tensor.
  Tensor backward_from(std::span<const float> grad_output,
                       const Shape& grad_shape, bool input_grad = true);

 private:
  [[nodiscard]] ConvGeometry geometry(std::int64_t in_h,
                                      std::int64_t in_w) const;

  std::int64_t in_c_;
  std::int64_t out_c_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;
  Parameter weight_;  // [out_c, in_c * k * k]
  Parameter bias_;    // [out_c]
  Tensor cached_input_;
};

}  // namespace splitmed::nn
