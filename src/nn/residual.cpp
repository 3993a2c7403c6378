#include "src/nn/residual.hpp"

#include <sstream>

#include "src/common/error.hpp"
#include "src/nn/plan.hpp"
#include "src/tensor/ops.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed::nn {

ResidualBlock::ResidualBlock(std::int64_t in_channels,
                             std::int64_t out_channels, std::int64_t stride,
                             Rng& rng)
    : conv1_(in_channels, out_channels, 3, stride, 1, rng),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, rng),
      bn2_(out_channels),
      has_projection_(stride != 1 || in_channels != out_channels) {
  if (has_projection_) {
    proj_conv_ =
        std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0, rng);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

Tensor ResidualBlock::forward(const Tensor& input, bool training) {
  Tensor main = bn1_.forward(conv1_.forward(input, training), training);
  // ReLU 1 (inline so we can cache its output for the backward mask).
  {
    auto d = main.data();
    for (auto& v : d) v = v > 0.0F ? v : 0.0F;
  }
  cached_relu1_out_ = main;
  main = bn2_.forward(conv2_.forward(main, training), training);

  Tensor skip = has_projection_
                    ? proj_bn_->forward(proj_conv_->forward(input, training),
                                        training)
                    : input;
  Tensor sum = ops::add(main, skip);
  cached_sum_ = sum;
  auto d = sum.data();
  for (auto& v : d) v = v > 0.0F ? v : 0.0F;
  return sum;
}

Tensor ResidualBlock::infer(const Tensor& input) {
  if (!planner_enabled()) {
    // Unfused comparator: forward(x, false)'s layer sequence through each
    // layer's cache-free infer().
    Tensor main = bn1_.infer(conv1_.infer(input));
    for (auto& v : main.data()) v = v > 0.0F ? v : 0.0F;
    main = bn2_.infer(conv2_.infer(main));
    Tensor sum = ops::add(
        main, has_projection_ ? proj_bn_->infer(proj_conv_->infer(input))
                              : input);
    for (auto& v : sum.data()) v = v > 0.0F ? v : 0.0F;
    return sum;
  }
  // Fused inference: both main-path stages and the projection run as
  // epilogue-fused GEMMs (bias + eval BN, plus ReLU on stage 1) into arena
  // slabs — no intermediate Tensors, no backward caches. The residual join
  // and final ReLU run elementwise on the finished stage outputs, the same
  // float sequence as ops::add + the in-place ReLU of forward().
  const Shape s1 = conv1_.output_shape(input.shape());
  const Shape s2 = conv2_.output_shape(s1);
  Tensor out(s2);
  ws::WorkspaceScope scope;
  std::span<float> t1 = scope.floats(s1.numel());
  std::span<float> t2 = scope.floats(s2.numel());
  std::span<float> inv1 = scope.floats(bn1_.channels());
  std::span<float> inv2 = scope.floats(bn2_.channels());
  {
    const gemmk::Epilogue ep =
        make_conv_epilogue(conv1_, &bn1_, inv1, /*relu=*/true);
    conv1_.run_fused(input.data(), input.shape().dim(0),
                     input.shape().dim(2), input.shape().dim(3), t1, ep);
  }
  {
    const gemmk::Epilogue ep =
        make_conv_epilogue(conv2_, &bn2_, inv2, /*relu=*/false);
    conv2_.run_fused(t1, s1.dim(0), s1.dim(2), s1.dim(3), t2, ep);
  }
  std::span<const float> skip = input.data();
  if (has_projection_) {
    std::span<float> sp = scope.floats(s2.numel());
    std::span<float> invp = scope.floats(proj_bn_->channels());
    const gemmk::Epilogue ep = make_conv_epilogue(
        *proj_conv_, proj_bn_.get(), invp, /*relu=*/false);
    proj_conv_->run_fused(input.data(), input.shape().dim(0),
                          input.shape().dim(2), input.shape().dim(3), sp, ep);
    skip = sp;
  }
  auto od = out.data();
  for (std::size_t i = 0; i < od.size(); ++i) {
    const float v = t2[i] + skip[i];
    od[i] = v > 0.0F ? v : 0.0F;
  }
  return out;
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  SPLITMED_CHECK(cached_sum_.shape().rank() == 4,
                 "ResidualBlock backward before forward");
  check_same_shape(grad_output.shape(), cached_sum_.shape(),
                   "ResidualBlock backward");
  // Final ReLU mask.
  Tensor g = grad_output;
  {
    auto gd = g.data();
    auto sd = cached_sum_.data();
    for (std::size_t i = 0; i < gd.size(); ++i) {
      if (sd[i] <= 0.0F) gd[i] = 0.0F;
    }
  }
  // Main path: bn2 -> conv2 -> relu1 mask -> bn1 -> conv1.
  Tensor g_main = conv2_.backward(bn2_.backward(g));
  {
    auto gd = g_main.data();
    auto rd = cached_relu1_out_.data();
    for (std::size_t i = 0; i < gd.size(); ++i) {
      if (rd[i] <= 0.0F) gd[i] = 0.0F;
    }
  }
  Tensor grad_input = conv1_.backward(bn1_.backward(g_main));
  // Skip path adds its gradient contribution.
  if (has_projection_) {
    ops::axpy(1.0F, proj_conv_->backward(proj_bn_->backward(g)), grad_input);
  } else {
    ops::axpy(1.0F, g, grad_input);
  }
  return grad_input;
}

Shape ResidualBlock::output_shape(const Shape& input) const {
  return bn2_.output_shape(
      conv2_.output_shape(bn1_.output_shape(conv1_.output_shape(input))));
}

std::vector<Parameter*> ResidualBlock::parameters() {
  std::vector<Parameter*> out;
  for (Parameter* p : conv1_.parameters()) out.push_back(p);
  for (Parameter* p : bn1_.parameters()) out.push_back(p);
  for (Parameter* p : conv2_.parameters()) out.push_back(p);
  for (Parameter* p : bn2_.parameters()) out.push_back(p);
  if (has_projection_) {
    for (Parameter* p : proj_conv_->parameters()) out.push_back(p);
    for (Parameter* p : proj_bn_->parameters()) out.push_back(p);
  }
  return out;
}

std::string ResidualBlock::name() const {
  std::ostringstream os;
  os << "ResidualBlock(" << conv1_.in_channels() << "->"
     << conv1_.out_channels() << (has_projection_ ? ", proj" : "") << ')';
  return os.str();
}

void ResidualBlock::save_extra_state(BufferWriter& writer) const {
  bn1_.save_extra_state(writer);
  bn2_.save_extra_state(writer);
  writer.write_u8(has_projection_ ? 1 : 0);
  if (has_projection_) proj_bn_->save_extra_state(writer);
}

void ResidualBlock::load_extra_state(BufferReader& reader) {
  bn1_.load_extra_state(reader);
  bn2_.load_extra_state(reader);
  const std::uint8_t flag = reader.read_u8();
  if (flag != (has_projection_ ? 1 : 0)) {
    throw SerializationError(
        "ResidualBlock extra state: projection flag mismatch (checkpoint " +
        std::to_string(flag) + ", model " +
        std::to_string(has_projection_ ? 1 : 0) + ")");
  }
  if (has_projection_) proj_bn_->load_extra_state(reader);
}

}  // namespace splitmed::nn
