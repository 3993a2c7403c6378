#include "src/nn/residual.hpp"

#include <sstream>

#include "src/common/error.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed::nn {

ResidualBlock::ResidualBlock(std::int64_t in_channels,
                             std::int64_t out_channels, std::int64_t stride,
                             Rng& rng)
    : in_channels_(in_channels), out_channels_(out_channels) {
  // conv1, conv2, then the projection: the Rng draws and parameters()
  // follow this order.
  main_.emplace<Conv2d>(in_channels, out_channels, 3, stride, 1, rng);
  main_.emplace<BatchNorm2d>(out_channels);
  main_.emplace<ReLU>();
  main_.emplace<Conv2d>(out_channels, out_channels, 3, 1, 1, rng);
  main_.emplace<BatchNorm2d>(out_channels);
  if (stride != 1 || in_channels != out_channels) {
    skip_.emplace<Conv2d>(in_channels, out_channels, 1, stride, 0, rng);
    skip_.emplace<BatchNorm2d>(out_channels);
  }
}

namespace {

/// The residual join, the one body behind forward and infer: main becomes
/// max(main + skip, 0) in place, one add and one select per element; when
/// `sum` is non-null it also receives the pre-activation main + skip.
void join(Tensor& main, const Tensor& skip, float* sum) {
  check_same_shape(main.shape(), skip.shape(), "ResidualBlock join");
  auto md = main.data();
  auto sd = skip.data();
  for (std::size_t i = 0; i < md.size(); ++i) {
    const float v = md[i] + sd[i];
    if (sum != nullptr) sum[i] = v;
    md[i] = v > 0.0F ? v : 0.0F;
  }
}

}  // namespace

Tensor ResidualBlock::forward(const Tensor& input, bool training) {
  Tensor out = main_.forward(input, training);
  const Tensor skip = skip_.forward(input, training);
  if (cached_sum_.shape() != out.shape()) cached_sum_ = Tensor(out.shape());
  join(out, skip, cached_sum_.data().data());
  return out;
}

Tensor ResidualBlock::infer(const Tensor& input) {
  Tensor out = main_.infer(input);
  join(out, skip_.infer(input), nullptr);
  return out;
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  SPLITMED_CHECK(cached_sum_.shape().rank() == 4,
                 "ResidualBlock backward before forward");
  check_same_shape(grad_output.shape(), cached_sum_.shape(),
                   "ResidualBlock backward");
  // Final ReLU mask on the pre-activation sum. Unlike ReLU::backward, a
  // NaN pre-activation passes its gradient.
  Tensor g = grad_output;
  auto gd = g.data();
  auto sd = cached_sum_.data();
  for (std::size_t i = 0; i < gd.size(); ++i) {
    gd[i] = sd[i] <= 0.0F ? 0.0F : gd[i];
  }
  Tensor grad_input = main_.backward(g);
  ops::axpy(1.0F, skip_.backward(g), grad_input);
  return grad_input;
}

Shape ResidualBlock::output_shape(const Shape& input) const {
  return main_.output_shape(input);
}

std::vector<Parameter*> ResidualBlock::parameters() {
  std::vector<Parameter*> out = main_.parameters();
  for (Parameter* p : skip_.parameters()) out.push_back(p);
  return out;
}

std::string ResidualBlock::name() const {
  std::ostringstream os;
  os << "ResidualBlock(" << in_channels_ << "->" << out_channels_
     << (skip_.size() > 0 ? ", proj" : "") << ')';
  return os.str();
}

// Each child layer's state in layer order (only the BatchNorms write any),
// without Sequential's layer-count prefix, so the bytes stay those of the
// checkpoint format.
void ResidualBlock::save_extra_state(BufferWriter& writer) const {
  for (std::size_t i = 0; i < main_.size(); ++i) {
    main_.layer(i).save_extra_state(writer);
  }
  writer.write_u8(skip_.size() > 0 ? 1 : 0);
  for (std::size_t i = 0; i < skip_.size(); ++i) {
    skip_.layer(i).save_extra_state(writer);
  }
}

void ResidualBlock::load_extra_state(BufferReader& reader) {
  for (std::size_t i = 0; i < main_.size(); ++i) {
    main_.layer(i).load_extra_state(reader);
  }
  const std::uint8_t flag = reader.read_u8();
  const std::uint8_t has_projection = skip_.size() > 0 ? 1 : 0;
  if (flag != has_projection) {
    throw SerializationError(
        "ResidualBlock extra state: projection flag mismatch (checkpoint " +
        std::to_string(flag) + ", model " + std::to_string(has_projection) +
        ")");
  }
  for (std::size_t i = 0; i < skip_.size(); ++i) {
    skip_.layer(i).load_extra_state(reader);
  }
}

}  // namespace splitmed::nn
