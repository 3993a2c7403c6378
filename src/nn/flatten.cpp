#include "src/nn/flatten.hpp"

#include "src/common/error.hpp"

namespace splitmed::nn {

Shape Flatten::output_shape(const Shape& input) const {
  SPLITMED_CHECK(input.rank() >= 1, "Flatten: rank must be >= 1");
  const std::int64_t batch = input.dim(0);
  const std::int64_t rest = batch == 0 ? 0 : input.numel() / batch;
  return Shape{batch, rest};
}

Tensor Flatten::forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  return infer(input);
}

Tensor Flatten::infer(const Tensor& input) {
  return input.reshape(output_shape(input.shape()));
}

Tensor Flatten::backward(const Tensor& grad_output) {
  SPLITMED_CHECK(cached_input_shape_.rank() >= 1,
                 "Flatten backward before forward");
  return grad_output.reshape(cached_input_shape_);
}

}  // namespace splitmed::nn
