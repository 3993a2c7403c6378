#include "src/nn/linear.hpp"

#include <sstream>

#include "src/common/error.hpp"
#include "src/nn/init.hpp"
#include "src/nn/plan.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("linear.weight",
              he_normal(Shape{out_features, in_features}, in_features, rng)),
      bias_("linear.bias", Tensor::zeros(Shape{out_features})) {
  SPLITMED_CHECK(in_features > 0 && out_features > 0,
                 "Linear: feature counts must be positive");
}

Tensor Linear::forward(const Tensor& input, bool /*training*/) {
  // The bias is the write-back epilogue: the same single add per element a
  // separate pass over the output would do.
  return forward_fused(input, make_linear_epilogue(*this, /*relu=*/false),
                       /*cache=*/true);
}

Tensor Linear::infer(const Tensor& input) {
  return forward_fused(input, make_linear_epilogue(*this, /*relu=*/false),
                       /*cache=*/false);
}

Tensor Linear::forward_fused(const Tensor& input, const gemmk::Epilogue& ep,
                             bool cache) {
  SPLITMED_CHECK(input.shape().rank() == 2 && input.shape().dim(1) == in_,
                 "Linear(" << in_ << "->" << out_ << "): bad input "
                           << input.shape().str());
  if (cache) cached_input_ = input;
  Tensor out(Shape{input.shape().dim(0), out_});
  run_fused(input.data(), input.shape().dim(0), out.data(), ep);
  return out;
}

void Linear::run_fused(std::span<const float> input, std::int64_t batch,
                       std::span<float> out,
                       const gemmk::Epilogue& ep) const {
  SPLITMED_CHECK(input.size() >= static_cast<std::size_t>(batch * in_) &&
                     out.size() >= static_cast<std::size_t>(batch * out_),
                 name() << ": run_fused span too small");
  // Same x·Wᵀ GEMM ops::matmul_nt runs (gemm_nt with identical dims), with
  // the elementwise tail applied per C column at write-back.
  gemm_nt_ep(batch, out_, in_, input.first(static_cast<std::size_t>(
                                  batch * in_)),
             weight_.value.data(),
             out.first(static_cast<std::size_t>(batch * out_)), ep);
}

Tensor Linear::backward(const Tensor& grad_output) {
  return backward_from(grad_output.data(), grad_output.shape());
}

void Linear::backward_params(const Tensor& grad_output) {
  (void)backward_from(grad_output.data(), grad_output.shape(),
                      /*input_grad=*/false);
}

Tensor Linear::backward_from(std::span<const float> grad_output,
                             const Shape& grad_shape, bool input_grad) {
  SPLITMED_CHECK(grad_shape.rank() == 2 && grad_shape.dim(1) == out_,
                 "Linear backward: bad grad " << grad_shape.str());
  SPLITMED_CHECK(cached_input_.shape().rank() == 2,
                 "Linear backward before forward");
  // dW += gᵀ·x : [out,b]·[b,in]; db += column sums of g; dx = g·W.
  // The dW product lands in workspace scratch instead of a fresh Tensor —
  // no heap allocation in steady state. Adding it elementwise matches the
  // old axpy(1.0F, ...) bitwise (1.0f * x == x exactly).
  const std::int64_t batch = grad_shape.dim(0);
  {
    ws::WorkspaceScope scratch;
    std::span<float> dw = scratch.floats(out_ * in_);
    gemm_tn(out_, in_, batch, grad_output, cached_input_.data(), dw);
    auto wg = weight_.grad.data();
    for (std::int64_t i = 0; i < out_ * in_; ++i) wg[i] += dw[i];
  }
  auto bg = bias_.grad.data();
  for (std::int64_t r = 0; r < batch; ++r) {
    const float* row = grad_output.data() + r * out_;
    for (std::int64_t c = 0; c < out_; ++c) bg[c] += row[c];
  }
  if (!input_grad) return {};
  // dx = g·W — the same gemm_nn call ops::matmul(grad_output, weight_.value)
  // lowers to (ops.cpp), bitwise identical.
  Tensor dx(Shape{batch, in_});
  gemm_nn(batch, in_, out_, grad_output, weight_.value.data(), dx.data());
  return dx;
}

Shape Linear::output_shape(const Shape& input) const {
  SPLITMED_CHECK(input.rank() == 2 && input.dim(1) == in_,
                 "Linear::output_shape: bad input " << input.str());
  return Shape{input.dim(0), out_};
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "Linear(" << in_ << "->" << out_ << ')';
  return os.str();
}

}  // namespace splitmed::nn
