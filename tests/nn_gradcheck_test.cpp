// Finite-difference gradient checks for every differentiable layer.
//
// Method: with random input x and random upstream weights g, define
// L(x) = <forward(x), g>. The analytic backward gives dL/dx and accumulates
// dL/dθ; both are verified against central finite differences along random
// directions (directional derivatives — robust to fp32 noise while still
// catching any systematic gradient error).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "src/common/rng.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/flatten.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pool.hpp"
#include "src/nn/residual.hpp"
#include "src/nn/sequential.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed {
namespace {

double inner(const Tensor& a, const Tensor& b) {
  double acc = 0.0;
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    acc += static_cast<double>(ad[i]) * bd[i];
  }
  return acc;
}

/// Unit-norm random direction.
Tensor random_direction(const Shape& shape, Rng& rng) {
  Tensor d = Tensor::normal(shape, rng);
  const float norm = ops::l2_norm(d);
  return ops::scale(d, 1.0F / std::max(norm, 1e-12F));
}

struct CheckConfig {
  float eps = 1e-2F;
  float tolerance = 3e-2F;  // on the directional derivative, relative-ish
  int directions = 3;
  std::uint64_t seed = 12345;
};

void expect_close(double analytic, double numeric, float tolerance,
                  const std::string& what) {
  const double scale = std::max({std::abs(analytic), std::abs(numeric), 1e-2});
  EXPECT_NEAR(analytic, numeric, tolerance * scale) << what;
}

/// Checks dL/dinput and dL/dθ for `layer` on a random input of `in_shape`.
void gradcheck_layer(nn::Layer& layer, const Shape& in_shape,
                     const CheckConfig& cfg = {}) {
  Rng rng(cfg.seed);
  const Tensor x = Tensor::normal(in_shape, rng);
  const Shape out_shape = layer.output_shape(in_shape);
  const Tensor g = Tensor::normal(out_shape, rng);

  auto loss_at = [&](const Tensor& input) {
    return inner(layer.forward(input, /*training=*/true), g);
  };

  // Analytic pass (parameters accumulate, input gradient returned).
  layer.zero_grad();
  layer.forward(x, true);
  const Tensor grad_in = layer.backward(g);

  // Input directional derivatives.
  for (int d = 0; d < cfg.directions; ++d) {
    const Tensor dir = random_direction(in_shape, rng);
    const double analytic = inner(grad_in, dir);
    Tensor xp = x, xm = x;
    ops::axpy(cfg.eps, dir, xp);
    ops::axpy(-cfg.eps, dir, xm);
    const double numeric = (loss_at(xp) - loss_at(xm)) / (2.0 * cfg.eps);
    expect_close(analytic, numeric, cfg.tolerance,
                 layer.name() + " input dir " + std::to_string(d));
  }

  // Parameter directional derivatives.
  for (nn::Parameter* p : layer.parameters()) {
    for (int d = 0; d < 2; ++d) {
      const Tensor dir = random_direction(p->value.shape(), rng);
      const double analytic = inner(p->grad, dir);
      const Tensor saved = p->value;
      ops::axpy(cfg.eps, dir, p->value);
      const double lp = loss_at(x);
      p->value = saved;
      ops::axpy(-cfg.eps, dir, p->value);
      const double lm = loss_at(x);
      p->value = saved;
      const double numeric = (lp - lm) / (2.0 * cfg.eps);
      expect_close(analytic, numeric, cfg.tolerance,
                   layer.name() + " param " + p->name + " dir " +
                       std::to_string(d));
    }
  }
}

TEST(GradCheck, Linear) {
  Rng rng(1);
  nn::Linear layer(6, 4, rng);
  gradcheck_layer(layer, Shape{5, 6});
}

TEST(GradCheck, LinearSingleRow) {
  Rng rng(2);
  nn::Linear layer(3, 7, rng);
  gradcheck_layer(layer, Shape{1, 3});
}

struct ConvCase {
  std::int64_t in_c, out_c, kernel, stride, pad, size;
};

class ConvGradCheck : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradCheck, MatchesFiniteDifference) {
  const auto c = GetParam();
  Rng rng(3);
  nn::Conv2d layer(c.in_c, c.out_c, c.kernel, c.stride, c.pad, rng);
  gradcheck_layer(layer, Shape{2, c.in_c, c.size, c.size});
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGradCheck,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 4},   // pointwise
                      ConvCase{3, 4, 3, 1, 1, 6},   // same-pad 3x3
                      ConvCase{2, 3, 3, 2, 0, 7},   // strided, valid
                      ConvCase{2, 2, 5, 1, 2, 8},   // 5x5 same-pad
                      ConvCase{4, 1, 3, 2, 1, 8})); // channel collapse

TEST(GradCheck, ReLU) {
  nn::ReLU layer;
  gradcheck_layer(layer, Shape{4, 10});
}

TEST(GradCheck, MaxPool) {
  nn::MaxPool2d layer(2);
  gradcheck_layer(layer, Shape{2, 3, 6, 6});
}

TEST(GradCheck, MaxPoolStride1) {
  nn::MaxPool2d layer(2, 1);
  CheckConfig cfg;
  cfg.eps = 5e-3F;  // overlapping windows: keep perturbations below tie gaps
  gradcheck_layer(layer, Shape{1, 2, 5, 5}, cfg);
}

TEST(GradCheck, GlobalAvgPool) {
  nn::GlobalAvgPool layer;
  gradcheck_layer(layer, Shape{3, 4, 5, 5});
}

TEST(GradCheck, BatchNorm) {
  nn::BatchNorm2d layer(3);
  gradcheck_layer(layer, Shape{4, 3, 4, 4});
}

TEST(GradCheck, BatchNormSmallBatch) {
  nn::BatchNorm2d layer(2);
  gradcheck_layer(layer, Shape{2, 2, 3, 3});
}

TEST(GradCheck, Flatten) {
  nn::Flatten layer;
  gradcheck_layer(layer, Shape{3, 2, 4});
}

TEST(GradCheck, ResidualBlockIdentitySkip) {
  Rng rng(4);
  nn::ResidualBlock layer(3, 3, 1, rng);
  gradcheck_layer(layer, Shape{2, 3, 6, 6});
}

TEST(GradCheck, ResidualBlockProjectedSkip) {
  Rng rng(5);
  nn::ResidualBlock layer(3, 6, 2, rng);
  gradcheck_layer(layer, Shape{2, 3, 6, 6});
}

TEST(GradCheck, SequentialConvStack) {
  Rng rng(6);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(2, 4, 3, 1, 1, rng);
  seq.emplace<nn::BatchNorm2d>(4);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::MaxPool2d>(2);
  seq.emplace<nn::Flatten>();
  seq.emplace<nn::Linear>(4 * 3 * 3, 5, rng);
  // Small eps: first-layer perturbations amplified through BN + pooling can
  // cross ReLU/argmax kinks at the default step size.
  CheckConfig cfg;
  cfg.eps = 1e-3F;
  cfg.tolerance = 5e-2F;
  gradcheck_layer(seq, Shape{2, 2, 6, 6}, cfg);
}

TEST(GradCheck, SequentialMlp) {
  Rng rng(7);
  nn::Sequential seq;
  seq.emplace<nn::Flatten>();
  seq.emplace<nn::Linear>(12, 8, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Linear>(8, 3, rng);
  gradcheck_layer(seq, Shape{4, 3, 2, 2});
}

}  // namespace
}  // namespace splitmed
