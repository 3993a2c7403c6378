// Tests for optim/: SGD with momentum and weight decay, Adam, convergence.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/flatten.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/parameter.hpp"
#include "src/nn/sequential.hpp"
#include "src/optim/adam.hpp"
#include "src/optim/sgd.hpp"

namespace splitmed {
namespace {

nn::Parameter make_param(std::vector<float> value) {
  const auto n = static_cast<std::int64_t>(value.size());
  return nn::Parameter("p", Tensor(Shape{n}, std::move(value)));
}

TEST(Sgd, PlainStep) {
  nn::Parameter p = make_param({1.0F, 2.0F});
  p.grad = Tensor(Shape{2}, {0.5F, -1.0F});
  optim::Sgd opt({&p}, {.learning_rate = 0.1F});
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.95F);
  EXPECT_FLOAT_EQ(p.value[1], 2.1F);
}

TEST(Sgd, StepDoesNotClearGradients) {
  nn::Parameter p = make_param({1.0F});
  p.grad = Tensor(Shape{1}, {1.0F});
  optim::Sgd opt({&p}, {.learning_rate = 0.1F});
  opt.step();
  EXPECT_FLOAT_EQ(p.grad[0], 1.0F);
}

TEST(Sgd, MomentumAccumulates) {
  nn::Parameter p = make_param({0.0F});
  optim::Sgd opt({&p}, {.learning_rate = 1.0F, .momentum = 0.9F});
  p.grad = Tensor(Shape{1}, {1.0F});
  opt.step();  // v=1, p=-1
  EXPECT_FLOAT_EQ(p.value[0], -1.0F);
  p.grad = Tensor(Shape{1}, {1.0F});
  opt.step();  // v=1.9, p=-2.9
  EXPECT_FLOAT_EQ(p.value[0], -2.9F);
}

TEST(Sgd, WeightDecayAddsL2Pull) {
  nn::Parameter p = make_param({2.0F});
  p.grad = Tensor(Shape{1}, {0.0F});
  optim::Sgd opt({&p}, {.learning_rate = 0.5F, .weight_decay = 0.1F});
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 2.0F - 0.5F * 0.2F);
}

TEST(Sgd, ValidatesOptions) {
  nn::Parameter p = make_param({0.0F});
  EXPECT_THROW(optim::Sgd({&p}, {.learning_rate = 0.0F}), InvalidArgument);
  EXPECT_THROW(optim::Sgd({&p}, {.learning_rate = 0.1F, .momentum = 1.0F}),
               InvalidArgument);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // minimize f(x) = 0.5*(x-3)^2; grad = x-3.
  nn::Parameter p = make_param({10.0F});
  optim::Sgd opt({&p}, {.learning_rate = 0.1F, .momentum = 0.5F});
  for (int i = 0; i < 200; ++i) {
    p.grad = Tensor(Shape{1}, {p.value[0] - 3.0F});
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0F, 1e-3F);
}

TEST(Adam, FirstStepMovesByLearningRate) {
  nn::Parameter p = make_param({0.0F});
  optim::Adam opt({&p}, {.learning_rate = 0.1F});
  p.grad = Tensor(Shape{1}, {123.0F});
  opt.step();
  // Bias-corrected Adam's first step is ~lr regardless of gradient scale.
  EXPECT_NEAR(p.value[0], -0.1F, 1e-4F);
}

TEST(Adam, ConvergesOnQuadratic) {
  nn::Parameter p = make_param({-5.0F});
  optim::Adam opt({&p}, {.learning_rate = 0.2F});
  for (int i = 0; i < 400; ++i) {
    p.grad = Tensor(Shape{1}, {p.value[0] - 1.5F});
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 1.5F, 1e-2F);
}

TEST(Adam, ValidatesOptions) {
  nn::Parameter p = make_param({0.0F});
  EXPECT_THROW(optim::Adam({&p}, {.learning_rate = -1.0F}), InvalidArgument);
  EXPECT_THROW(optim::Adam({&p}, {.learning_rate = 0.1F, .beta1 = 1.0F}),
               InvalidArgument);
}


TEST(Optim, AdamTrainsASmallConvNet) {
  // End-to-end: Adam on a tiny conv net fits a 4-example batch exactly.
  Rng rng(42);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(4 * 4 * 4, 2, rng);
  optim::Adam opt(net.parameters(), {.learning_rate = 0.01F});
  Rng xr(1);
  const Tensor x = Tensor::normal(Shape{4, 1, 4, 4}, xr);
  const std::vector<std::int64_t> labels = {0, 1, 0, 1};
  nn::SoftmaxCrossEntropy loss;
  float final_loss = 0.0F;
  for (int i = 0; i < 150; ++i) {
    net.zero_grad();
    final_loss = loss.forward(net.forward(x, true), labels);
    net.backward(loss.backward());
    opt.step();
  }
  EXPECT_LT(final_loss, 0.05F);
}

}  // namespace
}  // namespace splitmed
