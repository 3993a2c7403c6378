// Behavioural tests for nn layers: output shapes, forward semantics,
// train/eval mode differences. Gradient correctness lives in
// nn_gradcheck_test.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/dropout.hpp"
#include "src/nn/flatten.hpp"
#include "src/nn/init.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pool.hpp"
#include "src/nn/residual.hpp"
#include "src/nn/sequential.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed {
namespace {

TEST(Init, HeNormalStddev) {
  Rng rng(1);
  const Tensor w = nn::he_normal(Shape{10000}, 50, rng);
  double sq = 0.0;
  for (const float v : w.data()) sq += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(sq / 10000.0), std::sqrt(2.0 / 50.0), 0.01);
}

TEST(Init, XavierUniformBounds) {
  Rng rng(2);
  const Tensor w = nn::xavier_uniform(Shape{1000}, 30, 70, rng);
  const float limit = std::sqrt(6.0F / 100.0F);
  for (const float v : w.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

TEST(Linear, ForwardMatchesManual) {
  Rng rng(3);
  nn::Linear lin(2, 2, rng);
  lin.weight().value = Tensor(Shape{2, 2}, {1, 2, 3, 4});
  lin.bias().value = Tensor(Shape{2}, {10, 20});
  const Tensor x(Shape{1, 2}, {1, 1});
  const Tensor y = lin.forward(x, true);
  EXPECT_EQ(y.at({0, 0}), 13.0F);  // 1*1+2*1+10
  EXPECT_EQ(y.at({0, 1}), 27.0F);  // 3*1+4*1+20
}

TEST(Linear, RejectsWrongInput) {
  Rng rng(3);
  nn::Linear lin(4, 2, rng);
  EXPECT_THROW(lin.forward(Tensor(Shape{1, 5}), true), InvalidArgument);
  EXPECT_THROW(lin.forward(Tensor(Shape{4}), true), InvalidArgument);
}

TEST(Linear, OutputShapeAndParamCount) {
  Rng rng(3);
  nn::Linear lin(4, 3, rng);
  EXPECT_EQ(lin.output_shape(Shape{7, 4}), Shape({7, 3}));
  EXPECT_EQ(lin.parameter_count(), 4 * 3 + 3);
  EXPECT_EQ(lin.name(), "Linear(4->3)");
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(4);
  nn::Conv2d conv(1, 1, 1, 1, 0, rng);
  conv.parameters()[0]->value = Tensor(Shape{1, 1}, {1.0F});
  conv.parameters()[1]->value = Tensor(Shape{1}, {0.0F});
  Rng xr(5);
  const Tensor x = Tensor::normal(Shape{2, 1, 4, 4}, xr);
  const Tensor y = conv.forward(x, true);
  EXPECT_LT(ops::max_abs_diff(x, y), 1e-6F);
}

TEST(Conv2d, KnownSmallConvolution) {
  Rng rng(4);
  nn::Conv2d conv(1, 1, 2, 1, 0, rng);
  // Kernel [[1,2],[3,4]], bias 1.
  conv.parameters()[0]->value = Tensor(Shape{1, 4}, {1, 2, 3, 4});
  conv.parameters()[1]->value = Tensor(Shape{1}, {1.0F});
  const Tensor x(Shape{1, 1, 2, 2}, {1, 1, 1, 1});
  const Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_EQ(y[0], 11.0F);  // 1+2+3+4 + bias
}

TEST(Conv2d, OutputShapeWithStridePad) {
  Rng rng(4);
  nn::Conv2d conv(3, 8, 3, 2, 1, rng);
  EXPECT_EQ(conv.output_shape(Shape{5, 3, 32, 32}), Shape({5, 8, 16, 16}));
  EXPECT_EQ(conv.parameter_count(), 8 * 27 + 8);
}

TEST(Conv2d, RejectsWrongChannels) {
  Rng rng(4);
  nn::Conv2d conv(3, 8, 3, 1, 1, rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 4, 8, 8}), true),
               InvalidArgument);
}

TEST(ReLU, ClampsNegatives) {
  nn::ReLU relu;
  const Tensor x(Shape{4}, {-2, -0.5F, 0, 3});
  const Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 0.0F);
  EXPECT_EQ(y[2], 0.0F);
  EXPECT_EQ(y[3], 3.0F);
}

TEST(ReLU, BackwardMasks) {
  nn::ReLU relu;
  const Tensor x(Shape{3}, {-1, 2, -3});
  relu.forward(x, true);
  const Tensor g(Shape{3}, {10, 20, 30});
  const Tensor gin = relu.backward(g);
  EXPECT_EQ(gin[0], 0.0F);
  EXPECT_EQ(gin[1], 20.0F);
  EXPECT_EQ(gin[2], 0.0F);

  // Special values, bit for bit: a kept lane (activation > 0) carries the
  // gradient's exact bits, NaN payloads and -0.0 included; a masked lane
  // (NaN, ±0.0, negative activations) is +0.0, bits 0. Eleven lanes, so
  // both the vector body and its scalar tail run.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::uint32_t nan_a = 0x7FC00001U, nan_b = 0xFFC0BEEFU;
  struct Lane {
    float act;
    std::uint32_t grad;
    std::uint32_t want;
  };
  const Lane lanes[] = {
      {nan, 0x41200000U, 0U},          // NaN activation masks
      {0.0F, 0x41200000U, 0U},         // +0.0 masks
      {-0.0F, nan_a, 0U},              // -0.0 masks, even a NaN gradient
      {denorm, 0x41200000U, 0x41200000U},  // a denormal is > 0: kept
      {inf, nan_a, nan_a},             // kept NaN keeps its payload
      {-inf, 0x41200000U, 0U},
      {2.0F, 0x80000000U, 0x80000000U},  // kept -0.0 stays -0.0
      {-denorm, nan_b, 0U},
      {3.0F, nan_b, nan_b},
      {-1.0F, 0x80000000U, 0U},
      {inf, 0xC1A00000U, 0xC1A00000U},
  };
  constexpr std::int64_t kLanes = sizeof(lanes) / sizeof(lanes[0]);
  Tensor xs(Shape{kLanes});
  Tensor gs(Shape{kLanes});
  for (std::int64_t i = 0; i < kLanes; ++i) {
    xs[i] = lanes[i].act;
    gs[i] = std::bit_cast<float>(lanes[i].grad);
  }
  nn::ReLU special;
  special.forward(xs, true);
  const Tensor masked = special.backward(gs);
  for (std::int64_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(masked[i]), lanes[i].want)
        << "lane " << i;
  }
}

TEST(MaxPool2d, SelectsWindowMaxima) {
  nn::MaxPool2d pool(2);
  const Tensor x(Shape{1, 1, 2, 4}, {1, 5, 2, 0,
                                     3, 4, 8, 7});
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 2}));
  EXPECT_EQ(y[0], 5.0F);
  EXPECT_EQ(y[1], 8.0F);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  nn::MaxPool2d pool(2);
  const Tensor x(Shape{1, 1, 2, 2}, {1, 9, 3, 4});
  pool.forward(x, true);
  const Tensor g(Shape{1, 1, 1, 1}, {5.0F});
  const Tensor gin = pool.backward(g);
  EXPECT_EQ(gin[0], 0.0F);
  EXPECT_EQ(gin[1], 5.0F);
  EXPECT_EQ(gin[2], 0.0F);
  EXPECT_EQ(gin[3], 0.0F);
}

TEST(MaxPool2d, WindowWithoutMaximumKeepsGradientInItsPlane) {
  // A window whose values are all NaN or all -inf has no element above the
  // -inf the scan starts from. Its gradient must still land in its own
  // (sample, channel) plane — on the window's first element — and never in
  // another plane, which would also race under the parallel scatter. Enough
  // planes that the backward splits into several chunks at 3 threads.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  const std::int64_t batch = 4, ch = 40, hw = 32;
  Rng rng(23);
  Tensor x = Tensor::normal(Shape{batch, ch, hw, hw}, rng);
  auto xd = x.data();
  const auto at = [&](std::int64_t b, std::int64_t c, std::int64_t y,
                      std::int64_t xx) {
    return static_cast<std::size_t>(((b * ch + c) * hw + y) * hw + xx);
  };
  for (std::int64_t b = 1; b < batch; ++b) {
    for (std::int64_t c = 1; c < ch; c += 7) {
      for (const std::int64_t y : {0, 1}) {  // window (0, 0): all NaN
        for (const std::int64_t xx : {0, 1}) xd[at(b, c, y, xx)] = nan;
      }
      for (const std::int64_t y : {6, 7}) {  // window (3, 2): all -inf
        for (const std::int64_t xx : {4, 5}) xd[at(b, c, y, xx)] = ninf;
      }
    }
  }
  std::vector<float> grads[2];
  const int thread_counts[2] = {1, 3};
  for (int t = 0; t < 2; ++t) {
    set_global_threads(thread_counts[t]);
    nn::MaxPool2d pool(2);
    const Tensor y = pool.forward(x, true);
    const Tensor g = Tensor::full(y.shape(), 1.0F);
    const Tensor gin = pool.backward(g);
    grads[t].assign(gin.data().begin(), gin.data().end());
  }
  set_global_threads(0);
  // Every plane gets exactly one unit of gradient per window.
  const std::int64_t plane = hw * hw;
  for (std::int64_t p = 0; p < batch * ch; ++p) {
    float sum = 0.0F;
    for (std::int64_t i = 0; i < plane; ++i) {
      sum += grads[0][static_cast<std::size_t>(p * plane + i)];
    }
    EXPECT_EQ(sum, static_cast<float>(plane / 4)) << "plane " << p;
  }
  EXPECT_EQ(grads[0][at(1, 1, 0, 0)], 1.0F);  // the NaN window's first
  EXPECT_EQ(grads[0][at(1, 1, 6, 4)], 1.0F);  // the -inf window's first
  ASSERT_EQ(grads[0].size(), grads[1].size());
  EXPECT_EQ(std::memcmp(grads[0].data(), grads[1].data(),
                        grads[0].size() * sizeof(float)),
            0)
      << "MaxPool2d backward differs between 1 and 3 threads";
}

TEST(MaxPool2d, InferMatchesForwardOnSpecialWindowsBitwise) {
  // infer's 2x2/stride-2 scan must resolve NaN, all-NaN windows (-inf),
  // +-0.0 ties and -inf exactly as forward's argmax scan: every window is
  // compared bit for bit at every position, at 1 and 3 threads.
  const float nan1 = std::bit_cast<float>(0x7FC00001U);
  const float nan2 = std::bit_cast<float>(0xFFC12345U);
  const float snan = std::bit_cast<float>(0x7F800003U);
  const float inf = std::numeric_limits<float>::infinity();
  // Each group of four is one window, in scan order (top-left, top-right,
  // bottom-left, bottom-right).
  const std::vector<std::vector<float>> windows = {
      {nan1, 1.0F, 2.0F, 3.0F},    {1.0F, nan2, 5.0F, 2.0F},
      {2.0F, 1.0F, 0.5F, snan},    {nan1, nan2, snan, nan1},
      {-0.0F, 0.0F, -0.0F, 0.0F},  {0.0F, -0.0F, 0.0F, -0.0F},
      {-inf, -inf, -inf, -inf},    {-inf, nan1, -inf, nan2},
      {nan2, -inf, -0.0F, 0.0F},   {inf, nan1, 1.0F, inf},
      {-1.0F, -2.0F, -0.5F, -3.0F}, {0.0F, -1.0F, nan1, -0.0F}};
  const std::int64_t ow = static_cast<std::int64_t>(windows.size());
  const std::int64_t batch = 3, ch = 5, iw = 2 * ow;
  // An odd height leaves a row of +inf between planes that no window may
  // read: infer scans such planes with the general scan, so only height 2
  // takes the 2x2 scan over a run of planes.
  for (const std::int64_t ih : {2, 3}) {
    Tensor x = Tensor::full(Shape{batch, ch, ih, iw}, inf);
    auto xd = x.data();
    for (std::int64_t p = 0; p < batch * ch; ++p) {
      for (std::int64_t w = 0; w < ow; ++w) {
        // Rotate the windows per plane so each sits at every position.
        const auto& v = windows[static_cast<std::size_t>((w + p) % ow)];
        float* plane = xd.data() + p * ih * iw;
        plane[2 * w] = v[0];
        plane[2 * w + 1] = v[1];
        plane[iw + 2 * w] = v[2];
        plane[iw + 2 * w + 1] = v[3];
      }
    }
    for (const int threads : {1, 3}) {
      set_global_threads(threads);
      nn::MaxPool2d pool(2);
      const Tensor want = pool.forward(x, false);
      const Tensor got = pool.infer(x);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                            got.data().size_bytes()),
                0)
          << "height " << ih << " threads " << threads;
      // Spot-check the resolutions themselves on plane 0.
      const auto bits = [&](std::int64_t w) {
        return std::bit_cast<std::uint32_t>(got[static_cast<std::size_t>(w)]);
      };
      EXPECT_EQ(got[0], 3.0F);
      EXPECT_EQ(bits(3), std::bit_cast<std::uint32_t>(-inf));  // all NaN
      EXPECT_EQ(bits(4), std::bit_cast<std::uint32_t>(-0.0F));  // first zero
      EXPECT_EQ(bits(5), std::bit_cast<std::uint32_t>(0.0F));
      EXPECT_EQ(bits(7), std::bit_cast<std::uint32_t>(-inf));
      EXPECT_EQ(got[9], inf);
    }
  }
  set_global_threads(0);
}

TEST(MaxPool2d, WindowTooLargeThrows) {
  nn::MaxPool2d pool(4);
  EXPECT_THROW(pool.output_shape(Shape{1, 1, 2, 2}), InvalidArgument);
}

TEST(GlobalAvgPool, AveragesPlanes) {
  nn::GlobalAvgPool gap;
  const Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  const Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5F);
  EXPECT_FLOAT_EQ(y[1], 10.0F);
}


TEST(BatchNorm2d, NormalizesBatchStatistics) {
  nn::BatchNorm2d bn(2);
  Rng rng(7);
  const Tensor x = Tensor::normal(Shape{8, 2, 4, 4}, rng, 3.0F, 2.0F);
  const Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1 after normalization with unit gamma.
  const std::int64_t hw = 16, batch = 8;
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t i = 0; i < hw; ++i) {
        const float v = y[(b * 2 + c) * hw + i];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    const double n = static_cast<double>(batch * hw);
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sq / n, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  nn::BatchNorm2d bn(1);
  Rng rng(8);
  // Feed several batches to converge running stats toward N(5, 4).
  for (int i = 0; i < 200; ++i) {
    const Tensor x = Tensor::normal(Shape{4, 1, 4, 4}, rng, 5.0F, 2.0F);
    bn.forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.0F, 0.3F);
  EXPECT_NEAR(bn.running_var()[0], 4.0F, 0.6F);
  // Eval on a constant input: output should be (5-mean)/sqrt(var) ~ 0.
  const Tensor x = Tensor::full(Shape{1, 1, 2, 2}, 5.0F);
  const Tensor y = bn.forward(x, false);
  EXPECT_NEAR(y[0], 0.0F, 0.2F);
}

TEST(BatchNorm2d, BackwardBeforeAnyForwardThrows) {
  nn::BatchNorm2d bn(1);
  EXPECT_THROW(bn.backward(Tensor(Shape{1, 1, 2, 2})), InvalidArgument);
}

TEST(BatchNorm2d, EvalBackwardIsFrozenAffine) {
  nn::BatchNorm2d bn(1);
  Rng rng(30);
  // Converge running stats so eval normalization is non-trivial.
  for (int i = 0; i < 50; ++i) {
    bn.forward(Tensor::normal(Shape{4, 1, 3, 3}, rng, 2.0F, 3.0F), true);
  }
  bn.zero_grad();
  const Tensor x = Tensor::normal(Shape{2, 1, 3, 3}, rng);
  bn.forward(x, false);
  const Tensor g = Tensor::ones(Shape{2, 1, 3, 3});
  const Tensor gin = bn.backward(g);
  // dx = gamma / sqrt(rv + eps) * g — constant per channel.
  const float scale =
      1.0F / std::sqrt(bn.running_var()[0] + 1e-5F);
  for (std::int64_t i = 0; i < gin.numel(); ++i) {
    EXPECT_NEAR(gin[i], scale, 1e-5F);
  }
  // dbeta = sum g = 18.
  EXPECT_NEAR(bn.parameters()[1]->grad[0], 18.0F, 1e-4F);
}

TEST(Dropout, EvalModeIsIdentity) {
  Rng rng(9);
  nn::Dropout drop(0.5F, rng);
  Rng xr(10);
  const Tensor x = Tensor::normal(Shape{64}, xr);
  const Tensor y = drop.forward(x, false);
  EXPECT_EQ(ops::max_abs_diff(x, y), 0.0F);
}

TEST(Dropout, TrainModeDropsAndRescales) {
  Rng rng(11);
  nn::Dropout drop(0.5F, rng);
  const Tensor x = Tensor::ones(Shape{10000});
  const Tensor y = drop.forward(x, true);
  std::int64_t zeros = 0;
  for (const float v : y.data()) {
    if (v == 0.0F) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0F);  // kept values scaled by 1/(1-p)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
}

TEST(Dropout, BackwardUsesSameMask) {
  Rng rng(12);
  nn::Dropout drop(0.3F, rng);
  const Tensor x = Tensor::ones(Shape{128});
  const Tensor y = drop.forward(x, true);
  const Tensor gin = drop.backward(Tensor::ones(Shape{128}));
  // grad passes exactly where the forward passed.
  EXPECT_EQ(ops::max_abs_diff(gin, y), 0.0F);
}

TEST(Dropout, RejectsBadProbability) {
  Rng rng(13);
  EXPECT_THROW(nn::Dropout(1.0F, rng), InvalidArgument);
  EXPECT_THROW(nn::Dropout(-0.1F, rng), InvalidArgument);
}

TEST(Flatten, CollapsesTrailingDims) {
  nn::Flatten flat;
  const Tensor x(Shape{2, 3, 4});
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 12}));
  const Tensor g = flat.backward(Tensor(Shape{2, 12}));
  EXPECT_EQ(g.shape(), Shape({2, 3, 4}));
}

TEST(Layers, InferLeavesThePendingBackwardAlone) {
  // infer() equals forward(x, false) bitwise, and a backward pending from a
  // training forward is unchanged by an infer() in between — even at
  // another batch size, as when evaluation runs while a step is in flight.
  constexpr int kLinear = 7;
  const auto make = [](int which, Rng& rng) -> nn::LayerPtr {
    switch (which) {
      case 0: return std::make_unique<nn::Dropout>(0.5F, rng);
      case 1: return std::make_unique<nn::Flatten>();
      case 2: return std::make_unique<nn::GlobalAvgPool>();
      case 3: return std::make_unique<nn::ReLU>();
      case 4: return std::make_unique<nn::BatchNorm2d>(3);
      case 5: return std::make_unique<nn::MaxPool2d>(2);
      case 6: return std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, rng);
      default: return std::make_unique<nn::Linear>(48, 5, rng);
    }
  };
  Rng data(37);
  const Tensor images = Tensor::normal(Shape{2, 3, 4, 4}, data);
  const Tensor other_images = Tensor::normal(Shape{5, 3, 4, 4}, data);
  for (int which = 0; which <= kLinear; ++which) {
    // Linear sees the same data, one 48-feature row per image.
    const Tensor x =
        which == kLinear ? images.reshape(Shape{2, 48}) : images;
    const Tensor other =
        which == kLinear ? other_images.reshape(Shape{5, 48}) : other_images;
    Rng rng_a(41);
    Rng rng_b(41);
    Rng rng_c(41);
    nn::LayerPtr a = make(which, rng_a);  // forward, backward
    nn::LayerPtr b = make(which, rng_b);  // forward, infer, backward
    nn::LayerPtr c = make(which, rng_c);  // forward, eval-mode forward
    const Tensor y = a->forward(x, true);
    (void)b->forward(x, true);
    // The same training forward, so BatchNorm's running statistics match b's.
    (void)c->forward(x, true);
    const Tensor g = Tensor::normal(y.shape(), data);
    const Tensor inferred = b->infer(other);
    const Tensor eval = c->forward(other, false);
    ASSERT_EQ(inferred.shape(), eval.shape()) << a->name();
    EXPECT_EQ(std::memcmp(inferred.data().data(), eval.data().data(),
                          eval.data().size_bytes()),
              0)
        << a->name();
    const Tensor want = a->backward(g);
    const Tensor got = b->backward(g);
    ASSERT_EQ(got.shape(), want.shape()) << a->name();
    EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                          want.data().size_bytes()),
              0)
        << a->name();
    // Linear's input gradient never reads its input cache; the weight
    // gradient does.
    const std::vector<nn::Parameter*> want_params = a->parameters();
    const std::vector<nn::Parameter*> got_params = b->parameters();
    ASSERT_EQ(got_params.size(), want_params.size()) << a->name();
    for (std::size_t i = 0; i < want_params.size(); ++i) {
      const auto want_grad = want_params[i]->grad.data();
      EXPECT_EQ(std::memcmp(got_params[i]->grad.data().data(),
                            want_grad.data(), want_grad.size_bytes()),
                0)
          << a->name() << " parameter " << i;
    }
  }
}

TEST(Sequential, ChainsLayersAndShapes) {
  Rng rng(14);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::MaxPool2d>(2);
  seq.emplace<nn::Flatten>();
  seq.emplace<nn::Linear>(4 * 4 * 4, 5, rng);
  EXPECT_EQ(seq.size(), 5U);
  EXPECT_EQ(seq.output_shape(Shape{2, 1, 8, 8}), Shape({2, 5}));
  const Tensor y = seq.forward(Tensor(Shape{2, 1, 8, 8}), true);
  EXPECT_EQ(y.shape(), Shape({2, 5}));
  EXPECT_EQ(seq.parameters().size(), 4U);  // conv W/b + linear W/b
}

TEST(Sequential, ActivationShapesListsEveryStage) {
  Rng rng(15);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(1, 2, 3, 1, 1, rng);
  seq.emplace<nn::MaxPool2d>(2);
  const auto shapes = seq.activation_shapes(Shape{1, 1, 8, 8});
  ASSERT_EQ(shapes.size(), 3U);
  EXPECT_EQ(shapes[0], Shape({1, 1, 8, 8}));
  EXPECT_EQ(shapes[1], Shape({1, 2, 8, 8}));
  EXPECT_EQ(shapes[2], Shape({1, 2, 4, 4}));
}

TEST(Sequential, ExtractSplitsInPlace) {
  Rng rng(16);
  nn::Sequential seq;
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Flatten>();
  seq.emplace<nn::Dropout>(0.5F, rng);
  nn::Sequential front = seq.extract(0, 1);
  EXPECT_EQ(front.size(), 1U);
  EXPECT_EQ(seq.size(), 2U);
  EXPECT_EQ(front.layer(0).name(), "ReLU");
  EXPECT_EQ(seq.layer(0).name(), "Flatten");
}

TEST(Sequential, ExtractValidatesRange) {
  nn::Sequential seq;
  seq.emplace<nn::ReLU>();
  EXPECT_THROW(seq.extract(0, 2), InvalidArgument);
  EXPECT_THROW(seq.extract(2, 1), InvalidArgument);
}

TEST(ResidualBlock, IdentityShapeAndProjection) {
  Rng rng(17);
  nn::ResidualBlock same(8, 8, 1, rng);
  EXPECT_EQ(same.output_shape(Shape{2, 8, 8, 8}), Shape({2, 8, 8, 8}));
  EXPECT_EQ(same.parameters().size(), 8U);  // 2x(conv W/b) + 2x(bn g/b)

  nn::ResidualBlock proj(8, 16, 2, rng);
  EXPECT_EQ(proj.output_shape(Shape{2, 8, 8, 8}), Shape({2, 16, 4, 4}));
  EXPECT_EQ(proj.parameters().size(), 12U);  // + projection conv/bn
}

TEST(ResidualBlock, ForwardRunsAndIsNonNegative) {
  Rng rng(18);
  nn::ResidualBlock block(4, 4, 1, rng);
  Rng xr(19);
  const Tensor x = Tensor::normal(Shape{2, 4, 6, 6}, xr);
  const Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  for (const float v : y.data()) EXPECT_GE(v, 0.0F);  // final ReLU
}

TEST(ResidualBlock, BackwardMaskPassesNanAndMasksNegativeZero) {
  // The final ReLU's mask on the pre-activation sum, through the block's
  // own backward. conv2's weights and bias are zero and bn2's gamma is
  // -0.0, so bn2 writes exactly its beta: channel 0's beta is NaN (a NaN
  // pre-activation everywhere), channel 1's is -0.0, so its pre-activation
  // is the input itself (-0.0 + x == x bit for bit). The main path's input
  // gradient is then ±0.0 everywhere, and the identity skip adds the
  // masked gradient to it: a kept lane reads the gradient exactly, a
  // masked lane +0.0.
  Rng rng(31);
  nn::ResidualBlock block(2, 2, 1, rng);
  const std::vector<nn::Parameter*> params = block.parameters();
  ASSERT_EQ(params.size(), 8U);  // conv1 W/b, bn1 g/b, conv2 W/b, bn2 g/b
  params[4]->value.fill(0.0F);
  params[5]->value.fill(0.0F);
  params[6]->value.fill(-0.0F);
  params[7]->value[0] = std::numeric_limits<float>::quiet_NaN();
  params[7]->value[1] = -0.0F;
  const float denorm = std::numeric_limits<float>::denorm_min();
  const Tensor x(Shape{1, 2, 2, 2}, {1.0F, -2.0F, 0.5F, 3.0F,  // channel 0
                                     -0.0F, denorm, -3.0F, 2.0F});
  const Tensor y = block.forward(x, true);
  for (const float v : y.data()) EXPECT_FALSE(std::signbit(v));

  const Tensor g(Shape{1, 2, 2, 2},
                 {5.0F, -7.0F, 9.0F, 11.0F, 13.0F, 17.0F, 19.0F, 23.0F});
  const Tensor gin = block.backward(g);
  const std::uint32_t want[] = {
      std::bit_cast<std::uint32_t>(5.0F),   // NaN pre-activation: passes
      std::bit_cast<std::uint32_t>(-7.0F),
      std::bit_cast<std::uint32_t>(9.0F),
      std::bit_cast<std::uint32_t>(11.0F),
      0U,                                   // -0.0 pre-activation: +0.0
      std::bit_cast<std::uint32_t>(17.0F),  // a denormal is > 0: kept
      0U,
      std::bit_cast<std::uint32_t>(23.0F),
  };
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(gin[i]), want[i]) << "lane " << i;
  }
}

TEST(ResidualBlock, ExtraStateBytesArePinned) {
  // A checkpoint holds the block's BatchNorm running statistics in a fixed
  // order: bn1, bn2, a u8 projection flag, then the projection BN. Pins the
  // bytes after three training forwards, and that loading them into a
  // fresh block reproduces the source block's inference bitwise.
  struct Case {
    std::int64_t in;
    std::int64_t out;
    std::int64_t stride;
    std::uint64_t hash;  ///< FNV-1a over the save_extra_state bytes
  };
  for (const Case& c : {Case{4, 4, 1, 241168011302399221ULL},
                        Case{4, 8, 2, 5197251558240403189ULL}}) {
    const std::string tag = "ResidualBlock(" + std::to_string(c.in) + "->" +
                            std::to_string(c.out) + ")";
    Rng rng(23);
    nn::ResidualBlock block(c.in, c.out, c.stride, rng);
    Rng xr(29);
    for (int i = 0; i < 3; ++i) {
      (void)block.forward(Tensor::normal(Shape{2, c.in, 6, 6}, xr), true);
    }
    BufferWriter writer;
    block.save_extra_state(writer);
    std::uint64_t hash = 14695981039346656037ULL;
    for (const std::uint8_t b : writer.bytes()) {
      hash ^= b;
      hash *= 1099511628211ULL;
    }
    EXPECT_EQ(hash, c.hash) << tag << ", " << writer.size() << " bytes";

    Rng fresh_rng(23);
    nn::ResidualBlock fresh(c.in, c.out, c.stride, fresh_rng);
    BufferReader reader(writer.bytes());
    fresh.load_extra_state(reader);
    EXPECT_TRUE(reader.exhausted()) << tag;
    const Tensor x = Tensor::normal(Shape{2, c.in, 6, 6}, xr);
    const Tensor want = block.infer(x);
    const Tensor got = fresh.infer(x);
    ASSERT_EQ(got.shape(), want.shape()) << tag;
    EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                          want.byte_size()),
              0)
        << tag;
  }
}

}  // namespace
}  // namespace splitmed
