#include "src/nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/serial/tensor_codec.hpp"

namespace splitmed::nn {
namespace {

/// Channels per parallel chunk. Every BatchNorm loop below is a sweep of
/// independent channels — statistics, parameters, and activation planes are
/// all indexed by c — so a channel partition writes disjoint memory and the
/// per-channel accumulation order never changes with the thread count.
std::int64_t bn_channel_grain(std::int64_t batch, std::int64_t hw) {
  constexpr std::int64_t kParallelElems = 16 * 1024;
  return std::max<std::int64_t>(
      1, kParallelElems / std::max<std::int64_t>(batch * hw, 1));
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Tensor::ones(Shape{channels})),
      beta_("bn.beta", Tensor::zeros(Shape{channels})),
      running_mean_(Shape{channels}),
      running_var_(Tensor::ones(Shape{channels})) {
  SPLITMED_CHECK(channels > 0, "BatchNorm2d: channels must be positive");
  SPLITMED_CHECK(momentum > 0.0F && momentum <= 1.0F,
                 "BatchNorm2d: momentum in (0,1]");
}

Shape BatchNorm2d::output_shape(const Shape& input) const {
  SPLITMED_CHECK(input.rank() == 4 && input.dim(1) == channels_,
                 "BatchNorm2d(" << channels_ << "): bad input "
                                << input.str());
  return input;
}

Tensor BatchNorm2d::forward(const Tensor& input, bool training) {
  if (!training) {
    // infer() validates the input before the flags and the cache change.
    Tensor out = infer(input);
    last_forward_training_ = false;
    has_forward_ = true;
    cached_eval_input_ = input;
    return out;
  }
  (void)output_shape(input.shape());
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t hw = input.shape().dim(2) * input.shape().dim(3);
  const std::int64_t m = batch * hw;
  SPLITMED_CHECK(m > 0, "BatchNorm2d: empty batch");

  Tensor out(input.shape());
  auto id = input.data();
  auto od = out.data();
  auto gd = gamma_.value.data();
  auto bd = beta_.value.data();

  last_forward_training_ = true;
  has_forward_ = true;
  cached_xhat_ = Tensor(input.shape());
  cached_inv_std_ = Tensor(Shape{channels_});
  auto xh = cached_xhat_.data();
  auto is = cached_inv_std_.data();
  auto rm = running_mean_.data();
  auto rv = running_var_.data();
  parallel_for(0, channels_, bn_channel_grain(batch, hw),
               [&](std::int64_t cc0, std::int64_t cc1) {
    for (std::int64_t c = cc0; c < cc1; ++c) {
      double sum = 0.0, sq = 0.0;
      for (std::int64_t b = 0; b < batch; ++b) {
        const float* plane = id.data() + (b * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          sum += plane[i];
          sq += static_cast<double>(plane[i]) * plane[i];
        }
      }
      const float mean = static_cast<float>(sum / m);
      const float var =
          static_cast<float>(sq / m - static_cast<double>(mean) * mean);
      const float inv_std = 1.0F / std::sqrt(var + eps_);
      is[static_cast<std::size_t>(c)] = inv_std;
      rm[static_cast<std::size_t>(c)] =
          (1.0F - momentum_) * rm[static_cast<std::size_t>(c)] +
          momentum_ * mean;
      rv[static_cast<std::size_t>(c)] =
          (1.0F - momentum_) * rv[static_cast<std::size_t>(c)] +
          momentum_ * var;
      const float g = gd[static_cast<std::size_t>(c)];
      const float bt = bd[static_cast<std::size_t>(c)];
      for (std::int64_t b = 0; b < batch; ++b) {
        const float* in_plane = id.data() + (b * channels_ + c) * hw;
        float* xhat_plane = xh.data() + (b * channels_ + c) * hw;
        float* out_plane = od.data() + (b * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          const float xhat = (in_plane[i] - mean) * inv_std;
          xhat_plane[i] = xhat;
          out_plane[i] = g * xhat + bt;
        }
      }
    }
  });
  return out;
}

Tensor BatchNorm2d::infer(const Tensor& input) {
  (void)output_shape(input.shape());
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t hw = input.shape().dim(2) * input.shape().dim(3);
  SPLITMED_CHECK(batch * hw > 0, "BatchNorm2d: empty batch");
  Tensor out(input.shape());
  auto id = input.data();
  auto od = out.data();
  auto gd = gamma_.value.data();
  auto bd = beta_.value.data();
  auto rm = running_mean_.data();
  auto rv = running_var_.data();
  parallel_for(0, channels_, bn_channel_grain(batch, hw),
               [&](std::int64_t cc0, std::int64_t cc1) {
    for (std::int64_t c = cc0; c < cc1; ++c) {
      const float mean = rm[static_cast<std::size_t>(c)];
      const float inv_std =
          1.0F / std::sqrt(rv[static_cast<std::size_t>(c)] + eps_);
      const float g = gd[static_cast<std::size_t>(c)];
      const float bt = bd[static_cast<std::size_t>(c)];
      for (std::int64_t b = 0; b < batch; ++b) {
        const float* in_plane = id.data() + (b * channels_ + c) * hw;
        float* out_plane = od.data() + (b * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          out_plane[i] = g * (in_plane[i] - mean) * inv_std + bt;
        }
      }
    }
  });
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  SPLITMED_CHECK(has_forward_, "BatchNorm2d backward before forward");
  if (!last_forward_training_) {
    // Eval mode: y = gamma * (x - rm) / sqrt(rv + eps) + beta with constant
    // statistics — a per-channel affine map.
    check_same_shape(grad_output.shape(), cached_eval_input_.shape(),
                     "BatchNorm2d eval backward");
    const std::int64_t batch = grad_output.shape().dim(0);
    const std::int64_t hw =
        grad_output.shape().dim(2) * grad_output.shape().dim(3);
    Tensor grad_input(grad_output.shape());
    auto gd = grad_output.data();
    auto id = cached_eval_input_.data();
    auto gi = grad_input.data();
    auto gg = gamma_.grad.data();
    auto bg = beta_.grad.data();
    auto gv = gamma_.value.data();
    auto rm = running_mean_.data();
    auto rv = running_var_.data();
    parallel_for(0, channels_, bn_channel_grain(batch, hw),
                 [&](std::int64_t cc0, std::int64_t cc1) {
    for (std::int64_t c = cc0; c < cc1; ++c) {
      const float mean = rm[static_cast<std::size_t>(c)];
      const float inv_std =
          1.0F / std::sqrt(rv[static_cast<std::size_t>(c)] + eps_);
      const float scale = gv[static_cast<std::size_t>(c)] * inv_std;
      double sum_g = 0.0, sum_gx = 0.0;
      for (std::int64_t b = 0; b < batch; ++b) {
        const float* g_plane = gd.data() + (b * channels_ + c) * hw;
        const float* in_plane = id.data() + (b * channels_ + c) * hw;
        float* out_plane = gi.data() + (b * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          sum_g += g_plane[i];
          sum_gx += static_cast<double>(g_plane[i]) *
                    ((in_plane[i] - mean) * inv_std);
          out_plane[i] = scale * g_plane[i];
        }
      }
      bg[static_cast<std::size_t>(c)] += static_cast<float>(sum_g);
      gg[static_cast<std::size_t>(c)] += static_cast<float>(sum_gx);
    }
    });
    return grad_input;
  }
  SPLITMED_CHECK(cached_xhat_.shape().rank() == 4,
                 "BatchNorm2d backward requires a training-mode forward");
  check_same_shape(grad_output.shape(), cached_xhat_.shape(),
                   "BatchNorm2d backward");
  const std::int64_t batch = grad_output.shape().dim(0);
  const std::int64_t hw =
      grad_output.shape().dim(2) * grad_output.shape().dim(3);
  const float m = static_cast<float>(batch * hw);

  Tensor grad_input(grad_output.shape());
  auto gd = grad_output.data();
  auto xh = cached_xhat_.data();
  auto is = cached_inv_std_.data();
  auto gg = gamma_.grad.data();
  auto bg = beta_.grad.data();
  auto gv = gamma_.value.data();
  auto gi = grad_input.data();

  parallel_for(0, channels_, bn_channel_grain(batch, hw),
               [&](std::int64_t cc0, std::int64_t cc1) {
  for (std::int64_t c = cc0; c < cc1; ++c) {
    double sum_g = 0.0, sum_gx = 0.0;
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* g_plane = gd.data() + (b * channels_ + c) * hw;
      const float* x_plane = xh.data() + (b * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        sum_g += g_plane[i];
        sum_gx += static_cast<double>(g_plane[i]) * x_plane[i];
      }
    }
    bg[static_cast<std::size_t>(c)] += static_cast<float>(sum_g);
    gg[static_cast<std::size_t>(c)] += static_cast<float>(sum_gx);
    const float mean_g = static_cast<float>(sum_g) / m;
    const float mean_gx = static_cast<float>(sum_gx) / m;
    const float scale =
        gv[static_cast<std::size_t>(c)] * is[static_cast<std::size_t>(c)];
    for (std::int64_t b = 0; b < batch; ++b) {
      const float* g_plane = gd.data() + (b * channels_ + c) * hw;
      const float* x_plane = xh.data() + (b * channels_ + c) * hw;
      float* out_plane = gi.data() + (b * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        out_plane[i] =
            scale * (g_plane[i] - mean_g - x_plane[i] * mean_gx);
      }
    }
  }
  });
  return grad_input;
}

std::string BatchNorm2d::name() const {
  std::ostringstream os;
  os << "BatchNorm2d(" << channels_ << ')';
  return os.str();
}

void BatchNorm2d::save_extra_state(BufferWriter& writer) const {
  encode_tensor(running_mean_, writer);
  encode_tensor(running_var_, writer);
}

void BatchNorm2d::load_extra_state(BufferReader& reader) {
  Tensor mean = decode_tensor(reader);
  Tensor var = decode_tensor(reader);
  const Shape expected({channels_});
  if (mean.shape() != expected || var.shape() != expected) {
    throw SerializationError(
        "BatchNorm2d running stats: expected shape " + expected.str() +
        ", got mean " + mean.shape().str() + ", var " + var.shape().str());
  }
  running_mean_ = std::move(mean);
  running_var_ = std::move(var);
}

}  // namespace splitmed::nn
