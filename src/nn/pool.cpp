#include "src/nn/pool.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"

namespace splitmed::nn {
namespace {

/// Planes per parallel chunk so each chunk moves >= ~16k elements; pooling
/// planes are fully independent in both forward and backward.
std::int64_t plane_grain(std::int64_t per_plane_cost) {
  constexpr std::int64_t kParallelElems = 16 * 1024;
  return std::max<std::int64_t>(
      1, kParallelElems / std::max<std::int64_t>(per_plane_cost, 1));
}

/// Window maxima of one input plane, whose flat input indices start at
/// `plane_base`; strict > keeps the first maximum. Records each window's
/// argmax unless `argmax` is null. The scalars arrive by value, so the
/// argmax stores cannot alias them and force reloads inside the loops.
void max_pool_plane(const float* plane, std::int64_t plane_base,
                    std::int64_t iw, std::int64_t oh, std::int64_t ow,
                    std::int64_t window, std::int64_t stride, float* out,
                    std::int64_t* argmax) {
  for (std::int64_t y = 0; y < oh; ++y) {
    for (std::int64_t x = 0; x < ow; ++x) {
      float best = -std::numeric_limits<float>::infinity();
      // Seeded with the window's first element, so a window with no element
      // above -inf (all NaN or all -inf) routes its gradient inside its own
      // plane.
      std::int64_t best_idx = plane_base + (y * stride) * iw + x * stride;
      for (std::int64_t wy = 0; wy < window; ++wy) {
        const std::int64_t iy = y * stride + wy;
        for (std::int64_t wx = 0; wx < window; ++wx) {
          const std::int64_t ix = x * stride + wx;
          const float v = plane[iy * iw + ix];
          if (v > best) {
            best = v;
            best_idx = plane_base + iy * iw + ix;
          }
        }
      }
      *out++ = best;
      if (argmax != nullptr) *argmax++ = best_idx;
    }
  }
}

/// max_pool_plane for 2x2 windows at stride 2 without argmax (the infer
/// path of every vgg-mini pool): the same strict > from -inf in window
/// order, as a select the compiler turns into a vector max, so NaN,
/// all-NaN windows (-inf) and +-0.0 ties resolve exactly as there. Output
/// row y reads input rows 2y and 2y + 1.
void max_pool_2x2_rows(const float* plane, std::int64_t iw, std::int64_t oh,
                       std::int64_t ow, float* out) {
  for (std::int64_t y = 0; y < oh; ++y) {
    const float* r0 = plane + 2 * y * iw;
    const float* r1 = r0 + iw;
    for (std::int64_t x = 0; x < ow; ++x) {
      float best = -std::numeric_limits<float>::infinity();
      for (const float v : {r0[2 * x], r0[2 * x + 1], r1[2 * x],
                            r1[2 * x + 1]}) {
        best = v > best ? v : best;
      }
      out[y * ow + x] = best;
    }
  }
}

/// The window-max scan of MaxPool2d::forward, which records the argmax
/// indices backward routes through, and of MaxPool2d::infer (argmax null).
void max_pool(const Tensor& input, Tensor& out, std::int64_t window,
              std::int64_t stride, std::int64_t* argmax) {
  const std::int64_t planes = input.shape().dim(0) * input.shape().dim(1);
  const std::int64_t ih = input.shape().dim(2), iw = input.shape().dim(3);
  const std::int64_t oh = out.shape().dim(2), ow = out.shape().dim(3);
  const float* id = input.data().data();
  float* od = out.data().data();
  // No input row is left between planes, so a run of planes scans as one
  // plane of (p1 - p0) * oh output rows.
  const bool scan_2x2 =
      argmax == nullptr && window == 2 && stride == 2 && ih == 2 * oh;
  // Each (batch, channel) plane reads and writes its own slices only.
  parallel_for(0, planes, plane_grain(oh * ow * window * window),
               [&](std::int64_t p0, std::int64_t p1) {
    if (scan_2x2) {
      max_pool_2x2_rows(id + p0 * ih * iw, iw, (p1 - p0) * oh, ow,
                        od + p0 * oh * ow);
      return;
    }
    for (std::int64_t p = p0; p < p1; ++p) {
      max_pool_plane(id + p * ih * iw, p * ih * iw, iw, oh, ow, window,
                     stride, od + p * oh * ow,
                     argmax == nullptr ? nullptr : argmax + p * oh * ow);
    }
  });
}

}  // namespace

MaxPool2d::MaxPool2d(std::int64_t window, std::int64_t stride)
    : window_(window), stride_(stride == 0 ? window : stride) {
  SPLITMED_CHECK(window_ > 0 && stride_ > 0, "MaxPool2d: bad window/stride");
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  SPLITMED_CHECK(input.rank() == 4, "MaxPool2d: input must be NCHW");
  SPLITMED_CHECK(input.dim(2) >= window_ && input.dim(3) >= window_,
                 "MaxPool2d: window " << window_ << " larger than input "
                                      << input.str());
  const std::int64_t oh = (input.dim(2) - window_) / stride_ + 1;
  const std::int64_t ow = (input.dim(3) - window_) / stride_ + 1;
  SPLITMED_CHECK(oh > 0 && ow > 0,
                 "MaxPool2d: window " << window_ << " too large for "
                                      << input.str());
  return Shape{input.dim(0), input.dim(1), oh, ow};
}

Tensor MaxPool2d::forward(const Tensor& input, bool /*training*/) {
  const Shape out_shape = output_shape(input.shape());
  cached_input_shape_ = input.shape();
  Tensor out(out_shape);
  // resize, not assign: max_pool overwrites every slot, so the zero-fill
  // pass would be a wasted sweep over the whole index buffer.
  argmax_.resize(static_cast<std::size_t>(out.numel()));
  max_pool(input, out, window_, stride_, argmax_.data());
  return out;
}

Tensor MaxPool2d::infer(const Tensor& input) {
  // A named Shape, as in forward(): constructing `out` from a temporary
  // one shifts the heap layout enough to raise fig4_vgg's peak RSS by
  // about 0.5 MB (glibc malloc), with live memory unchanged.
  const Shape out_shape = output_shape(input.shape());
  Tensor out(out_shape);
  max_pool(input, out, window_, stride_, nullptr);
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  SPLITMED_CHECK(cached_input_shape_.rank() == 4,
                 "MaxPool2d backward before forward");
  check_same_shape(grad_output.shape(), output_shape(cached_input_shape_),
                   "MaxPool2d backward");
  Tensor grad(cached_input_shape_);
  auto gd = grad_output.data();
  auto out = grad.data();
  // argmax indices never leave their own input plane, so partitioning the
  // scatter-add at plane boundaries keeps writes disjoint across chunks.
  const std::int64_t planes =
      cached_input_shape_.dim(0) * cached_input_shape_.dim(1);
  const std::int64_t per_plane =
      static_cast<std::int64_t>(gd.size()) / std::max<std::int64_t>(planes, 1);
  parallel_for(0, planes, plane_grain(per_plane),
               [&](std::int64_t p0, std::int64_t p1) {
    for (std::size_t i = static_cast<std::size_t>(p0 * per_plane);
         i < static_cast<std::size_t>(p1 * per_plane); ++i) {
      out[static_cast<std::size_t>(argmax_[i])] += gd[i];
    }
  });
  return grad;
}

std::string MaxPool2d::name() const {
  std::ostringstream os;
  os << "MaxPool2d(w" << window_ << " s" << stride_ << ')';
  return os.str();
}

Shape GlobalAvgPool::output_shape(const Shape& input) const {
  SPLITMED_CHECK(input.rank() == 4, "GlobalAvgPool: input must be NCHW");
  return Shape{input.dim(0), input.dim(1)};
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  return infer(input);
}

Tensor GlobalAvgPool::infer(const Tensor& input) {
  const Shape out_shape = output_shape(input.shape());
  Tensor out(out_shape);
  const std::int64_t planes = input.shape().dim(0) * input.shape().dim(1);
  const std::int64_t hw = input.shape().dim(2) * input.shape().dim(3);
  auto id = input.data();
  auto od = out.data();
  parallel_for(0, planes, plane_grain(hw), [&](std::int64_t p0,
                                               std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const float* plane = id.data() + p * hw;
      float acc = 0.0F;
      for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
      od[static_cast<std::size_t>(p)] = acc / static_cast<float>(hw);
    }
  });
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  SPLITMED_CHECK(cached_input_shape_.rank() == 4,
                 "GlobalAvgPool backward before forward");
  check_same_shape(grad_output.shape(), output_shape(cached_input_shape_),
                   "GlobalAvgPool backward");
  Tensor grad(cached_input_shape_);
  const std::int64_t planes =
      cached_input_shape_.dim(0) * cached_input_shape_.dim(1);
  const std::int64_t hw =
      cached_input_shape_.dim(2) * cached_input_shape_.dim(3);
  auto gd = grad_output.data();
  auto out = grad.data();
  const float inv = 1.0F / static_cast<float>(hw);
  parallel_for(0, planes, plane_grain(hw), [&](std::int64_t p0,
                                               std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const float g = gd[static_cast<std::size_t>(p)] * inv;
      float* plane = out.data() + p * hw;
      for (std::int64_t i = 0; i < hw; ++i) plane[i] = g;
    }
  });
  return grad;
}

}  // namespace splitmed::nn
