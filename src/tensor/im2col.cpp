#include "src/tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"

namespace splitmed {
namespace {

// Minimum per-chunk element traffic before a fork-join pays off.
constexpr std::int64_t kParallelElems = 16 * 1024;

/// The x range [x0, x1) for which ix = x*stride + shift stays inside
/// [0, in_w), clamped to [0, ow) — the branch-free interior of the output
/// row; everything outside is padding. x0 <= x1 always.
struct XRange {
  std::int64_t x0 = 0;
  std::int64_t x1 = 0;
};

XRange interior_range(std::int64_t shift, std::int64_t stride,
                      std::int64_t in_w, std::int64_t ow) {
  XRange r;
  r.x0 = shift < 0 ? (-shift + stride - 1) / stride : 0;
  r.x0 = std::min(r.x0, ow);
  const std::int64_t hi = in_w - 1 - shift;  // largest valid x*stride
  r.x1 = hi < 0 ? 0 : std::min(ow, hi / stride + 1);
  r.x1 = std::max(r.x1, r.x0);
  return r;
}

/// Channels per parallel chunk; each channel moves kernel_h*kernel_w*oh*ow
/// elements and touches only its own slice of both buffers.
std::int64_t channel_grain(const ConvGeometry& g) {
  const std::int64_t per_channel = std::max<std::int64_t>(
      g.kernel_h * g.kernel_w * g.out_h() * g.out_w(), 1);
  return std::max<std::int64_t>(1, kParallelElems / per_channel);
}

void check_spans(const ConvGeometry& g, std::size_t image, std::size_t col) {
  SPLITMED_CHECK(
      image >= static_cast<std::size_t>(g.channels * g.in_h * g.in_w),
                 "im2col/col2im: image span too small");
  SPLITMED_CHECK(col >= static_cast<std::size_t>(g.col_rows() * g.col_cols()),
                 "im2col/col2im: col span too small");
}

/// One column row of a whole-plane geometry: output element i reads input
/// element i + shift, for i in [begin, end) — except the `wrapped` runs
/// [y*W + x1, (y+1)*W + x0) between consecutive output rows, whose shifted
/// reads crossed a row end and belong to the padding. `empty` when the
/// shift leaves no input inside the plane.
struct PlaneShift {
  std::int64_t shift = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t y0 = 0;
  std::int64_t y1 = 0;
  std::int64_t x0 = 0;
  std::int64_t x1 = 0;
  [[nodiscard]] bool empty() const { return begin >= end; }
};

PlaneShift plane_shift(const ConvGeometry& g, std::int64_t kh,
                       std::int64_t kw) {
  const std::int64_t h = g.in_h, w = g.in_w;
  const std::int64_t dy = kh - g.pad, dx = kw - g.pad;
  PlaneShift p;
  p.shift = dy * w + dx;
  p.y0 = std::max<std::int64_t>(0, -dy);
  p.y1 = std::min(h, h - dy);
  p.x0 = std::max<std::int64_t>(0, -dx);
  p.x1 = std::min(w, w - dx);
  if (p.y0 < p.y1 && p.x0 < p.x1) {
    p.begin = p.y0 * w + p.x0;
    p.end = (p.y1 - 1) * w + p.x1;
  }
  return p;
}

void im2col_planes(const ConvGeometry& g, const float* image, float* col) {
  const std::int64_t w = g.in_w, hw = g.in_h * g.in_w;
  parallel_for(0, g.channels, channel_grain(g), [&](std::int64_t c0,
                                                    std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      const float* chan = image + c * hw;
      float* out = col + c * g.kernel_h * g.kernel_w * hw;
      for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
        for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, out += hw) {
          const PlaneShift p = plane_shift(g, kh, kw);
          if (p.empty()) {
            std::fill(out, out + hw, 0.0F);
            continue;
          }
          std::fill(out, out + p.begin, 0.0F);
          std::memcpy(out + p.begin, chan + p.begin + p.shift,
                      static_cast<std::size_t>(p.end - p.begin) *
                          sizeof(float));
          std::fill(out + p.end, out + hw, 0.0F);
          for (std::int64_t y = p.y0; y + 1 < p.y1; ++y) {
            std::fill(out + y * w + p.x1, out + (y + 1) * w + p.x0, 0.0F);
          }
        }
      }
    }
  });
}

}  // namespace

void ConvGeometry::validate() const {
  SPLITMED_CHECK(channels > 0 && in_h > 0 && in_w > 0,
                 "conv geometry: non-positive input dims");
  SPLITMED_CHECK(kernel_h > 0 && kernel_w > 0, "conv geometry: bad kernel");
  SPLITMED_CHECK(stride > 0, "conv geometry: stride must be positive");
  SPLITMED_CHECK(pad >= 0, "conv geometry: negative padding");
  SPLITMED_CHECK(out_h() > 0 && out_w() > 0,
                 "conv geometry: kernel larger than padded input");
}

void im2col(const ConvGeometry& g, std::span<const float> image,
            std::span<float> col) {
  if (!g.whole_plane()) return im2col_rows(g, image, col);
  check_spans(g, image.size(), col.size());
  im2col_planes(g, image.data(), col.data());
}

void im2col_rows(const ConvGeometry& g, std::span<const float> image,
                 std::span<float> col) {
  check_spans(g, image.size(), col.size());
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // Channel c fills exactly col rows [c*kh*kw, (c+1)*kh*kw) from its own
  // image plane — disjoint reads and writes, so any channel partition is
  // bitwise identical to the serial sweep.
  parallel_for(0, g.channels, channel_grain(g), [&](std::int64_t c0,
                                                    std::int64_t c1) {
  for (std::int64_t c = c0; c < c1; ++c) {
    const float* chan = image.data() + c * g.in_h * g.in_w;
    std::size_t r = static_cast<std::size_t>(c * g.kernel_h * g.kernel_w);
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        float* out_row = col.data() + r * oh * ow;
        ++r;
        // Split each output row into zero prefix / branch-free interior /
        // zero suffix instead of testing bounds per element — identical
        // values, and the interior copy vectorizes.
        const std::int64_t shift = kw - g.pad;
        const auto [x0, x1] = interior_range(shift, g.stride, g.in_w, ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          float* out = out_row + y * ow;
          if (iy < 0 || iy >= g.in_h) {
            for (std::int64_t x = 0; x < ow; ++x) out[x] = 0.0F;
            continue;
          }
          const float* in_row = chan + iy * g.in_w;
          for (std::int64_t x = 0; x < x0; ++x) out[x] = 0.0F;
          if (g.stride == 1) {
            const float* src = in_row + shift;
            for (std::int64_t x = x0; x < x1; ++x) out[x] = src[x];
          } else {
            for (std::int64_t x = x0; x < x1; ++x) {
              out[x] = in_row[x * g.stride + shift];
            }
          }
          for (std::int64_t x = x1; x < ow; ++x) out[x] = 0.0F;
        }
      }
    }
  }
  });
}

void col2im(const ConvGeometry& g, std::span<const float> col,
            std::span<float> image) {
  check_spans(g, image.size(), col.size());
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // Channel c accumulates only into its own image plane, from its own col
  // rows, in the serial kh/kw/y/x order — the accumulation order within a
  // plane is identical for every channel partition.
  parallel_for(0, g.channels, channel_grain(g), [&](std::int64_t c0,
                                                    std::int64_t c1) {
  for (std::int64_t c = c0; c < c1; ++c) {
    float* chan = image.data() + c * g.in_h * g.in_w;
    std::size_t r = static_cast<std::size_t>(c * g.kernel_h * g.kernel_w);
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const float* in_row_base = col.data() + r * oh * ow;
        ++r;
        // Only the in-bounds interior contributes; x still ascends, so the
        // accumulation order per image element is unchanged.
        const std::int64_t shift = kw - g.pad;
        const auto [x0, x1] = interior_range(shift, g.stride, g.in_w, ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          const float* in = in_row_base + y * ow;
          float* out_row = chan + iy * g.in_w;
          if (g.stride == 1) {
            float* dst = out_row + shift;
            for (std::int64_t x = x0; x < x1; ++x) dst[x] += in[x];
          } else {
            for (std::int64_t x = x0; x < x1; ++x) {
              out_row[x * g.stride + shift] += in[x];
            }
          }
        }
      }
    }
  }
  });
}

}  // namespace splitmed
