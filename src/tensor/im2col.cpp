#include "src/tensor/im2col.hpp"

#include <algorithm>
#include <bit>
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
                 "im2col_rows/col2im: image span too small");
  SPLITMED_CHECK(col >= static_cast<std::size_t>(g.col_rows() * g.col_cols()),
                 "im2col_rows/col2im: col span too small");
}

/// dst[i] = bits(src[i]) & mask[i] for i in [0, n): the one body behind
/// every whole-plane row and panel. Pure bit movement: a kept lane is the
/// source's exact bits, a masked one +0.0.
inline void masked_copy(const float* __restrict src,
                        const std::uint32_t* __restrict mask,
                        float* __restrict dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(src[i]) &
                                  mask[i]);
  }
}

/// MaskedShift::panels' rows, panel-major so the panels are written front
/// to back. NR > 0 fixes the panel width at compile time, so each row's
/// copy unrolls; NR == 0 takes it from `nr`.
template <std::int64_t NR>
void write_panels(const ConvGeometry& g, const float* margined,
                  std::int64_t plane_stride, const std::uint32_t* masks,
                  std::int64_t cols, std::int64_t nr, float* dst) {
  const std::int64_t width = NR > 0 ? NR : nr;
  for (std::int64_t j0 = 0; j0 < cols; j0 += width) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      const float* plane = margined + c * plane_stride + j0;
      const std::uint32_t* mask = masks + j0;
      for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
        for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
          masked_copy(plane + kh * g.in_w + kw, mask, dst, width);
          mask += cols;
          dst += width;
        }
      }
    }
  }
}

/// write_panels compiled for the micro-kernels' panel widths (8 and 4 on
/// base, 16 and 8 on AVX2, 32 and 16 on AVX-512), generic otherwise.
auto panel_writer(std::int64_t nr) {
  switch (nr) {
    case 4: return &write_panels<4>;
    case 8: return &write_panels<8>;
    case 16: return &write_panels<16>;
    case 32: return &write_panels<32>;
    default: return &write_panels<0>;
  }
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

MaskedShift::MaskedShift(const ConvGeometry& g, std::int64_t panel_cols,
                         ws::WorkspaceScope& scope)
    : geometry_(g), panel_cols_(panel_cols) {
  g.validate();
  SPLITMED_CHECK(g.whole_plane(), "MaskedShift: geometry is not whole-plane");
  SPLITMED_CHECK(panel_cols > 0, "MaskedShift: panel_cols must be positive");
  const std::int64_t h = g.in_h, w = g.in_w, hw = h * w;
  cols_ = (hw + panel_cols - 1) / panel_cols * panel_cols;
  // Row (c, kh, kw) reads its margined plane from offset margin + shift =
  // kh*W + kw, so its highest read, cols_ - 1 + (kernel_h - 1)*W +
  // kernel_w - 1 = cols_ - 1 + 2*margin_, stays inside the plane.
  margin_ = g.pad * w + g.pad;
  plane_stride_ = cols_ + 2 * margin_;
  // Mask row (kh, kw) keeps pixel p = y*W + x when its shifted read
  // (y + kh - pad, x + kw - pad) lies inside the plane; the columns past
  // H*W are zero.
  const std::span<std::uint32_t> masks =
      scope.u32s(g.kernel_h * g.kernel_w * cols_);
  std::fill(masks.begin(), masks.end(), std::uint32_t{0});
  std::uint32_t* m = masks.data();
  for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
    for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, m += cols_) {
      const std::int64_t dy = kh - g.pad, dx = kw - g.pad;
      // A shift as wide as the plane (kernel 5 on a 1-pixel plane) leaves
      // x0 >= x1: the whole row is padding.
      const std::int64_t x0 = std::max<std::int64_t>(0, -dx);
      const std::int64_t x1 = std::min(w, w - dx);
      for (std::int64_t y = std::max<std::int64_t>(0, -dy);
           y < std::min(h, h - dy) && x0 < x1; ++y) {
        std::fill(m + y * w + x0, m + y * w + x1, ~std::uint32_t{0});
      }
    }
  }
  masks_ = masks.data();
}

void MaskedShift::fill_margined(std::span<const float> image,
                                std::span<float> margined) const {
  const ConvGeometry& g = geometry_;
  const std::int64_t hw = g.in_h * g.in_w;
  SPLITMED_CHECK(
      image.size() >= static_cast<std::size_t>(g.channels * hw) &&
          margined.size() >= static_cast<std::size_t>(margined_floats()),
      "MaskedShift: image or margined span too small");
  for (std::int64_t c = 0; c < g.channels; ++c) {
    float* dst = margined.data() + c * plane_stride_;
    std::fill(dst, dst + margin_, 0.0F);
    std::memcpy(dst + margin_, image.data() + c * hw,
                static_cast<std::size_t>(hw) * sizeof(float));
    std::fill(dst + margin_ + hw, dst + plane_stride_, 0.0F);
  }
}

void MaskedShift::rows(std::span<const float> image, std::span<float> margined,
                       std::span<float> col) const {
  const ConvGeometry& g = geometry_;
  const std::int64_t hw = g.col_cols();
  SPLITMED_CHECK(col.size() >= static_cast<std::size_t>(g.col_rows() * hw),
                 "MaskedShift::rows: col span too small");
  fill_margined(image, margined);
  float* out = col.data();
  for (std::int64_t c = 0; c < g.channels; ++c) {
    const float* plane = margined.data() + c * plane_stride_;
    const std::uint32_t* mask = masks_;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        masked_copy(plane + kh * g.in_w + kw, mask, out, hw);
        mask += cols_;
        out += hw;
      }
    }
  }
}

void MaskedShift::panels(std::span<const float> image,
                         std::span<float> margined,
                         std::span<float> out) const {
  SPLITMED_CHECK(out.size() >= static_cast<std::size_t>(panel_floats()),
                 "MaskedShift::panels: panel span too small");
  fill_margined(image, margined);
  panel_writer(panel_cols_)(geometry_, margined.data(), plane_stride_, masks_,
                            cols_, panel_cols_, out.data());
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
