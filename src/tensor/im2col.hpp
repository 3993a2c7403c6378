// im2col / col2im lowering for convolutions.
//
// Conv2d forward is im2col + GEMM; its backward passes are GEMMs + col2im.
// Layout: images are NCHW; the column matrix is
// [C*kh*kw, out_h*out_w] per image (one image at a time keeps the working set
// small on the single-core simulator).
#pragma once

#include <cstdint>
#include <span>

namespace splitmed {

struct ConvGeometry {
  std::int64_t channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  [[nodiscard]] std::int64_t out_h() const {
    return (in_h + 2 * pad - kernel_h) / stride + 1;
  }
  [[nodiscard]] std::int64_t out_w() const {
    return (in_w + 2 * pad - kernel_w) / stride + 1;
  }
  /// Rows of the column matrix: channels * kernel_h * kernel_w.
  [[nodiscard]] std::int64_t col_rows() const {
    return channels * kernel_h * kernel_w;
  }
  /// Columns of the column matrix: out_h * out_w.
  [[nodiscard]] std::int64_t col_cols() const { return out_h() * out_w(); }
  /// Stride 1 with the output the size of the input (every 3x3/pad-1 and
  /// 1x1/pad-0 conv): each column row is its input plane shifted by
  /// (kh - pad, kw - pad), so im2col copies it as one block.
  [[nodiscard]] bool whole_plane() const {
    return stride == 1 && out_h() == in_h && out_w() == in_w;
  }

  /// Throws InvalidArgument if the geometry is degenerate.
  void validate() const;
};

/// image: CHW contiguous (channels*in_h*in_w floats);
/// col: col_rows()*col_cols() floats, overwritten. Whole-plane geometries
/// copy each column row as one shifted block and zero its wrapped border;
/// the rest take im2col_rows. Both write identical bits.
void im2col(const ConvGeometry& g, std::span<const float> image,
            std::span<float> col);

/// Inverse scatter-add: accumulates col back into image (image must be
/// zeroed by the caller when a fresh gradient is wanted), row by row for
/// every geometry; each image element receives its (kh, kw) contributions
/// in ascending order.
void col2im(const ConvGeometry& g, std::span<const float> col,
            std::span<float> image);

/// The row-wise lowering, valid for every geometry: the path im2col takes
/// when !g.whole_plane(), and the reference the whole-plane path is tested
/// against.
void im2col_rows(const ConvGeometry& g, std::span<const float> image,
                 std::span<float> col);

}  // namespace splitmed
