// im2col / col2im lowering for convolutions.
//
// Conv2d forward is a lowering + GEMM (for whole-plane geometries,
// MaskedShift written straight into the GEMM's B panels, else im2col_rows);
// its backward passes are GEMMs + col2im and, for the weight gradient, the
// same lowering's column rows + GEMM.
// Layout: images are NCHW; the column matrix is
// [C*kh*kw, out_h*out_w] per image (one image at a time keeps the working set
// small on the single-core simulator).
#pragma once

#include <cstdint>
#include <span>

#include "src/tensor/workspace.hpp"

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
  /// (kh - pad, kw - pad), so it is lowered by MaskedShift.
  [[nodiscard]] bool whole_plane() const {
    return stride == 1 && out_h() == in_h && out_w() == in_w;
  }

  /// Throws InvalidArgument if the geometry is degenerate.
  void validate() const;
};

/// The whole-plane lowering (g.whole_plane()). Row (c, kh, kw) of the
/// column matrix at pixel p is bits(plane_c[p + shift]) & mask_(kh,kw)[p]
/// with shift = (kh - pad)*W + (kw - pad), read from a copy of the image
/// whose every channel plane carries pad*W + pad zeros on each side (the
/// margined copy). The mask keeps the pixels whose shifted read lands
/// inside the plane and zeroes the rest, the padding and the reads that
/// wrapped across a row end, so a row holds the image's exact bits (NaN
/// payloads, -0.0) and the +0.0 im2col_rows writes at padding.
///
/// The masks are built per instance in the constructor's arena scope and
/// only read afterwards: one instance per layer call, shared read-only by
/// the batch workers, each of which brings its own margined scratch.
class MaskedShift {
 public:
  /// Tables for writing rows `panel_cols` columns at a time: 1 for
  /// column-matrix rows, the micro-kernel's NR for gemm panels. The masks
  /// run to col_cols() rounded up to panel_cols, zero past col_cols().
  MaskedShift(const ConvGeometry& g, std::int64_t panel_cols,
              ws::WorkspaceScope& scope);

  /// Floats of one sample's margined copy: channels planes of
  /// 2*(pad*W + pad) + col_cols() rounded up to panel_cols, so the last
  /// panel's masked lanes read inside it.
  [[nodiscard]] std::int64_t margined_floats() const {
    return geometry_.channels * plane_stride_;
  }
  /// Floats panels() writes: ceil(col_cols()/panel_cols) panels of
  /// col_rows() rows of panel_cols floats.
  [[nodiscard]] std::int64_t panel_floats() const {
    return geometry_.col_rows() * cols_;
  }

  /// Writes image's column matrix [col_rows(), col_cols()] into col, using
  /// `margined` (margined_floats()) as scratch.
  void rows(std::span<const float> image, std::span<float> margined,
            std::span<float> col) const;
  /// Writes the same rows as gemm panels: panel jp holds columns
  /// [jp*NR, jp*NR+NR) as col_rows() rows of NR = panel_cols floats, +0.0
  /// past col_cols() (the layout gemm_panels reads).
  void panels(std::span<const float> image, std::span<float> margined,
              std::span<float> out) const;

 private:
  /// Copies image into `margined`, zeroing every margin; checks the spans.
  void fill_margined(std::span<const float> image,
                     std::span<float> margined) const;

  ConvGeometry geometry_;
  std::int64_t panel_cols_ = 1;
  std::int64_t cols_ = 0;          ///< col_cols() rounded up to panel_cols_
  std::int64_t margin_ = 0;        ///< pad*W + pad
  std::int64_t plane_stride_ = 0;  ///< cols_ + 2*margin_
  const std::uint32_t* masks_ = nullptr;  ///< kernel_h*kernel_w rows of cols_
};

/// Inverse scatter-add: accumulates col back into image (image must be
/// zeroed by the caller when a fresh gradient is wanted), row by row for
/// every geometry; each image element receives its (kh, kw) contributions
/// in ascending order.
void col2im(const ConvGeometry& g, std::span<const float> col,
            std::span<float> image);

/// The row-wise lowering, valid for every geometry: Conv2d's lowering when
/// !g.whole_plane(), and the reference MaskedShift is tested against.
/// image: CHW contiguous (channels*in_h*in_w floats); col: col_rows()*
/// col_cols() floats, overwritten.
void im2col_rows(const ConvGeometry& g, std::span<const float> image,
                 std::span<float> col);

}  // namespace splitmed
