// Tests for tensor/im2col.hpp: geometry, known lowering results (row-wise,
// and MaskedShift's rows wherever the geometry is whole-plane), and the
// adjointness property <im2col_rows(x), y> == <x, col2im(y)> that conv
// backward relies on.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/tensor/im2col.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed {
namespace {

/// The column matrix of img by im2col_rows; a whole-plane geometry's
/// MaskedShift rows must hold the same values.
std::vector<float> lower(const ConvGeometry& g, const std::vector<float>& img) {
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col_rows(g, img, col);
  if (g.whole_plane()) {
    ws::WorkspaceScope scope;
    const MaskedShift lowering(g, /*panel_cols=*/1, scope);
    std::vector<float> masked(col.size(), -1.0F);
    lowering.rows(img, scope.floats(lowering.margined_floats()), masked);
    EXPECT_EQ(masked, col) << "MaskedShift::rows";
  }
  return col;
}

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g{3, 32, 32, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  EXPECT_EQ(g.col_rows(), 27);
  EXPECT_EQ(g.col_cols(), 1024);

  ConvGeometry strided{1, 8, 8, 3, 3, 2, 0};
  EXPECT_EQ(strided.out_h(), 3);
  EXPECT_EQ(strided.out_w(), 3);
}

TEST(ConvGeometry, ValidateRejectsDegenerate) {
  ConvGeometry bad{1, 2, 2, 5, 5, 1, 0};  // kernel larger than input
  EXPECT_THROW(bad.validate(), InvalidArgument);
  ConvGeometry neg{0, 4, 4, 3, 3, 1, 0};
  EXPECT_THROW(neg.validate(), InvalidArgument);
}

TEST(Im2col, Identity1x1Kernel) {
  // 1x1 kernel, stride 1, no pad: col == image.
  ConvGeometry g{2, 3, 3, 1, 1, 1, 0};
  std::vector<float> img(18);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  EXPECT_EQ(lower(g, img), img);
}

TEST(Im2col, KnownSmallCase) {
  // 1 channel 2x2 image, 2x2 kernel, no pad: single output column holding
  // the whole image in kernel order.
  ConvGeometry g{1, 2, 2, 2, 2, 1, 0};
  const std::vector<float> img = {1, 2, 3, 4};
  EXPECT_EQ(lower(g, img), (std::vector<float>{1, 2, 3, 4}));
}

TEST(Im2col, PaddingProducesZeros) {
  // 1x1 image, 3x3 kernel, pad 1: only the center tap sees the pixel.
  ConvGeometry g{1, 1, 1, 3, 3, 1, 1};
  const std::vector<float> img = {5.0F};
  const std::vector<float> col = lower(g, img);
  ASSERT_EQ(col.size(), 9U);
  for (std::size_t r = 0; r < 9; ++r) {
    EXPECT_EQ(col[r], r == 4 ? 5.0F : 0.0F) << "tap " << r;
  }
}

TEST(Col2im, AccumulatesOverlaps) {
  // 3x3 image, 2x2 kernel, stride 1: center pixel is covered by all 4
  // windows. col2im of all-ones must count coverage.
  ConvGeometry g{1, 3, 3, 2, 2, 1, 0};
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()),
                         1.0F);
  std::vector<float> img(9, 0.0F);
  col2im(g, col, img);
  EXPECT_EQ(img[4], 4.0F);  // center: 4 windows
  EXPECT_EQ(img[0], 1.0F);  // corner: 1 window
  EXPECT_EQ(img[1], 2.0F);  // edge: 2 windows
}

TEST(Col2imAdjoint, InnerProductIdentity) {
  // <im2col_rows(x), y> == <x, col2im(y)> for random x, y — exactly the
  // identity that makes conv's input-gradient correct.
  const ConvGeometry g{3, 7, 6, 3, 3, 2, 1};
  Rng rng(77);
  std::vector<float> x(static_cast<std::size_t>(g.channels * g.in_h * g.in_w));
  std::vector<float> y(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();

  std::vector<float> cx(y.size());
  im2col_rows(g, x, cx);
  std::vector<float> ay(x.size(), 0.0F);
  col2im(g, y, ay);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += static_cast<double>(cx[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * ay[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(lhs)));
}

TEST(Im2col, RejectsTooSmallSpans) {
  ConvGeometry g{1, 4, 4, 3, 3, 1, 0};
  std::vector<float> img(15);  // needs 16
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  EXPECT_THROW(im2col_rows(g, img, col), InvalidArgument);
}

}  // namespace
}  // namespace splitmed
