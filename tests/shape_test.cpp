// Tests for tensor/shape.hpp.
#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/tensor/shape.hpp"

namespace splitmed {
namespace {

TEST(Shape, ScalarHasRankZeroNumelOne) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0U);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.str(), "[]");
}

TEST(Shape, BasicDimsAndNumel) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3U);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(2), 4);
  EXPECT_EQ(s.str(), "[2, 3, 4]");
}

TEST(Shape, NegativeAxisCountsFromBack) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.dim(-3), 2);
}

TEST(Shape, AxisOutOfRangeThrows) {
  const Shape s{2, 3};
  EXPECT_THROW((void)s.dim(2), InvalidArgument);
  EXPECT_THROW((void)s.dim(-3), InvalidArgument);
}

TEST(Shape, NegativeDimRejected) {
  EXPECT_THROW(Shape({2, -1}), InvalidArgument);
}

TEST(Shape, ZeroDimGivesZeroNumel) {
  const Shape s{4, 0, 3};
  EXPECT_EQ(s.numel(), 0);
}

TEST(Shape, RowMajorStrides) {
  const Shape s{2, 3, 4};
  const auto strides = s.strides();
  ASSERT_EQ(strides.size(), 3U);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(Shape, CheckSameShapeThrowsWithContext) {
  try {
    check_same_shape(Shape{1, 2}, Shape{2, 1}, "test-context");
    FAIL() << "expected throw";
  } catch (const ShapeError& e) {
    EXPECT_NE(std::string(e.what()).find("test-context"), std::string::npos);
  }
}

}  // namespace
}  // namespace splitmed
