// Conv2d's lowering — the weights packed once per layer call (pack_lhs /
// gemm_lhs), whole-plane im2col, the micro-kernel tile chosen by shape, the
// optional input gradient — checked BITWISE against a reference built from
// the row-wise im2col_rows, col2im and the naive *_ref GEMMs,
// over a geometry × batch × thread-count sweep. Every part is data movement
// or tiling, so nothing here may differ in a single bit.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/conv2d.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/im2col.hpp"

namespace splitmed {
namespace {

constexpr std::int64_t kInC = 2;
constexpr std::int64_t kOutC = 9;  // one full 8-row block plus a tail

class PoolGuard {
 public:
  PoolGuard() = default;
  ~PoolGuard() { set_global_threads(0); }
  PoolGuard(const PoolGuard&) = delete;
  PoolGuard& operator=(const PoolGuard&) = delete;
};

bool same_bits(std::span<const float> x, std::span<const float> y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
}

/// The pre-lowering Conv2d, sample by sample: row-wise im2col, col2im and
/// the naive reference GEMMs, the bias added after the fold, parameter
/// gradients reduced over samples in ascending order.
struct Reference {
  std::vector<float> out, dx, dw, db;
};

Reference reference(const ConvGeometry& g, const Tensor& x, const Tensor& w,
                    const Tensor& bias, const Tensor& gout,
                    std::int64_t batch) {
  const std::int64_t crk = g.col_rows(), ohw = g.col_cols();
  const std::int64_t image = kInC * g.in_h * g.in_w, plane = kOutC * ohw;
  Reference r;
  r.out.resize(static_cast<std::size_t>(batch * plane));
  r.dx.assign(static_cast<std::size_t>(batch * image), 0.0F);
  r.dw.assign(static_cast<std::size_t>(kOutC * crk), 0.0F);
  r.db.assign(static_cast<std::size_t>(kOutC), 0.0F);
  std::vector<float> col(static_cast<std::size_t>(crk * ohw));
  std::vector<float> dcol(col.size());
  std::vector<float> dw(r.dw.size());
  for (std::int64_t b = 0; b < batch; ++b) {
    const auto xb = x.data().subspan(static_cast<std::size_t>(b * image),
                                     static_cast<std::size_t>(image));
    const auto gb = gout.data().subspan(static_cast<std::size_t>(b * plane),
                                        static_cast<std::size_t>(plane));
    float* ob = r.out.data() + b * plane;
    im2col_rows(g, xb, col);
    gemm_nn_ref(kOutC, ohw, crk, w.data(), col,
                {ob, static_cast<std::size_t>(plane)});
    for (std::int64_t c = 0; c < kOutC; ++c) {
      for (std::int64_t i = 0; i < ohw; ++i) ob[c * ohw + i] += bias.data()[c];
    }
    gemm_tn_ref(crk, ohw, kOutC, w.data(), gb, dcol);
    col2im(g, dcol, {r.dx.data() + b * image, static_cast<std::size_t>(image)});
    for (std::int64_t c = 0; c < kOutC; ++c) {
      float acc = gb[static_cast<std::size_t>(c * ohw)];
      for (std::int64_t i = 1; i < ohw; ++i) {
        acc += gb[static_cast<std::size_t>(c * ohw + i)];
      }
      r.db[static_cast<std::size_t>(c)] += acc;
    }
    gemm_nt_ref(kOutC, crk, ohw, gb, col, dw);
    for (std::size_t i = 0; i < dw.size(); ++i) r.dw[i] += dw[i];
  }
  return r;
}

std::string where(const ConvGeometry& g, std::int64_t batch, int threads) {
  std::ostringstream os;
  os << "k" << g.kernel_h << " s" << g.stride << " p" << g.pad << " hw"
     << g.in_h << " batch " << batch << " threads " << threads
     << " isa " << gemm_kernel_isa();
  return os.str();
}

TEST(ConvLowering, LayerMatchesRowWiseReferenceBitwise) {
  PoolGuard guard;
  std::int64_t checked = 0;
  for (const int threads : {1, 3}) {
    set_global_threads(threads);
    for (const std::int64_t k : {1, 3, 5}) {
      for (const std::int64_t stride : {1, 2}) {
        for (const std::int64_t pad : {0, 1, 2}) {
          for (const std::int64_t hw : {1, 2, 4, 5, 8, 16}) {
            if (hw + 2 * pad < k) continue;  // kernel larger than input
            for (const std::int64_t batch : {1, 2, 5, 14}) {
              Rng rng(static_cast<std::uint64_t>(
                  ((k * 7 + stride) * 7 + pad) * 101 + hw * 17 + batch));
              nn::Conv2d conv(kInC, kOutC, k, stride, pad, rng);
              for (auto& v : conv.parameters()[1]->value.data()) {
                v = rng.normal();  // a nonzero bias
              }
              const ConvGeometry g{kInC, hw, hw, k, k, stride, pad};
              const Tensor x = Tensor::normal(Shape{batch, kInC, hw, hw}, rng);
              const Shape out_shape{batch, kOutC, g.out_h(), g.out_w()};
              const Tensor gout = Tensor::normal(out_shape, rng);
              const Reference ref =
                  reference(g, x, conv.parameters()[0]->value,
                            conv.parameters()[1]->value, gout, batch);
              const std::string at = where(g, batch, threads);

              EXPECT_TRUE(same_bits(conv.infer(x).data(), ref.out))
                  << "infer " << at;
              gemmk::Epilogue ep;
              ep.bias = conv.bias_value().data().data();
              ep.relu = true;
              std::vector<float> relu_out = ref.out;
              for (auto& v : relu_out) v = v > 0.0F ? v : 0.0F;
              EXPECT_TRUE(same_bits(
                  conv.forward_fused(x, ep, /*cache=*/false).data(), relu_out))
                  << "forward_fused " << at;
              EXPECT_TRUE(same_bits(conv.forward(x, true).data(), ref.out))
                  << "forward " << at;

              conv.zero_grad();
              const Tensor dx = conv.backward_from(gout.data(), out_shape);
              EXPECT_TRUE(same_bits(dx.data(), ref.dx)) << "dx " << at;
              EXPECT_TRUE(same_bits(conv.parameters()[0]->grad.data(), ref.dw))
                  << "dW " << at;
              EXPECT_TRUE(same_bits(conv.parameters()[1]->grad.data(), ref.db))
                  << "db " << at;

              conv.zero_grad();
              (void)conv.backward_from(gout.data(), out_shape,
                                       /*input_grad=*/false);
              EXPECT_TRUE(same_bits(conv.parameters()[0]->grad.data(), ref.dw))
                  << "dW without dX " << at;
              EXPECT_TRUE(same_bits(conv.parameters()[1]->grad.data(), ref.db))
                  << "db without dX " << at;
              ++checked;
              if (::testing::Test::HasFailure()) return;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 700);
}

TEST(ConvLowering, WholePlaneMatchesRowWiseBitwise) {
  // Every whole-plane geometry of the sweep: im2col writes the same bits as
  // the row-wise loop, over a col buffer that held other values.
  PoolGuard guard;
  std::int64_t planes = 0;
  for (const int threads : {1, 3}) {
    set_global_threads(threads);
    for (const std::int64_t k : {1, 3, 5}) {
      for (const std::int64_t pad : {0, 1, 2}) {
        for (const std::int64_t hw : {1, 2, 4, 5, 8, 16}) {
          const ConvGeometry g{3, hw, hw, k, k, 1, pad};
          if (hw + 2 * pad < k || !g.whole_plane()) continue;
          Rng rng(static_cast<std::uint64_t>(k * 1000 + pad * 100 + hw));
          const Tensor image = Tensor::normal(Shape{3, hw, hw}, rng);
          std::vector<float> col(
              static_cast<std::size_t>(g.col_rows() * g.col_cols()), -7.0F);
          std::vector<float> col_rows_out(col.size(), 5.0F);
          im2col(g, image.data(), col);
          im2col_rows(g, image.data(), col_rows_out);
          EXPECT_TRUE(same_bits(col, col_rows_out))
              << "im2col k" << k << " p" << pad << " hw" << hw;
          ++planes;
        }
      }
    }
  }
  EXPECT_GT(planes, 20);
}

}  // namespace
}  // namespace splitmed
