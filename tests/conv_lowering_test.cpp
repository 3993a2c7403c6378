// Conv2d's lowering — the weights packed once per layer call (pack_lhs),
// the whole-plane masked shift written straight into the GEMM's panels
// (MaskedShift, gemm_panels), the micro-kernel tile chosen by shape, the
// optional input gradient — checked BITWISE against a reference built from
// the row-wise im2col_rows, col2im and the naive *_ref GEMMs,
// over a geometry × batch × thread-count sweep, then on special values and
// on exactly sized buffers. Every part is data movement or tiling, so
// nothing here may differ in a single bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/conv2d.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/im2col.hpp"
#include "src/tensor/workspace.hpp"

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

/// MaskedShift's column rows for one image, its masks built for this call
/// alone (Conv2d builds them once per layer call).
void masked_rows(const ConvGeometry& g, std::span<const float> image,
                 std::span<float> col) {
  ws::WorkspaceScope scope;
  const MaskedShift lowering(g, /*panel_cols=*/1, scope);
  lowering.rows(image, scope.floats(lowering.margined_floats()), col);
}

TEST(ConvLowering, WholePlaneMatchesRowWiseBitwise) {
  // Every whole-plane geometry of the sweep: MaskedShift::rows writes the
  // same bits as the row-wise loop, over a col buffer that held other
  // values.
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
          masked_rows(g, image.data(), col);
          im2col_rows(g, image.data(), col_rows_out);
          EXPECT_TRUE(same_bits(col, col_rows_out))
              << "rows k" << k << " p" << pad << " hw" << hw;
          ++planes;
        }
      }
    }
  }
  EXPECT_GT(planes, 20);
}

/// A normal-distributed tensor with special values sprinkled over every
/// plane: NaNs with distinct payloads (quiet, signalling, negative), +-0.0
/// and +-Inf, at positions that cover corners, edges and the interior.
Tensor with_special_values(const Shape& shape, Rng& rng) {
  static const std::uint32_t kSpecials[] = {
      0x7FC00001U, 0x7FC12345U, 0xFFC00007U, 0x7F800005U,  // NaN payloads
      0x00000000U, 0x80000000U,                            // +0.0, -0.0
      0x7F800000U, 0xFF800000U};                           // +Inf, -Inf
  Tensor t = Tensor::normal(shape, rng);
  auto d = t.data();
  std::size_t next = 0;
  for (std::size_t i = 0; i < d.size(); i += 3 + i % 4) {
    d[i] = std::bit_cast<float>(kSpecials[next++ % std::size(kSpecials)]);
  }
  return t;
}

/// The forward built from the row-wise lowering: each sample's im2col_rows
/// columns through pack_lhs/gemm_lhs, which pack B themselves. The same
/// micro-kernel the layer runs, so NaN payload propagation through the
/// arithmetic matches too, and any difference is the lowering's.
std::vector<float> row_wise_forward(const ConvGeometry& g, const Tensor& x,
                                    const Tensor& w, std::int64_t out_c,
                                    std::int64_t batch,
                                    const gemmk::Epilogue& ep) {
  const std::int64_t image = g.channels * g.in_h * g.in_w;
  const std::int64_t plane = out_c * g.col_cols();
  std::vector<float> out(static_cast<std::size_t>(batch * plane));
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  ws::WorkspaceScope scope;
  const PackedLhs packed = pack_lhs(false, out_c, g.col_cols(), g.col_rows(),
                                    w.data(), scope);
  for (std::int64_t b = 0; b < batch; ++b) {
    im2col_rows(g,
                x.data().subspan(static_cast<std::size_t>(b * image),
                                 static_cast<std::size_t>(image)),
                col);
    gemm_lhs(packed, col,
             {out.data() + b * plane, static_cast<std::size_t>(plane)}, &ep);
  }
  return out;
}

TEST(ConvLowering, SpecialValuesKeepTheirBits) {
  // The masked shift is bit movement: NaN payloads (a signalling one
  // included), -0.0 and +-Inf must reach the GEMM exactly as the row-wise
  // lowering delivers them, in forward, forward_fused, infer and the
  // column rows the weight gradient reads.
  PoolGuard guard;
  std::int64_t checked = 0;
  for (const int threads : {1, 3}) {
    set_global_threads(threads);
    for (const std::int64_t k : {1, 3, 5}) {
      const std::int64_t pad = (k - 1) / 2;
      for (const std::int64_t hw : {1, 2, 4, 5, 8, 16}) {
        for (const std::int64_t batch : {1, 3}) {
          Rng rng(static_cast<std::uint64_t>(k * 131 + hw * 7 + batch));
          nn::Conv2d conv(kInC, kOutC, k, 1, pad, rng);
          for (auto& v : conv.parameters()[1]->value.data()) v = rng.normal();
          const ConvGeometry g{kInC, hw, hw, k, k, 1, pad};
          ASSERT_TRUE(g.whole_plane());
          const Tensor x =
              with_special_values(Shape{batch, kInC, hw, hw}, rng);
          const Tensor& w = conv.parameters()[0]->value;
          const std::string at = where(g, batch, threads);

          gemmk::Epilogue bias;
          bias.bias = conv.bias_value().data().data();
          const std::vector<float> ref =
              row_wise_forward(g, x, w, kOutC, batch, bias);
          EXPECT_TRUE(same_bits(conv.forward(x, true).data(), ref))
              << "forward " << at;
          EXPECT_TRUE(same_bits(conv.infer(x).data(), ref)) << "infer " << at;
          gemmk::Epilogue relu = bias;
          relu.relu = true;
          EXPECT_TRUE(same_bits(
              conv.forward_fused(x, relu, /*cache=*/false).data(),
              row_wise_forward(g, x, w, kOutC, batch, relu)))
              << "forward_fused " << at;

          const std::int64_t image = kInC * hw * hw;
          std::vector<float> col(
              static_cast<std::size_t>(g.col_rows() * g.col_cols()), -3.0F);
          std::vector<float> col_ref(col.size(), 9.0F);
          for (std::int64_t b = 0; b < batch; ++b) {
            const auto xb = x.data().subspan(static_cast<std::size_t>(b * image),
                                             static_cast<std::size_t>(image));
            masked_rows(g, xb, col);
            im2col_rows(g, xb, col_ref);
            EXPECT_TRUE(same_bits(col, col_ref)) << "rows " << at;
          }
          ++checked;
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * 3 * 6 * 2);
}

TEST(ConvLowering, MaskedShiftOnExactlySizedBuffers) {
  // MaskedShift on std::vector buffers of exactly the documented sizes, so
  // an address-sanitized build flags any read past the margined copy (a
  // margin or the last panel's masked lanes) and any write past the rows
  // or panels; the arena's slack would hide both. Every whole-plane
  // geometry of the sweep, at every micro-kernel panel width (8 and 4 base,
  // 16 and 8 AVX2, 32 and 16 AVX-512) whatever this machine dispatches.
  PoolGuard guard;
  std::int64_t checked = 0;
  for (const std::int64_t k : {1, 3, 5}) {
    const std::int64_t pad = (k - 1) / 2;
    for (const std::int64_t hw : {1, 2, 4, 5, 8, 16}) {
      for (const std::int64_t nr : {1, 4, 8, 16, 32}) {
        const std::int64_t channels = 3;
        const ConvGeometry g{channels, hw, hw, k, k, 1, pad};
        const std::int64_t cols = (hw * hw + nr - 1) / nr * nr;
        ws::WorkspaceScope scope;
        const MaskedShift lowering(g, nr, scope);
        std::ostringstream where_os;
        where_os << "k" << k << " hw" << hw << " nr" << nr;
        const std::string at = where_os.str();
        ASSERT_EQ(lowering.margined_floats(),
                  channels * (2 * (pad * hw + pad) + cols))
            << at;
        ASSERT_EQ(lowering.panel_floats(), g.col_rows() * cols) << at;

        Rng rng(static_cast<std::uint64_t>(k * 1000 + hw * 10 + nr));
        const Tensor image_t =
            with_special_values(Shape{channels, hw, hw}, rng);
        const std::vector<float> image(image_t.data().begin(),
                                       image_t.data().end());
        std::vector<float> margined(
            static_cast<std::size_t>(lowering.margined_floats()), 11.0F);
        std::vector<float> col(
            static_cast<std::size_t>(g.col_rows() * g.col_cols()), -5.0F);
        std::vector<float> panels(
            static_cast<std::size_t>(lowering.panel_floats()), -6.0F);
        std::vector<float> col_ref(col.size());
        im2col_rows(g, image, col_ref);

        lowering.rows(image, margined, col);
        EXPECT_TRUE(same_bits(col, col_ref)) << "rows " << at;

        // The panel layout: panel jp holds columns [jp*nr, jp*nr + nr) as
        // col_rows() rows of nr floats, +0.0 past col_cols().
        std::vector<float> panels_ref(panels.size());
        const std::int64_t n = g.col_cols(), rows = g.col_rows();
        for (std::int64_t jp = 0; jp < cols / nr; ++jp) {
          for (std::int64_t r = 0; r < rows; ++r) {
            for (std::int64_t j = 0; j < nr; ++j) {
              const std::int64_t col_j = jp * nr + j;
              panels_ref[static_cast<std::size_t>((jp * rows + r) * nr + j)] =
                  col_j < n ? col_ref[static_cast<std::size_t>(r * n + col_j)]
                            : 0.0F;
            }
          }
        }
        lowering.panels(image, margined, panels);
        EXPECT_TRUE(same_bits(panels, panels_ref)) << "panels " << at;

        // One float short of any documented size is refused, not overrun.
        std::vector<float> short_margined(margined.size() - 1);
        EXPECT_THROW(lowering.rows(image, short_margined, col),
                     InvalidArgument)
            << at;
        std::vector<float> short_panels(panels.size() - 1);
        EXPECT_THROW(lowering.panels(image, margined, short_panels),
                     InvalidArgument)
            << at;
        std::vector<float> short_col(col.size() - 1);
        EXPECT_THROW(lowering.rows(image, margined, short_col),
                     InvalidArgument)
            << at;
        ++checked;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_EQ(checked, 3 * 6 * 5);
}

}  // namespace
}  // namespace splitmed
