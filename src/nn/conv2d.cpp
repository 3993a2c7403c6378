#include "src/nn/conv2d.hpp"

#include <optional>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/init.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_("conv.weight",
              he_normal(Shape{out_channels, in_channels * kernel * kernel},
                        in_channels * kernel * kernel, rng)),
      bias_("conv.bias", Tensor::zeros(Shape{out_channels})) {
  SPLITMED_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                     stride > 0 && pad >= 0,
                 "Conv2d: bad hyperparameters");
}

ConvGeometry Conv2d::geometry(std::int64_t in_h, std::int64_t in_w) const {
  ConvGeometry g;
  g.channels = in_c_;
  g.in_h = in_h;
  g.in_w = in_w;
  g.kernel_h = kernel_;
  g.kernel_w = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  g.validate();
  return g;
}

Tensor Conv2d::forward(const Tensor& input, bool /*training*/) {
  // The bias is the write-back epilogue: the same single add per element a
  // separate pass over the output would do.
  gemmk::Epilogue ep;
  ep.bias = bias_.value.data().data();
  return forward_fused(input, ep, /*cache=*/true);
}

Tensor Conv2d::infer(const Tensor& input) {
  // forward() without the input cache: bitwise identical outputs.
  gemmk::Epilogue ep;
  ep.bias = bias_.value.data().data();
  return forward_fused(input, ep, /*cache=*/false);
}

Tensor Conv2d::forward_fused(const Tensor& input, const gemmk::Epilogue& ep,
                             bool cache) {
  SPLITMED_CHECK(input.shape().rank() == 4 && input.shape().dim(1) == in_c_,
                 name() << ": bad input " << input.shape().str());
  if (cache) cached_input_ = input;
  Tensor out(output_shape(input.shape()));
  run_fused(input.data(), input.shape().dim(0), input.shape().dim(2),
            input.shape().dim(3), out.data(), ep);
  return out;
}

void Conv2d::run_fused(std::span<const float> input, std::int64_t batch,
                       std::int64_t in_h, std::int64_t in_w,
                       std::span<float> out,
                       const gemmk::Epilogue& ep) const {
  const ConvGeometry g = geometry(in_h, in_w);
  const std::int64_t image_elems = in_c_ * g.in_h * g.in_w;
  const std::int64_t out_elems = out_c_ * g.col_cols();
  SPLITMED_CHECK(
      input.size() >= static_cast<std::size_t>(batch * image_elems) &&
          out.size() >= static_cast<std::size_t>(batch * out_elems),
      name() << ": run_fused span too small");
  // W is packed once for the whole batch, in the calling thread's arena.
  // Samples write disjoint output planes, so the batch partitions cleanly
  // across threads; each chunk lowers its samples into scratch from its own
  // thread's arena and runs them against the shared pack:
  // out[b] = W[out_c, crk] · col[crk, oh*ow], with the elementwise tail
  // (bias / bn / relu, per output channel = per C row) at write-back. A
  // whole-plane geometry writes its columns straight into the micro-
  // kernel's B panels (MaskedShift, its masks built here and shared by the
  // chunks), so no column matrix is built and no pack_b runs; the others
  // lower row-wise and let gemm_lhs pack. With a single-sample batch the
  // chunk runs inline and the GEMM splits its tiles across threads instead.
  ws::WorkspaceScope scope;
  const PackedLhs w = pack_lhs(/*transposed=*/false, out_c_, g.col_cols(),
                               g.col_rows(), weight_.value.data(), scope);
  std::optional<MaskedShift> lowering;
  if (g.whole_plane()) lowering.emplace(g, w.kernel->panel_cols, scope);
  parallel_for(0, batch, 1, [&](std::int64_t b0, std::int64_t b1) {
    ws::WorkspaceScope scratch;
    std::span<float> margined;
    std::span<float> cols;
    if (lowering) {
      margined = scratch.floats(lowering->margined_floats());
      cols = scratch.floats(lowering->panel_floats());
    } else {
      cols = scratch.floats(g.col_rows() * g.col_cols());
    }
    for (std::int64_t b = b0; b < b1; ++b) {
      const auto image = input.subspan(static_cast<std::size_t>(b * image_elems),
                                       static_cast<std::size_t>(image_elems));
      const auto o = out.subspan(static_cast<std::size_t>(b * out_elems),
                                 static_cast<std::size_t>(out_elems));
      if (lowering) {
        lowering->panels(image, margined, cols);
        gemm_panels(w, cols, o, &ep);
      } else {
        im2col_rows(g, image, cols);
        gemm_lhs(w, cols, o, &ep);
      }
    }
  });
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  return backward_from(grad_output.data(), grad_output.shape());
}

void Conv2d::backward_params(const Tensor& grad_output) {
  (void)backward_from(grad_output.data(), grad_output.shape(),
                      /*input_grad=*/false);
}

Tensor Conv2d::backward_from(std::span<const float> grad_output,
                             const Shape& grad_shape, bool input_grad) {
  SPLITMED_CHECK(cached_input_.shape().rank() == 4,
                 "Conv2d backward before forward");
  const std::int64_t batch = cached_input_.shape().dim(0);
  const ConvGeometry g =
      geometry(cached_input_.shape().dim(2), cached_input_.shape().dim(3));
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  check_same_shape(grad_shape, Shape{batch, out_c_, oh, ow},
                   "Conv2d backward");

  const std::int64_t image_elems = in_c_ * g.in_h * g.in_w;
  const std::int64_t out_elems = out_c_ * oh * ow;
  const std::int64_t wn = weight_.value.numel();
  auto id = cached_input_.data();
  auto gd = grad_output;
  auto wg = weight_.grad.data();
  auto bg = bias_.grad.data();

  // Per-sample weight/bias gradient slabs, checked out of the CALLING
  // thread's arena so they survive the parallel region below; workers fill
  // disjoint slabs, then one serial pass reduces them in ascending sample
  // order — the identical float grouping to a serial batch loop, so the
  // result is bitwise thread-invariant. Wᵀ for the input gradient is packed
  // once, in the same arena, and read by every worker.
  ws::WorkspaceScope slabs;
  std::span<float> dw_slabs = slabs.floats(batch * wn);
  std::span<float> db_slabs = slabs.floats(batch * out_c_);
  Tensor grad_input;
  PackedLhs wt;
  std::optional<MaskedShift> lowering;
  if (g.whole_plane()) lowering.emplace(g, /*panel_cols=*/1, slabs);
  if (input_grad) {
    grad_input = Tensor(cached_input_.shape());
    wt = pack_lhs(/*transposed=*/true, g.col_rows(), g.col_cols(), out_c_,
                  weight_.value.data(), slabs);
  }
  auto gi = grad_input.data();

  // One fused pass over the batch; samples are independent:
  //  - (input_grad only) dcol = Wᵀ[crk, out_c] · g_out[out_c, ohw],
  //    scatter-added back to this sample's disjoint grad_input planes
  //    (col2im);
  //  - bias slab: spatial sums per channel;
  //  - weight slab: dW_b = g_out[out_c, ohw] · colᵀ[ohw, crk]  (gemm_nt),
  //    col lowered by the shared MaskedShift when whole-plane.
  // col/dcol (and margined) scratch comes from each worker's own arena.
  parallel_for(0, batch, 1, [&](std::int64_t b0, std::int64_t b1) {
    ws::WorkspaceScope scratch;
    std::span<float> margined =
        lowering ? scratch.floats(lowering->margined_floats())
                 : std::span<float>{};
    std::span<float> col = scratch.floats(g.col_rows() * g.col_cols());
    std::span<float> dcol =
        input_grad ? scratch.floats(g.col_rows() * g.col_cols())
                   : std::span<float>{};
    for (std::int64_t b = b0; b < b1; ++b) {
      auto g_out = gd.subspan(static_cast<std::size_t>(b * out_elems),
                              static_cast<std::size_t>(out_elems));
      if (input_grad) {
        gemm_lhs(wt, g_out, dcol);
        col2im(g, dcol,
               gi.subspan(static_cast<std::size_t>(b * image_elems),
                          static_cast<std::size_t>(image_elems)));
      }
      float* db = db_slabs.data() + b * out_c_;
      for (std::int64_t c = 0; c < out_c_; ++c) {
        const float* plane = g_out.data() + c * oh * ow;
        float acc = plane[0];
        for (std::int64_t i = 1; i < oh * ow; ++i) acc += plane[i];
        db[c] = acc;
      }
      const auto image = id.subspan(static_cast<std::size_t>(b * image_elems),
                                    static_cast<std::size_t>(image_elems));
      if (lowering) {
        lowering->rows(image, margined, col);
      } else {
        im2col_rows(g, image, col);
      }
      gemm_nt(out_c_, g.col_rows(), g.col_cols(), g_out, col,
              dw_slabs.subspan(static_cast<std::size_t>(b * wn),
                               static_cast<std::size_t>(wn)));
    }
  });

  // Serial, sample-ascending reduction: wg/bg see the same addends in the
  // same order for every thread count.
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* db = db_slabs.data() + b * out_c_;
    for (std::int64_t c = 0; c < out_c_; ++c) bg[c] += db[c];
    const float* dw = dw_slabs.data() + b * wn;
    for (std::int64_t i = 0; i < wn; ++i) wg[i] += dw[i];
  }
  return grad_input;
}

Shape Conv2d::output_shape(const Shape& input) const {
  SPLITMED_CHECK(input.rank() == 4 && input.dim(1) == in_c_,
                 name() << "::output_shape: bad input " << input.str());
  const ConvGeometry g = geometry(input.dim(2), input.dim(3));
  return Shape{input.dim(0), out_c_, g.out_h(), g.out_w()};
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << in_c_ << "->" << out_c_ << ", k" << kernel_ << " s"
     << stride_ << " p" << pad_ << ')';
  return os.str();
}

}  // namespace splitmed::nn
