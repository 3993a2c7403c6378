// Execution-planner tests: chain recognition, fusion legality (training BN
// must NOT fuse), the two-slab ping-pong of fused inference (flat peak in
// depth, no live slab aliased), and — the load-bearing contract — bitwise
// equality of fused and unfused execution across thread counts. Run twice
// by ctest: once with the dispatched ISA and once pinned to the base
// micro-kernel (plan_test_base_isa), mirroring gemm_test.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/flatten.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/plan.hpp"
#include "src/nn/pool.hpp"
#include "src/nn/residual.hpp"
#include "src/nn/sequential.hpp"
#include "src/tensor/workspace.hpp"

namespace splitmed::nn {
namespace {

// Restores planner + pool defaults on scope exit so toggles don't leak
// between tests (the planner is process-global state).
class PlannerGuard {
 public:
  PlannerGuard() = default;
  ~PlannerGuard() {
    set_planner_enabled(true);
    set_global_threads(0);
  }
  PlannerGuard(const PlannerGuard&) = delete;
  PlannerGuard& operator=(const PlannerGuard&) = delete;
};

bool bitwise_equal(std::span<const float> x, std::span<const float> y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

Tensor random_input(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  for (auto& v : t.data()) v = rng.normal();
  return t;
}

// Runs a few training batches so the BN running statistics are non-trivial
// (fresh mean=0/var=1 would make the BN epilogue nearly an identity map and
// hide indexing bugs).
void warm_up(Sequential& seq, const Shape& in_shape) {
  for (int i = 0; i < 3; ++i) {
    (void)seq.forward(random_input(in_shape, 900 + i), /*training=*/true);
  }
}

TEST(PlanBuild, RecognizesConvAndLinearChains) {
  Rng rng(7);
  Sequential seq;
  seq.emplace<Conv2d>(3, 8, 3, 1, 1, rng);   // ┐
  seq.emplace<BatchNorm2d>(8);               // ├ kConvBnRelu
  seq.emplace<ReLU>();                       // ┘
  seq.emplace<Conv2d>(8, 8, 3, 1, 1, rng);   // ┐ kConvRelu
  seq.emplace<ReLU>();                       // ┘
  seq.emplace<MaxPool2d>(2);                 // passthrough
  seq.emplace<Conv2d>(8, 4, 3, 1, 1, rng);   // ┐ kConvBn
  seq.emplace<BatchNorm2d>(4);               // ┘
  seq.emplace<Flatten>();                    // passthrough
  seq.emplace<Linear>(4 * 4 * 4, 16, rng);   // ┐ kLinearRelu
  seq.emplace<ReLU>();                       // ┘
  seq.emplace<Linear>(16, 10, rng);          // passthrough

  const auto& groups = seq.plan().groups();
  ASSERT_EQ(groups.size(), 7U);
  EXPECT_EQ(groups[0].kind, FuseKind::kConvBnRelu);
  EXPECT_EQ(groups[1].kind, FuseKind::kConvRelu);
  EXPECT_EQ(groups[2].kind, FuseKind::kPassthrough);
  EXPECT_EQ(groups[3].kind, FuseKind::kConvBn);
  EXPECT_EQ(groups[4].kind, FuseKind::kPassthrough);
  EXPECT_EQ(groups[5].kind, FuseKind::kLinearRelu);
  EXPECT_EQ(groups[6].kind, FuseKind::kPassthrough);

  // Group spans must tile the layer list exactly.
  std::size_t expect_begin = 0;
  for (const auto& g : groups) {
    EXPECT_EQ(g.begin, expect_begin);
    EXPECT_GT(g.end, g.begin);
    expect_begin = g.end;
  }
  EXPECT_EQ(expect_begin, seq.size());
}

TEST(PlanBuild, BnWithMismatchedChannelsDoesNotFuse) {
  // A BN whose channel count differs from the producing conv's output is
  // not this conv's tail (such a model fails at forward anyway) — the
  // recognizer must leave both as passthrough rather than build an epilogue
  // indexing out of bounds.
  Rng rng(11);
  Sequential seq;
  seq.emplace<Conv2d>(3, 8, 3, 1, 1, rng);
  seq.emplace<BatchNorm2d>(4);
  const auto& groups = seq.plan().groups();
  ASSERT_EQ(groups.size(), 2U);
  EXPECT_EQ(groups[0].kind, FuseKind::kPassthrough);
  EXPECT_EQ(groups[1].kind, FuseKind::kPassthrough);
}

TEST(PlanBuild, StructuralEditInvalidatesPlan) {
  Rng rng(13);
  Sequential seq;
  seq.emplace<Linear>(6, 6, rng);
  seq.emplace<ReLU>();
  ASSERT_EQ(seq.plan().groups().size(), 1U);
  EXPECT_EQ(seq.plan().groups()[0].kind, FuseKind::kLinearRelu);
  // Appending splits nothing retroactively, but the plan must rebuild and
  // cover the new layer.
  seq.emplace<Linear>(6, 2, rng);
  ASSERT_EQ(seq.plan().groups().size(), 2U);
  EXPECT_EQ(seq.plan().groups()[1].kind, FuseKind::kPassthrough);
  // extract() moves layers out; a stale plan would dangle.
  Sequential tail = seq.extract(2, 3);
  ASSERT_EQ(seq.plan().groups().size(), 1U);
  ASSERT_EQ(tail.plan().groups().size(), 1U);
}

TEST(PlanTraining, TrainingBnStaysUnfused) {
  // Training-mode BN needs batch statistics of the conv output — fusing it
  // would compute statistics of a tensor that no longer exists. The planned
  // forward must run conv→bn→relu per-layer under training, and the BN
  // running statistics must advance exactly as with the planner off.
  PlannerGuard guard;
  Rng rng(17);
  Sequential seq;
  seq.emplace<Conv2d>(2, 4, 3, 1, 1, rng);
  seq.emplace<BatchNorm2d>(4);
  seq.emplace<ReLU>();
  const Shape in_shape({3, 2, 6, 6});

  set_planner_enabled(true);
  const Tensor x = random_input(in_shape, 21);
  const Tensor out_planned = seq.forward(x, /*training=*/true);
  const auto& grp = seq.plan().groups();
  ASSERT_EQ(grp.size(), 1U);
  EXPECT_EQ(grp[0].kind, FuseKind::kConvBnRelu);
  EXPECT_FALSE(grp[0].ran_fused) << "training BN must not run fused";
  const Tensor mean_planned =
      dynamic_cast<BatchNorm2d&>(seq.layer(1)).running_mean();

  // Identical twin network, planner off: same forward bytes, same stats.
  Rng rng2(17);
  Sequential ref;
  ref.emplace<Conv2d>(2, 4, 3, 1, 1, rng2);
  ref.emplace<BatchNorm2d>(4);
  ref.emplace<ReLU>();
  set_planner_enabled(false);
  const Tensor out_ref = ref.forward(x, /*training=*/true);
  EXPECT_TRUE(bitwise_equal(out_planned.data(), out_ref.data()));
  EXPECT_TRUE(bitwise_equal(
      mean_planned.data(),
      dynamic_cast<BatchNorm2d&>(ref.layer(1)).running_mean().data()));
}

TEST(PlanTraining, FusedTrainingStepIsBitwiseAcrossThreads) {
  // The tentpole contract for the training path: with conv→relu and
  // linear→relu fused (epilogue write-back forward, output-masked dReLU
  // backward), the forward output AND every parameter gradient are bitwise
  // identical to the unfused per-layer path — at 1, 2, and 8 threads.
  PlannerGuard guard;
  Rng rng(29);
  Sequential seq;
  seq.emplace<Conv2d>(2, 4, 3, 1, 1, rng);
  seq.emplace<ReLU>();
  seq.emplace<Flatten>();
  seq.emplace<Linear>(4 * 5 * 5, 16, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(16, 3, rng);
  const auto& groups = seq.plan().groups();
  ASSERT_EQ(groups.size(), 4U);
  ASSERT_EQ(groups[0].kind, FuseKind::kConvRelu);
  ASSERT_EQ(groups[2].kind, FuseKind::kLinearRelu);
  const Shape in_shape({4, 2, 5, 5});
  const Tensor x = random_input(in_shape, 31);
  const Tensor g = random_input(Shape({4, 3}), 37);

  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    const auto run = [&](bool planned) {
      set_planner_enabled(planned);
      for (Parameter* p : seq.parameters()) p->zero_grad();
      const Tensor out = seq.forward(x, /*training=*/true);
      // Planner off walks the same groups, each one unfused.
      EXPECT_EQ(groups[0].ran_fused, planned);
      EXPECT_EQ(groups[2].ran_fused, planned);
      const Tensor gin = seq.backward(g);
      std::vector<std::vector<float>> grads;
      for (Parameter* p : seq.parameters()) {
        const auto d = p->grad.data();
        grads.emplace_back(d.begin(), d.end());
      }
      return std::tuple{out, gin, grads};
    };
    const auto [out_f, gin_f, grads_f] = run(true);
    const auto [out_u, gin_u, grads_u] = run(false);
    EXPECT_TRUE(bitwise_equal(out_f.data(), out_u.data()))
        << "forward, threads=" << threads;
    EXPECT_TRUE(bitwise_equal(gin_f.data(), gin_u.data()))
        << "grad input, threads=" << threads;
    ASSERT_EQ(grads_f.size(), grads_u.size());
    for (std::size_t i = 0; i < grads_f.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(grads_f[i], grads_u[i]))
          << "param grad " << i << ", threads=" << threads;
    }
  }
}

TEST(PlanInfer, InferMatchesEvalForwardBitwise) {
  // The inference path adds what training cannot have: fused eval-mode BN
  // and slab-chained intermediates. Still bitwise identical to the
  // planner-off forward(x, false), across thread counts.
  PlannerGuard guard;
  Rng rng(41);
  Sequential seq;
  seq.emplace<Conv2d>(3, 8, 3, 1, 1, rng);
  seq.emplace<BatchNorm2d>(8);
  seq.emplace<ReLU>();
  seq.emplace<Conv2d>(8, 8, 3, 1, 1, rng);
  seq.emplace<ReLU>();
  seq.emplace<MaxPool2d>(2);
  seq.emplace<Conv2d>(8, 4, 3, 1, 1, rng);
  seq.emplace<BatchNorm2d>(4);
  seq.emplace<Flatten>();
  seq.emplace<Linear>(4 * 4 * 4, 16, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(16, 10, rng);
  const Shape in_shape({2, 3, 8, 8});
  warm_up(seq, in_shape);

  const Tensor x = random_input(in_shape, 43);
  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    set_planner_enabled(false);
    const Tensor ref = seq.forward(x, /*training=*/false);
    set_planner_enabled(true);
    const Tensor fused = seq.infer(x);
    EXPECT_EQ(fused.shape(), ref.shape());
    EXPECT_TRUE(bitwise_equal(fused.data(), ref.data()))
        << "threads=" << threads;
  }
}

TEST(PlanInfer, DeepFusedRunMatchesEvalForward) {
  // One run of six fused groups, so both slabs are reused: group i reads
  // the slab group i-1 wrote while it overwrites the other. Widths change
  // at every group, so each slab must fit the largest output it holds. Any
  // aliasing of the two live slabs, or a slab too small, changes the bits.
  PlannerGuard guard;
  Rng rng(73);
  Sequential seq;
  const std::int64_t widths[] = {3, 8, 4, 10, 2, 6, 5};
  for (std::size_t i = 0; i + 1 < std::size(widths); ++i) {
    seq.emplace<Conv2d>(widths[i], widths[i + 1], 3, 1, 1, rng);
    if (i % 2 == 0) seq.emplace<BatchNorm2d>(widths[i + 1]);
    seq.emplace<ReLU>();
  }
  ASSERT_EQ(seq.plan().groups().size(), 6U);
  const Shape in_shape({2, 3, 6, 6});
  warm_up(seq, in_shape);

  const Tensor x = random_input(in_shape, 79);
  for (const int threads : {1, 3}) {
    set_global_threads(threads);
    set_planner_enabled(false);
    const Tensor ref = seq.forward(x, /*training=*/false);
    set_planner_enabled(true);
    const Tensor fused = seq.infer(x);
    EXPECT_TRUE(bitwise_equal(fused.data(), ref.data()))
        << "threads=" << threads;
  }
}

TEST(PlanInfer, ResidualInferMatchesForwardBitwise) {
  // Both residual variants: identity skip and 1x1 projection skip. The
  // join is one body in forward and infer, so this pins the paths into it:
  // the fused infer of both branches, and the planner-off infer (each
  // inner layer's own infer), must reproduce forward(x, false) exactly.
  PlannerGuard guard;
  Rng rng(47);
  ResidualBlock plain(4, 4, 1, rng);
  ResidualBlock proj(4, 8, 2, rng);
  const Shape in_shape({2, 4, 6, 6});
  // Warm the running stats through the training path.
  for (int i = 0; i < 3; ++i) {
    (void)plain.forward(random_input(in_shape, 700 + i), true);
    (void)proj.forward(random_input(in_shape, 800 + i), true);
  }
  const Tensor x = random_input(in_shape, 53);
  for (const int threads : {1, 2, 8}) {
    set_global_threads(threads);
    set_planner_enabled(false);
    const Tensor ref_plain = plain.forward(x, false);
    const Tensor ref_proj = proj.forward(x, false);
    const Tensor unfused_plain = plain.infer(x);
    const Tensor unfused_proj = proj.infer(x);
    set_planner_enabled(true);
    const Tensor fused_plain = plain.infer(x);
    const Tensor fused_proj = proj.infer(x);
    EXPECT_TRUE(bitwise_equal(fused_plain.data(), ref_plain.data()))
        << "identity skip, threads=" << threads;
    EXPECT_TRUE(bitwise_equal(fused_proj.data(), ref_proj.data()))
        << "projection skip, threads=" << threads;
    EXPECT_TRUE(bitwise_equal(unfused_plain.data(), ref_plain.data()))
        << "planner off, identity skip, threads=" << threads;
    EXPECT_TRUE(bitwise_equal(unfused_proj.data(), ref_proj.data()))
        << "planner off, projection skip, threads=" << threads;
  }
}

TEST(PlanInfer, PeakWorkspaceIsFlatInDepth) {
  // The pass-2 claim: chained fused groups ping-pong between 2 slabs, so
  // the peak arena footprint of an inference step must not grow with chain
  // depth. Measured with the step-peak watermark the planner reports
  // through `splitmed_workspace_step_peak_bytes`.
  PlannerGuard guard;
  set_global_threads(1);
  set_planner_enabled(true);
  const Shape in_shape({2, 4, 12, 12});
  const auto peak_at_depth = [&](int depth) {
    Rng rng(59);
    Sequential seq;
    for (int i = 0; i < depth; ++i) {
      seq.emplace<Conv2d>(4, 4, 3, 1, 1, rng);
      seq.emplace<ReLU>();
    }
    const Tensor x = random_input(in_shape, 61);
    (void)seq.infer(x);  // warm the arena to its high-water mark
    ws::reset_step_peak();
    (void)seq.infer(x);
    return ws::global_step_peak_bytes();
  };
  // Depth 2 has a single chained intermediate (1 slab); from depth 4 on the
  // chain ping-pongs between exactly 2 slabs, so the footprint must stop
  // moving: depth 16 holds the same 2 slabs + per-conv scratch as depth 4.
  const std::size_t p4 = peak_at_depth(4);
  const std::size_t p16 = peak_at_depth(16);
  EXPECT_GT(p4, 0U);
  EXPECT_EQ(p16, p4) << "peak workspace grew with depth";
}

TEST(PlanInfer, PlannerOffInferStillMatches) {
  // infer() must be safe (and identical) with the planner disabled — it
  // runs every group's layers through their own infer().
  PlannerGuard guard;
  Rng rng(67);
  Sequential seq;
  seq.emplace<Linear>(8, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(8, 2, rng);
  const Tensor x = random_input(Shape({3, 8}), 71);
  set_planner_enabled(false);
  const Tensor a = seq.infer(x);
  const Tensor b = seq.forward(x, false);
  EXPECT_TRUE(bitwise_equal(a.data(), b.data()));
}

}  // namespace
}  // namespace splitmed::nn
