// Micro-benchmarks of the substrates (google-benchmark): GEMM, conv layers,
// the whole-plane conv lowering, max-pool inference, synthetic-image draws,
// a vgg-mini training step, tensor codec, CRC-32, simulated network
// send/receive.
//
// Every benchmark pins the global thread pool explicitly (kernel families,
// the vgg-mini conv cases and the training step to 1 thread, the other
// layer families to a fixed 4) so the recorded numbers measure the code,
// not the machine's core count. scripts/bench_substrate.py runs this binary
// with --benchmark_format=json and distills the trajectory into
// BENCH_substrate.json (see docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/protocol.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/models/factory.hpp"
#include "src/net/network.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/plan.hpp"
#include "src/nn/pool.hpp"
#include "src/nn/sequential.hpp"
#include "src/optim/sgd.hpp"
#include "src/serial/crc32.hpp"
#include "src/serial/tensor_codec.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/im2col.hpp"
#include "src/tensor/ops.hpp"
#include "src/tensor/workspace.hpp"

namespace {

using namespace splitmed;

// Tag every JSON capture with THIS binary's build type so
// scripts/bench_substrate.py can refuse to record debug numbers. (The
// benchmark library's own `library_build_type` context key reports how
// libbenchmark was built, which on distro packages is always release — it
// says nothing about our flags.)
const int kBuildTypeContext = [] {
#ifdef NDEBUG
  benchmark::AddCustomContext("splitmed_build_type", "release");
#else
  benchmark::AddCustomContext("splitmed_build_type", "debug");
#endif
  return 0;
}();

// Fixed thread pins per benchmark family. Kernel benches run serial so
// GFLOP/s is per-core kernel speed; layer benches use a fixed small pool so
// fork-join costs show up without depending on hardware_concurrency.
constexpr int kKernelThreads = 1;
constexpr int kLayerThreads = 4;

void BM_GemmNN(benchmark::State& state) {
  set_global_threads(kKernelThreads);
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm_nn(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The naive reference kernel on the same shapes: the floor the packed
// kernels are measured against (they must match it bitwise — gemm_test —
// while beating it on time).
void BM_GemmNN_Ref(benchmark::State& state) {
  set_global_threads(kKernelThreads);
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{n, n}, rng);
  const Tensor b = Tensor::normal(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm_nn_ref(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN_Ref)->Arg(64)->Arg(256);

// Non-square shapes from the split-model layers the simulator actually
// runs: {m, n, k} = {out_c, oh*ow, in_c*kernel²} for conv forward
// (VGG-style 3×3 blocks and a stem conv), plus a ResNet-ish deep block.
void BM_GemmNN_Shapes(benchmark::State& state) {
  set_global_threads(kKernelThreads);
  const std::int64_t m = state.range(0);
  const std::int64_t n = state.range(1);
  const std::int64_t k = state.range(2);
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{m, k}, rng);
  const Tensor b = Tensor::normal(Shape{k, n}, rng);
  Tensor c(Shape{m, n});
  for (auto _ : state) {
    gemm_nn(m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmNN_Shapes)
    ->Args({64, 1024, 576})   // 3x3 conv, 64ch, 32x32 output
    ->Args({64, 1024, 27})    // stem conv from 3 input channels
    ->Args({128, 256, 1152}); // deeper 3x3 block, 16x16 output

// Conv backward's dcol: C[crk, ohw] = Wᵀ[out_c, crk] · g[out_c, ohw].
void BM_GemmTN(benchmark::State& state) {
  set_global_threads(kKernelThreads);
  const std::int64_t m = state.range(0);
  const std::int64_t n = state.range(1);
  const std::int64_t k = state.range(2);
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{k, m}, rng);
  const Tensor b = Tensor::normal(Shape{k, n}, rng);
  Tensor c(Shape{m, n});
  for (auto _ : state) {
    gemm_tn(m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmTN)
    ->Args({576, 1024, 64})   // conv dcol for the 3x3/64ch layer
    ->Args({512, 512, 32});   // linear dW at batch 32

// Linear forward / conv dW: C[m, n] = A[m, k] · B[n, k]ᵀ.
void BM_GemmNT(benchmark::State& state) {
  set_global_threads(kKernelThreads);
  const std::int64_t m = state.range(0);
  const std::int64_t n = state.range(1);
  const std::int64_t k = state.range(2);
  Rng rng(1);
  const Tensor a = Tensor::normal(Shape{m, k}, rng);
  const Tensor b = Tensor::normal(Shape{n, k}, rng);
  Tensor c(Shape{m, n});
  for (auto _ : state) {
    gemm_nt(m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmNT)
    ->Args({32, 512, 512})    // linear forward, batch 32
    ->Args({64, 576, 1024});  // conv dW for the 3x3/64ch layer

// One image's whole-plane column rows (16 channels at 32x32, 3x3/pad 1),
// as the conv weight gradient lowers each sample. The masks are built once,
// outside the loop, as Conv2d builds them once per layer call.
void BM_MaskedShiftRows(benchmark::State& state) {
  set_global_threads(kKernelThreads);
  const ConvGeometry g{16, 32, 32, 3, 3, 1, 1};
  Rng rng(2);
  const Tensor img = Tensor::normal(Shape{16, 32, 32}, rng);
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  ws::WorkspaceScope scope;
  const MaskedShift lowering(g, /*panel_cols=*/1, scope);
  const std::span<float> margined = scope.floats(lowering.margined_floats());
  for (auto _ : state) {
    lowering.rows(img.data(), margined, col);
    benchmark::DoNotOptimize(col.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MaskedShiftRows);

// Conv layers. Args: {in_channels, out_channels, spatial, batch, threads}
// (+ {input_grad} for backward). Besides the original 4-thread cases, each
// vgg-mini conv shape (3->16 at 16x16, 16->32 at 8x8, 32->64 at 4x4) runs
// single-threaded at fig4_vgg's per-platform batches 4/8/14, so the number
// is the layer's own cost. The platform's L1 (3->16) also runs the
// parameter-only backward (input_grad = 0) the protocol uses there.
void vgg_mini_conv_args(benchmark::internal::Benchmark* b, bool backward) {
  const std::int64_t shapes[][3] = {{3, 16, 16}, {16, 32, 8}, {32, 64, 4}};
  for (const auto& s : shapes) {
    for (const std::int64_t batch : {4, 8, 14}) {
      if (!backward) {
        b->Args({s[0], s[1], s[2], batch, 1});
        continue;
      }
      b->Args({s[0], s[1], s[2], batch, 1, 1});
      if (s[0] == 3) b->Args({s[0], s[1], s[2], batch, 1, 0});
    }
  }
}

void BM_ConvForward(benchmark::State& state) {
  set_global_threads(static_cast<int>(state.range(4)));
  const std::int64_t in = state.range(0), out = state.range(1);
  const std::int64_t hw = state.range(2), batch = state.range(3);
  Rng rng(3);
  nn::Conv2d conv(in, out, 3, 1, 1, rng);
  const Tensor x = Tensor::normal(Shape{batch, in, hw, hw}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvForward)
    ->Args({3, 16, 16, 1, kLayerThreads})
    ->Args({3, 16, 16, 16, kLayerThreads})
    ->Apply([](benchmark::internal::Benchmark* b) {
      vgg_mini_conv_args(b, false);
    })
    ->UseRealTime();

void BM_ConvBackward(benchmark::State& state) {
  set_global_threads(static_cast<int>(state.range(4)));
  const std::int64_t in = state.range(0), out = state.range(1);
  const std::int64_t hw = state.range(2), batch = state.range(3);
  const bool input_grad = state.range(5) != 0;
  Rng rng(4);
  nn::Conv2d conv(in, out, 3, 1, 1, rng);
  const Tensor x = Tensor::normal(Shape{batch, in, hw, hw}, rng);
  const Tensor y = conv.forward(x, true);
  const Tensor g = Tensor::normal(y.shape(), rng);
  for (auto _ : state) {
    conv.zero_grad();
    Tensor gi = conv.backward_from(g.data(), g.shape(), input_grad);
    benchmark::DoNotOptimize(gi.data().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvBackward)
    ->Args({3, 16, 16, 1, kLayerThreads, 1})
    ->Args({3, 16, 16, 4, kLayerThreads, 1})
    ->Args({3, 16, 16, 16, kLayerThreads, 1})
    ->Args({3, 16, 16, 32, kLayerThreads, 1})
    ->Apply([](benchmark::internal::Benchmark* b) {
      vgg_mini_conv_args(b, true);
    })
    ->UseRealTime();

// vgg-mini's three 2x2 max-pools (after its 16-, 32- and 64-channel convs)
// on fig4_vgg's 64-sample evaluation batch, through infer's select-based
// scan. Args {channels, spatial}; one thread, so it is the layer's cost.
void BM_MaxPoolInfer(benchmark::State& state) {
  set_global_threads(1);
  const std::int64_t ch = state.range(0), hw = state.range(1);
  constexpr std::int64_t kBatch = 64;
  Rng rng(11);
  const Tensor x = Tensor::normal(Shape{kBatch, ch, hw, hw}, rng);
  nn::MaxPool2d pool(2);
  for (auto _ : state) {
    Tensor y = pool.infer(x);
    benchmark::DoNotOptimize(y.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_MaxPoolInfer)->Args({16, 16})->Args({32, 8})->Args({64, 4});

// One SyntheticCifar draw (3 channels, 10 classes, the default noise): the
// per-example jitter, patch and Box-Muller pixel noise over the class's
// texture table. Arg: image size (16 is fig4_vgg's).
void BM_SyntheticImage(benchmark::State& state) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = 1024;
  opt.image_size = state.range(0);
  const data::SyntheticCifar ds(opt);
  std::int64_t i = 0;
  for (auto _ : state) {
    Tensor img = ds.image(i);
    benchmark::DoNotOptimize(img.data().data());
    benchmark::ClobberMemory();
    i = (i + 1) % opt.num_examples;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyntheticImage)->Arg(16)->Arg(32);

void BM_LinearForward(benchmark::State& state) {
  set_global_threads(kLayerThreads);
  Rng rng(5);
  nn::Linear lin(512, 512, rng);
  const Tensor x = Tensor::normal(Shape{32, 512}, rng);
  for (auto _ : state) {
    Tensor y = lin.forward(x, true);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_LinearForward)->UseRealTime();

// A wide Linear at a small batch: its forward and input-gradient GEMMs have
// m = batch, fewer row blocks than pool threads, so only a split by column
// panel can use the pool. Args {batch, features, threads, backward}; real
// time, since the work runs on the pool's threads.
void BM_LinearSmallBatch(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  const std::int64_t features = state.range(1);
  set_global_threads(static_cast<int>(state.range(2)));
  const bool backward = state.range(3) != 0;
  Rng rng(5);
  nn::Linear lin(features, features, rng);
  const Tensor x = Tensor::normal(Shape{batch, features}, rng);
  const Tensor dy = Tensor::normal(Shape{batch, features}, rng);
  for (auto _ : state) {
    Tensor y = lin.forward(x, backward);
    benchmark::DoNotOptimize(y.data().data());
    if (backward) {
      Tensor dx = lin.backward(dy);
      benchmark::DoNotOptimize(dx.data().data());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LinearSmallBatch)
    ->Args({4, 2048, 1, 0})
    ->Args({4, 2048, 4, 0})
    ->Args({4, 2048, 1, 1})
    ->Args({4, 2048, 4, 1})
    ->Args({2, 4096, 4, 0})
    ->Args({4, 4096, 4, 0})
    ->Args({8, 4096, 4, 0})
    ->UseRealTime();

// One vgg-mini training step at 16x16 (fig4_vgg's model) on one thread:
// zero_grad, forward, loss, backward and the SGD step (fig4_vgg's learning
// rate and momentum), the compute of one platform step of the split
// protocol without its codec and network. The backward skips the input
// gradient, as the platform's L1 does. Every run trains a fresh model for
// a fixed 100 steps: on its one fixed batch the step's cost changes as the
// model trains (timed in 50-step blocks, it bumps between steps 100 and
// 150), so a count picked from the measured speed would time different
// steps on each side of a comparison. Arg: the minibatch; fig4_vgg's
// per-platform batches are 4, 8 and 14.
void BM_VggMiniTrainStep(benchmark::State& state) {
  set_global_threads(kKernelThreads);
  const std::int64_t batch = state.range(0);
  models::FactoryConfig cfg;
  cfg.name = "vgg-mini";
  cfg.image_size = 16;
  models::BuiltModel model = models::build_model(cfg);
  Rng rng(12);
  const Tensor x = Tensor::normal(Shape{batch, 3, 16, 16}, rng);
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < batch; ++i) {
    labels.push_back(i % cfg.num_classes);
  }
  optim::SgdOptions opt;
  opt.learning_rate = 0.02F;
  opt.momentum = 0.5F;
  optim::Sgd sgd(model.net.parameters(), opt);
  nn::SoftmaxCrossEntropy loss;
  for (auto _ : state) {
    sgd.zero_grad();
    const Tensor logits = model.net.forward(x, true);
    benchmark::DoNotOptimize(loss.forward(logits, labels));
    model.net.backward_params(loss.backward());
    sgd.step();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_VggMiniTrainStep)
    ->Arg(4)
    ->Arg(8)
    ->Arg(14)
    ->Iterations(100)
    ->UseRealTime();

// --- Execution-planner fusion families -------------------------------------
// Each pair runs the SAME bytes-identical computation (plan_test asserts
// bitwise equality) through the fused epilogue path vs the same plan run
// unfused, so Fused/Unfused time ratios isolate what fusion buys: no
// intermediate tensor materialization, no separate bias/BN/ReLU passes over
// the output. `peak_ws_bytes` reports the step-peak arena watermark the
// planner's slab chaining is measured by.

void run_infer_bench(benchmark::State& state, nn::Sequential& seq,
                     const Tensor& x, bool fused) {
  nn::set_planner_enabled(fused);
  (void)seq.infer(x);  // warm the arena to its high-water mark
  ws::reset_step_peak();
  for (auto _ : state) {
    Tensor y = seq.infer(x);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.counters["peak_ws_bytes"] =
      static_cast<double>(ws::global_step_peak_bytes());
  state.SetItemsProcessed(state.iterations() * x.shape().dim(0));
  nn::set_planner_enabled(true);
}

void conv_bn_relu_bench(benchmark::State& state, bool fused) {
  set_global_threads(kLayerThreads);
  Rng rng(8);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(16, 32, 3, 1, 1, rng);
  seq.emplace<nn::BatchNorm2d>(32);
  seq.emplace<nn::ReLU>();
  const Tensor x = Tensor::normal(Shape{8, 16, 16, 16}, rng);
  (void)seq.forward(x, true);  // make the BN running statistics non-trivial
  run_infer_bench(state, seq, x, fused);
}
void BM_ConvBnRelu_Fused(benchmark::State& state) {
  conv_bn_relu_bench(state, true);
}
void BM_ConvBnRelu_Unfused(benchmark::State& state) {
  conv_bn_relu_bench(state, false);
}
BENCHMARK(BM_ConvBnRelu_Fused)->UseRealTime();
BENCHMARK(BM_ConvBnRelu_Unfused)->UseRealTime();

void linear_relu_bench(benchmark::State& state, bool fused) {
  set_global_threads(kLayerThreads);
  Rng rng(9);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(512, 512, rng);
  seq.emplace<nn::ReLU>();
  const Tensor x = Tensor::normal(Shape{32, 512}, rng);
  run_infer_bench(state, seq, x, fused);
}
void BM_LinearRelu_Fused(benchmark::State& state) {
  linear_relu_bench(state, true);
}
void BM_LinearRelu_Unfused(benchmark::State& state) {
  linear_relu_bench(state, false);
}
BENCHMARK(BM_LinearRelu_Fused)->UseRealTime();
BENCHMARK(BM_LinearRelu_Unfused)->UseRealTime();

// Slab-chained deep inference: peak_ws_bytes must be flat in the depth arg
// with the planner on (2-slab ping-pong) — the pass-2 memory claim in
// numbers. Compare against the same depth Unfused, where every intermediate
// is a heap Tensor.
void conv_chain_bench(benchmark::State& state, bool fused) {
  set_global_threads(kLayerThreads);
  const std::int64_t depth = state.range(0);
  Rng rng(10);
  nn::Sequential seq;
  for (std::int64_t i = 0; i < depth; ++i) {
    seq.emplace<nn::Conv2d>(8, 8, 3, 1, 1, rng);
    seq.emplace<nn::ReLU>();
  }
  const Tensor x = Tensor::normal(Shape{4, 8, 16, 16}, rng);
  run_infer_bench(state, seq, x, fused);
}
void BM_ConvChainInfer_Fused(benchmark::State& state) {
  conv_chain_bench(state, true);
}
void BM_ConvChainInfer_Unfused(benchmark::State& state) {
  conv_chain_bench(state, false);
}
BENCHMARK(BM_ConvChainInfer_Fused)->Arg(4)->Arg(16)->UseRealTime();
BENCHMARK(BM_ConvChainInfer_Unfused)->Arg(4)->Arg(16)->UseRealTime();

void BM_TensorCodecRoundTrip(benchmark::State& state) {
  set_global_threads(kKernelThreads);
  const std::int64_t n = state.range(0);
  Rng rng(6);
  const Tensor t = Tensor::normal(Shape{n}, rng);
  for (auto _ : state) {
    BufferWriter w;
    encode_tensor(t, w);
    BufferReader r({w.bytes().data(), w.bytes().size()});
    Tensor back = decode_tensor(r);
    benchmark::DoNotOptimize(back.data().data());
  }
  state.SetBytesProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_TensorCodecRoundTrip)->Arg(1024)->Arg(65536);

// The wire and checkpoint checksum. 1 KiB is about one chaos_k64 activation
// frame, 128 KiB one fig4 activation frame, 1 MiB a checkpoint section.
void BM_Crc32(benchmark::State& state) {
  set_global_threads(kKernelThreads);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32({bytes.data(), bytes.size()}));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1024)->Arg(131072)->Arg(1048576);

void BM_NetworkSendReceive(benchmark::State& state) {
  set_global_threads(kKernelThreads);
  net::Network network;
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  Rng rng(7);
  const Tensor t = Tensor::normal(Shape{4096}, rng);
  std::uint64_t round = 0;
  for (auto _ : state) {
    network.send(core::make_tensor_envelope(a, b, core::MsgKind::kActivation,
                                            ++round, t));
    Envelope e = network.receive(b);
    benchmark::DoNotOptimize(e.payload.data());
  }
}
BENCHMARK(BM_NetworkSendReceive);

}  // namespace
