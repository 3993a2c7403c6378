// §II bandwidth-vs-depth claim: "this problem is manifested further when the
// model becomes deeper and larger". Weight-exchange protocols (Large-Scale
// SGD, FedAvg) pay per parameter, so their per-step cost grows with depth;
// the split protocol pays per cut activation, which is depth-independent.
// Analytic sweep across the VGG/ResNet families at paper scale, plus a
// MEASURED sweep of the execution planner's memory claim: with fused
// groups ping-ponging between two slabs, peak workspace bytes per inference
// step stay flat in depth instead of growing with it.
#include <chrono>
#include <iostream>

#include "src/common/aligned.hpp"
#include "src/common/format.hpp"
#include "src/common/rng.hpp"
#include "src/common/table.hpp"
#include "src/common/thread_pool.hpp"
#include "src/models/factory.hpp"
#include "src/models/model_stats.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/plan.hpp"
#include "src/nn/sequential.hpp"
#include "src/tensor/workspace.hpp"

namespace {

// One measured point: a depth-N conv→relu chain run through infer() with
// the planner on or off. Returns {step-peak arena bytes, peak live
// aligned-heap bytes, wall microseconds} for one steady-state step.
struct DepthPoint {
  std::size_t arena_peak = 0;
  std::size_t heap_peak = 0;
  long long micros = 0;
};

DepthPoint measure_depth(int depth, bool planner) {
  using namespace splitmed;
  nn::set_planner_enabled(planner);
  Rng rng(11);
  nn::Sequential seq;
  for (int i = 0; i < depth; ++i) {
    seq.emplace<nn::Conv2d>(8, 8, 3, 1, 1, rng);
    seq.emplace<nn::ReLU>();
  }
  const Tensor x = Tensor::normal(Shape{4, 8, 16, 16}, rng);
  (void)seq.infer(x);  // warm-up: arena grows to its high-water mark
  ws::reset_step_peak();
  reset_aligned_peak_bytes();
  const auto t0 = std::chrono::steady_clock::now();
  Tensor y = seq.infer(x);
  const auto t1 = std::chrono::steady_clock::now();
  nn::set_planner_enabled(true);
  return {ws::global_step_peak_bytes(), aligned_peak_bytes(),
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count()};
}

}  // namespace

int main() {
  using namespace splitmed;
  constexpr std::int64_t kBatch = 128;
  constexpr std::int64_t kPlatforms = 4;

  std::cout << "=== Communication per step vs model depth (analytic, batch "
            << kBatch << ", K=" << kPlatforms << ") ===\n\n";

  Table table({"model", "params", "split bytes/step", "sync-SGD bytes/step",
               "fedavg bytes/round", "SGD/split"});
  for (const char* name :
       {"vgg11", "vgg13", "vgg16", "resnet20", "resnet32", "resnet18"}) {
    models::FactoryConfig cfg;
    cfg.name = name;
    cfg.image_size = 32;
    cfg.num_classes = 10;
    auto model = models::build_model(cfg);
    auto stats = models::ModelStats::analyze(model);
    const auto split = stats.split_step_bytes_uniform(kBatch, kPlatforms);
    const auto sgd = stats.syncsgd_step_bytes(kPlatforms);
    table.add_row(
        {name,
         format_bytes(static_cast<std::uint64_t>(stats.total_params) * 4),
         format_bytes(split), format_bytes(sgd),
         format_bytes(stats.fedavg_round_bytes(kPlatforms)),
         format_fixed(static_cast<double>(sgd) / static_cast<double>(split),
                      1) +
             "x"});
  }
  table.print(std::cout);
  std::cout << "\nreading: within each family, deeper models widen the gap "
               "in the split framework's favour — the paper's motivation for "
               "splitting rather than exchanging weights.\n"
            << std::endl;

  std::cout << "=== Peak workspace bytes vs depth (measured, conv3x3/8ch "
               "chain, batch 4, 1 thread) ===\n\n";
  set_global_threads(1);
  Table mem({"depth", "planner", "arena peak/step", "heap peak", "step us"});
  for (const int depth : {2, 4, 8, 16}) {
    for (const bool planner : {true, false}) {
      const DepthPoint p = measure_depth(depth, planner);
      mem.add_row({std::to_string(depth), planner ? "on" : "off",
                   format_bytes(p.arena_peak), format_bytes(p.heap_peak),
                   std::to_string(p.micros)});
    }
  }
  mem.print(std::cout);
  std::cout << "\nreading: with the planner on, fused groups chain through "
               "2 ping-pong arena slabs, so the per-step arena peak "
               "is FLAT from depth 4 on; with it off, every intermediate is "
               "a heap tensor and the only arena use is per-layer scratch.\n"
            << std::endl;
  return 0;
}
