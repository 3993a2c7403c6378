// Scheduling ablation (extension): the paper's strictly sequential Fig. 3
// workflow vs overlapped uploads (same bytes, same math per platform, less
// WAN wall-clock). Also shows partial participation (hospitals joining
// intermittently) degrading gracefully.
#include <iostream>

#include "bench/bench_common.hpp"
#include "src/common/format.hpp"
#include "src/common/table.hpp"

namespace {

using namespace splitmed;
using namespace splitmed::bench;

constexpr std::int64_t kClasses = 4;
constexpr std::int64_t kRounds = 50;

}  // namespace

int main() {
  std::cout << "=== Round scheduling & participation (mlp, " << kRounds
            << " rounds, heterogeneous WAN) ===\n\n";

  const auto train = make_cifar(384, kClasses, 42, 8, 0, 0.4F);
  const auto test = make_cifar(96, kClasses, 42, 8, 384, 0.4F);
  const auto builder = mini_builder("mlp", kClasses, 8);

  Table table({"K", "schedule", "participation", "bytes", "WAN time",
               "final acc"});
  for (const std::int64_t k : {4L, 8L}) {
    Rng prng(7);
    const auto partition = data::partition_iid(train.size(), k, prng);
    struct Case {
      core::Schedule schedule;
      double participation;
      const char* label;
    };
    for (const Case& c :
         {Case{core::Schedule::kSequential, 1.0, "sequential (paper)"},
          Case{core::Schedule::kBoundedStaleness, 1.0, "overlapped"},
          Case{core::Schedule::kBoundedStaleness, 0.5, "overlapped"}}) {
      core::SplitConfig cfg;
      cfg.total_batch = 4 * k;
      cfg.rounds = kRounds;
      cfg.eval_every = kRounds;
      cfg.sgd = comparison_sgd();
      cfg.schedule = c.schedule;
      cfg.staleness_bound = 0;  // overlapped: every round drains fully
      cfg.participation = c.participation;
      core::SplitTrainer trainer(builder, train, partition, test, cfg);
      const auto report = trainer.run();
      table.add_row({std::to_string(k), c.label,
                     format_percent(c.participation, 0),
                     format_bytes(report.total_bytes),
                     format_duration(report.total_sim_seconds),
                     format_percent(report.final_accuracy)});
    }
  }
  table.print(std::cout);
  std::cout << "\nreading: overlapping uploads moves the same bytes in a "
               "fraction of the WAN time (the sequential Fig. 3 workflow "
               "pays K round-trips back to back); 50% participation halves "
               "traffic and still converges — robustness to intermittent "
               "hospitals.\n"
            << std::endl;
  return 0;
}
