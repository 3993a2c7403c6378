// Geo-distributed hospital scenario — the paper's motivating deployment
// (§I and future work: "geo-distributed hospitals"): five hospitals with
// heterogeneous WAN links jointly grade lesions on synthetic medical scans,
// without any scan leaving its hospital. Compares the split framework
// against each hospital training alone, and reports per-grade recall (what
// a clinician would ask for).
#include <iostream>

#include "src/baselines/local_only.hpp"
#include "src/common/format.hpp"
#include "src/common/table.hpp"
#include "src/core/trainer.hpp"
#include "src/data/partition.hpp"
#include "src/data/synthetic_medical.hpp"
#include "src/metrics/confusion.hpp"
#include "src/models/factory.hpp"
#include "src/net/topology.hpp"

namespace {

using namespace splitmed;

constexpr std::int64_t kHospitals = 5;
constexpr std::int64_t kGrades = 4;
constexpr std::int64_t kScans = 400;

data::SyntheticMedical make_scans(std::int64_t n, std::int64_t offset) {
  data::SyntheticMedicalOptions opt;
  opt.num_examples = n;
  opt.num_grades = kGrades;
  opt.image_size = 16;
  opt.noise_stddev = 0.25F;
  opt.index_offset = offset;
  return data::SyntheticMedical(opt);
}

}  // namespace

int main() {
  std::cout << "=== Geo-distributed hospital network ===\n"
            << kHospitals << " hospitals, " << kScans
            << " scans total, lesion grades 0 (healthy) .. " << kGrades - 1
            << "\n\n";

  const auto train = make_scans(kScans, 0);
  const auto test = make_scans(120, kScans);

  // Hospital sizes are wildly unequal — a university hospital vs clinics.
  Rng prng(3);
  const auto partition =
      data::partition_weighted(train.size(), {10, 5, 3, 2, 1}, prng);
  std::cout << "hospital shard sizes:";
  for (const auto& shard : partition) std::cout << ' ' << shard.size();
  std::cout << "\n\n";

  const core::ModelBuilder builder = [] {
    models::FactoryConfig cfg;
    cfg.name = "resnet-mini";
    cfg.in_channels = 1;  // grayscale scans
    cfg.image_size = 16;
    cfg.num_classes = kGrades;
    return models::build_model(cfg);
  };

  // --- split framework over the heterogeneous hospital WAN ---------------
  core::SplitConfig cfg;
  cfg.total_batch = 30;
  cfg.policy = core::MinibatchPolicy::kProportional;
  cfg.rounds = 80;
  cfg.eval_every = 20;
  cfg.sgd.learning_rate = 0.02F;
  cfg.sgd.momentum = 0.5F;
  core::SplitTrainer trainer(builder, train, partition, test, cfg);
  const auto report = trainer.run();

  // --- each hospital alone (today's practice, per the paper's §I) ---------
  baselines::BaselineConfig local_cfg;
  local_cfg.total_batch = 30;
  local_cfg.steps = 80;
  local_cfg.eval_every = 80;
  local_cfg.sgd = cfg.sgd;
  baselines::LocalOnlyTrainer local(builder, train, partition, test,
                                    local_cfg);
  const auto local_report = local.run();

  Table summary({"approach", "mean accuracy", "worst hospital", "bytes moved",
                 "WAN time"});
  summary.add_row({"split framework (paper)",
                   format_percent(report.final_accuracy), "(shared model)",
                   format_bytes(report.total_bytes),
                   format_duration(report.total_sim_seconds)});
  summary.add_row({"local-only (status quo)",
                   format_percent(local_report.combined.final_accuracy),
                   format_percent(local_report.min_accuracy), "0 B", "0 ms"});
  summary.print(std::cout);

  // Per-grade recall of hospital 0's deployed composite model.
  metrics::ConfusionMatrix cm(kGrades);
  for (std::int64_t begin = 0; begin < test.size(); begin += 30) {
    const std::int64_t end = std::min<std::int64_t>(begin + 30, test.size());
    std::vector<std::int64_t> idx;
    for (std::int64_t i = begin; i < end; ++i) idx.push_back(i);
    Tensor x = test.batch_images(idx);
    Tensor logits = trainer.platform(0).l1().forward(x, false);
    logits = trainer.server().body().forward(logits, false);
    cm.add_batch(logits, test.batch_labels(idx));
  }
  std::cout << "\nper-grade recall (hospital 0's deployed model):\n";
  for (std::int64_t g = 0; g < kGrades; ++g) {
    std::cout << "  grade " << g << ": " << format_percent(cm.recall(g))
              << "\n";
  }
  std::cout << "balanced accuracy: " << format_percent(cm.balanced_accuracy())
            << "\n\nNo scan or label ever left its hospital: the server saw "
               "only L1 activations and logit gradients.\n";
  return 0;
}
