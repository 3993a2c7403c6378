// Tests for data/: synthetic datasets, partitioning, loaders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/data/dataloader.hpp"
#include "src/data/partition.hpp"
#include "src/data/synthetic_cifar.hpp"
#include "src/data/synthetic_medical.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed {
namespace {

data::SyntheticCifar small_cifar(std::int64_t n = 64, std::int64_t classes = 10,
                                 std::uint64_t seed = 42) {
  data::SyntheticCifarOptions opt;
  opt.num_examples = n;
  opt.num_classes = classes;
  opt.image_size = 16;
  opt.seed = seed;
  return data::SyntheticCifar(opt);
}

TEST(SyntheticCifar, ShapesAndLabels) {
  const auto ds = small_cifar();
  EXPECT_EQ(ds.size(), 64);
  EXPECT_EQ(ds.num_classes(), 10);
  EXPECT_EQ(ds.image_shape(), Shape({3, 16, 16}));
  EXPECT_EQ(ds.image(0).shape(), Shape({3, 16, 16}));
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    EXPECT_GE(ds.label(i), 0);
    EXPECT_LT(ds.label(i), 10);
  }
}

TEST(SyntheticCifar, DeterministicPerIndexAndSeed) {
  const auto a = small_cifar();
  const auto b = small_cifar();
  EXPECT_EQ(ops::max_abs_diff(a.image(7), b.image(7)), 0.0F);
  const auto c = small_cifar(64, 10, /*seed=*/1);
  EXPECT_GT(ops::max_abs_diff(a.image(7), c.image(7)), 0.0F);
}

TEST(SyntheticCifar, DistinctExamplesWithinClass) {
  const auto ds = small_cifar();
  // Examples 0 and 10 share a class (label = i % 10) but must differ.
  EXPECT_EQ(ds.label(0), ds.label(10));
  EXPECT_GT(ops::max_abs_diff(ds.image(0), ds.image(10)), 0.05F);
}

TEST(SyntheticCifar, ClassSignalExceedsNoise) {
  // Mean within-class distance should be smaller than between-class distance
  // (otherwise the task would be unlearnable).
  const auto ds = small_cifar(40, 2);
  double within = 0.0, between = 0.0;
  int nw = 0, nb = 0;
  for (std::int64_t i = 0; i < 10; ++i) {
    for (std::int64_t j = i + 1; j < 10; ++j) {
      const float d = ops::mse(ds.image(i), ds.image(j));
      if (ds.label(i) == ds.label(j)) {
        within += d;
        ++nw;
      } else {
        between += d;
        ++nb;
      }
    }
  }
  EXPECT_LT(within / nw, between / nb);
}

/// SyntheticCifar::image as it was written before the texture moved into a
/// per-class table: the class signature and the per-pixel sine recomputed
/// for every draw.
std::vector<float> per_pixel_image(const data::SyntheticCifarOptions& opt,
                                   std::int64_t i) {
  const std::int64_t cls = (i + opt.index_offset) % opt.num_classes;
  Rng sig(opt.seed * 0x9E3779B9ULL + static_cast<std::uint64_t>(cls));
  std::vector<float> base, freq_x, freq_y, phase;
  for (std::int64_t ch = 0; ch < opt.channels; ++ch) {
    base.push_back(sig.uniform(0.2F, 0.8F));
    freq_x.push_back(sig.uniform(0.5F, 3.0F));
    freq_y.push_back(sig.uniform(0.5F, 3.0F));
    phase.push_back(sig.uniform(0.0F, 6.28F));
  }
  const float patch_x = sig.uniform(0.2F, 0.8F);
  const float patch_y = sig.uniform(0.2F, 0.8F);
  const float patch_intensity = sig.uniform(0.3F, 0.6F);

  const auto virtual_index = static_cast<std::uint64_t>(i + opt.index_offset);
  Rng rng(opt.seed ^
          (0xA24BAED4963EE407ULL + virtual_index * 0x9E3779B97F4A7C15ULL));
  const std::int64_t n = opt.image_size;
  const float jitter_x = rng.uniform(-0.08F, 0.08F);
  const float jitter_y = rng.uniform(-0.08F, 0.08F);
  const float amp = rng.uniform(0.15F, 0.3F);
  const float patch_half = rng.uniform(0.10F, 0.16F);
  const float px = (patch_x + jitter_x) * static_cast<float>(n);
  const float py = (patch_y + jitter_y) * static_cast<float>(n);
  const float ph = patch_half * static_cast<float>(n);
  const float two_pi_over_n = 6.28318530718F / static_cast<float>(n);
  std::vector<float> out(static_cast<std::size_t>(opt.channels * n * n));
  for (std::int64_t ch = 0; ch < opt.channels; ++ch) {
    const auto c = static_cast<std::size_t>(ch);
    for (std::int64_t y = 0; y < n; ++y) {
      for (std::int64_t x = 0; x < n; ++x) {
        float v = base[c] +
                  amp * std::sin(two_pi_over_n *
                                     (freq_x[c] * static_cast<float>(x) +
                                      freq_y[c] * static_cast<float>(y)) +
                                 phase[c]);
        if (std::abs(static_cast<float>(x) - px) < ph &&
            std::abs(static_cast<float>(y) - py) < ph) {
          v += patch_intensity;
        }
        v += opt.noise_stddev * rng.normal();
        out[static_cast<std::size_t>((ch * n + y) * n + x)] = v;
      }
    }
  }
  return out;
}

TEST(SyntheticCifar, ImagesMatchPerPixelSynthesisBitwise) {
  for (const std::int64_t size : {8, 16, 32}) {
    data::SyntheticCifarOptions opt;
    opt.num_examples = 40;
    opt.num_classes = 7;
    opt.image_size = size;
    opt.seed = 1234 + static_cast<std::uint64_t>(size);
    opt.index_offset = 5;
    const data::SyntheticCifar ds(opt);
    for (const std::int64_t i : {0, 1, 2, 6, 13, 27, 39}) {
      const Tensor img = ds.image(i);
      const std::vector<float> want = per_pixel_image(opt, i);
      ASSERT_EQ(img.numel(), static_cast<std::int64_t>(want.size()));
      EXPECT_EQ(std::memcmp(img.data().data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "size " << size << " index " << i << " class " << ds.label(i);
    }
  }
}

TEST(SyntheticCifar, IndexOutOfRangeThrows) {
  const auto ds = small_cifar(8);
  EXPECT_THROW(ds.image(8), InvalidArgument);
  EXPECT_THROW((void)ds.label(-1), InvalidArgument);
}

TEST(SyntheticMedical, ShapesAndGrades) {
  data::SyntheticMedicalOptions opt;
  opt.num_examples = 32;
  opt.num_grades = 4;
  opt.image_size = 24;
  const data::SyntheticMedical ds(opt);
  EXPECT_EQ(ds.image_shape(), Shape({1, 24, 24}));
  EXPECT_EQ(ds.num_classes(), 4);
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ds.label(i), i % 4);
  }
}

TEST(SyntheticMedical, HigherGradeBrighterLesion) {
  data::SyntheticMedicalOptions opt;
  opt.num_examples = 400;
  opt.num_grades = 4;
  opt.noise_stddev = 0.0F;
  const data::SyntheticMedical ds(opt);
  // Max pixel intensity should grow with lesion grade on average.
  double mean_max[4] = {};
  int counts[4] = {};
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    mean_max[ds.label(i)] += ops::max(ds.image(i));
    ++counts[ds.label(i)];
  }
  for (int g = 0; g < 4; ++g) mean_max[g] /= counts[g];
  EXPECT_LT(mean_max[0], mean_max[2]);
  EXPECT_LT(mean_max[1], mean_max[3]);
}

TEST(Dataset, BatchGather) {
  const auto ds = small_cifar();
  const std::vector<std::int64_t> idx = {3, 0, 5};
  const Tensor batch = ds.batch_images(idx);
  EXPECT_EQ(batch.shape(), Shape({3, 3, 16, 16}));
  EXPECT_EQ(ops::max_abs_diff(batch.slice_rows(1, 2).reshape(ds.image_shape()),
                              ds.image(0)),
            0.0F);
  const auto labels = ds.batch_labels(idx);
  EXPECT_EQ(labels, (std::vector<std::int64_t>{3, 0, 5}));
}

TEST(Partition, IidCoversAllIndicesDisjointly) {
  Rng rng(1);
  const auto p = data::partition_iid(100, 4, rng);
  ASSERT_EQ(p.size(), 4U);
  std::set<std::int64_t> seen;
  for (const auto& shard : p) {
    EXPECT_EQ(shard.size(), 25U);
    for (const auto i : shard) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
  }
  EXPECT_EQ(seen.size(), 100U);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

TEST(Partition, WeightedSizesProportional) {
  Rng rng(2);
  const auto p = data::partition_weighted(100, {3.0, 1.0}, rng);
  ASSERT_EQ(p.size(), 2U);
  EXPECT_EQ(p[0].size(), 75U);
  EXPECT_EQ(p[1].size(), 25U);
  EXPECT_EQ(data::partition_total(p), 100);
}

TEST(Partition, WeightedFloorsAtOne) {
  Rng rng(3);
  const auto p = data::partition_weighted(10, {1000.0, 1.0, 1.0}, rng);
  for (const auto& shard : p) EXPECT_GE(shard.size(), 1U);
  EXPECT_EQ(data::partition_total(p), 10);
}

TEST(Partition, ZipfMonotoneDecreasing) {
  Rng rng(4);
  const auto p = data::partition_zipf(1000, 5, 1.2, rng);
  for (std::size_t k = 1; k < p.size(); ++k) {
    EXPECT_LE(p[k].size(), p[k - 1].size());
  }
  EXPECT_EQ(data::partition_total(p), 1000);
}

TEST(Partition, ZipfAlphaZeroIsBalanced) {
  Rng rng(5);
  const auto p = data::partition_zipf(100, 4, 0.0, rng);
  for (const auto& shard : p) EXPECT_EQ(shard.size(), 25U);
}

TEST(Partition, LabelSkewConcentratesClasses) {
  const auto ds = small_cifar(200, 10);
  Rng rng(6);
  const auto p = data::partition_label_skew(ds, 5, 2, rng);
  EXPECT_EQ(data::partition_total(p), 200);
  // With 2 shards per platform over 10 sorted shards, each platform should
  // see few distinct labels (<= 4 given shard boundaries).
  for (const auto& shard : p) {
    std::set<std::int64_t> labels;
    for (const auto i : shard) labels.insert(ds.label(i));
    EXPECT_LE(labels.size(), 4U);
  }
}

TEST(Partition, Validation) {
  Rng rng(7);
  EXPECT_THROW(data::partition_iid(10, 0, rng), InvalidArgument);
  EXPECT_THROW(data::partition_weighted(1, {1.0, 1.0}, rng), InvalidArgument);
  EXPECT_THROW(data::partition_weighted(10, {1.0, -1.0}, rng),
               InvalidArgument);
}

TEST(DataLoader, EpochCoversShardOnce) {
  const auto ds = small_cifar(32);
  std::vector<std::int64_t> shard = {1, 3, 5, 7, 9, 11, 13, 15};
  data::DataLoader loader(ds, shard, 3, Rng(1));
  std::multiset<std::int64_t> seen;
  // One epoch = ceil(8/3) = 3 batches (2 full + 1 of size 2).
  for (int b = 0; b < 3; ++b) {
    const auto batch = loader.next_batch();
    for (std::size_t i = 0; i < batch.labels.size(); ++i) {
      // Recover which dataset index produced this row via label uniqueness:
      // labels are index % 10, ambiguous; instead count rows.
      seen.insert(static_cast<std::int64_t>(batch.labels[i]));
    }
  }
  EXPECT_EQ(seen.size(), 8U);
}

TEST(DataLoader, BatchSizesAndEpochRollover) {
  const auto ds = small_cifar(32);
  std::vector<std::int64_t> shard = {0, 1, 2, 3, 4};
  data::DataLoader loader(ds, shard, 2, Rng(2));
  EXPECT_EQ(loader.batches_per_epoch(), 3);
  EXPECT_EQ(loader.next_batch().labels.size(), 2U);
  EXPECT_EQ(loader.next_batch().labels.size(), 2U);
  EXPECT_EQ(loader.next_batch().labels.size(), 1U);  // epoch tail
  EXPECT_EQ(loader.next_batch().labels.size(), 2U);  // next epoch restarts
}

TEST(DataLoader, SetBatchSizeTakesEffect) {
  const auto ds = small_cifar(32);
  std::vector<std::int64_t> shard(16);
  std::iota(shard.begin(), shard.end(), 0);
  data::DataLoader loader(ds, shard, 4, Rng(3));
  loader.set_batch_size(8);
  EXPECT_EQ(loader.next_batch().labels.size(), 8U);
}

TEST(DataLoader, ValidatesConstruction) {
  const auto ds = small_cifar(8);
  EXPECT_THROW(data::DataLoader(ds, {}, 2, Rng(1)), InvalidArgument);
  EXPECT_THROW(data::DataLoader(ds, {0, 99}, 2, Rng(1)), InvalidArgument);
  EXPECT_THROW(data::DataLoader(ds, {0, 1}, 0, Rng(1)), InvalidArgument);
}

TEST(DataLoader, FullShardIsSortedAndComplete) {
  const auto ds = small_cifar(16);
  data::DataLoader loader(ds, {5, 1, 3}, 2, Rng(4));
  const auto batch = loader.full_shard();
  EXPECT_EQ(batch.images.shape().dim(0), 3);
  EXPECT_EQ(batch.labels, (std::vector<std::int64_t>{1, 3, 5}));
}

}  // namespace
}  // namespace splitmed
