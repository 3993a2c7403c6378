// Synthetic CIFAR-shaped dataset (3x32x32 by default, 10 or 100 classes).
//
// Substitution for the real CIFAR-10/100 used in the paper's Fig. 4 (see
// DESIGN.md): byte accounting depends only on tensor shapes, and the accuracy
// axis needs a learnable task of identical shape, which this provides.
//
// Each class c has a deterministic signature drawn from Rng(seed, c):
//   * a base colour per channel,
//   * an oriented sinusoidal texture (frequency + phase per channel),
//   * a bright square patch whose position is class-dependent.
// Each example adds per-example jitter (patch offset, amplitude) and pixel
// noise, so the task is non-trivial but solvable by small conv nets.
#pragma once

#include <vector>

#include "src/data/dataset.hpp"

namespace splitmed::data {

struct SyntheticCifarOptions {
  std::int64_t num_examples = 1024;
  std::int64_t num_classes = 10;
  std::int64_t image_size = 32;   // height == width
  std::int64_t channels = 3;
  float noise_stddev = 0.15F;     // per-pixel Gaussian noise
  std::uint64_t seed = 42;
  /// Shifts the per-example generator: examples are drawn at virtual indices
  /// [index_offset, index_offset + num_examples). A held-out test set uses
  /// the SAME seed (same class signatures = same task) with an offset past
  /// the training range (fresh examples).
  std::int64_t index_offset = 0;
};

class SyntheticCifar final : public Dataset {
 public:
  explicit SyntheticCifar(SyntheticCifarOptions options);

  [[nodiscard]] std::int64_t size() const override {
    return options_.num_examples;
  }
  [[nodiscard]] Shape image_shape() const override;
  [[nodiscard]] std::int64_t num_classes() const override {
    return options_.num_classes;
  }
  [[nodiscard]] Tensor image(std::int64_t i) const override;
  [[nodiscard]] std::int64_t label(std::int64_t i) const override;

 private:
  struct ClassSignature {
    std::vector<float> base;      // per channel
    std::vector<float> freq_x;    // per channel
    std::vector<float> freq_y;
    std::vector<float> phase;
    float patch_x = 0.0F;         // patch centre, fraction of width/height
    float patch_y = 0.0F;
    float patch_intensity = 0.0F;
  };

  SyntheticCifarOptions options_;
  std::vector<ClassSignature> signatures_;
  /// sin(2π/n·(fx·x + fy·y) + phase) per (class, channel, pixel): the
  /// texture term of image(), which depends on nothing an example draws.
  /// classes × channels × size² floats.
  std::vector<float> texture_;
};

}  // namespace splitmed::data
