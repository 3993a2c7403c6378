#include "src/data/synthetic_cifar.hpp"

#include <cmath>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace splitmed::data {

SyntheticCifar::SyntheticCifar(SyntheticCifarOptions options)
    : options_(options) {
  SPLITMED_CHECK(options_.num_examples >= 0, "negative example count");
  SPLITMED_CHECK(options_.num_classes > 0, "need at least one class");
  SPLITMED_CHECK(options_.image_size > 0 && options_.channels > 0,
                 "bad image geometry");
  signatures_.reserve(static_cast<std::size_t>(options_.num_classes));
  for (std::int64_t c = 0; c < options_.num_classes; ++c) {
    Rng rng(options_.seed * 0x9E3779B9ULL + static_cast<std::uint64_t>(c));
    ClassSignature sig;
    for (std::int64_t ch = 0; ch < options_.channels; ++ch) {
      sig.base.push_back(rng.uniform(0.2F, 0.8F));
      sig.freq_x.push_back(rng.uniform(0.5F, 3.0F));
      sig.freq_y.push_back(rng.uniform(0.5F, 3.0F));
      sig.phase.push_back(rng.uniform(0.0F, 6.28F));
    }
    sig.patch_x = rng.uniform(0.2F, 0.8F);
    sig.patch_y = rng.uniform(0.2F, 0.8F);
    sig.patch_intensity = rng.uniform(0.3F, 0.6F);
    signatures_.push_back(std::move(sig));
  }
  // image() reads the texture from this table instead of calling sin per
  // pixel of every draw: the same expression, so the same floats.
  const std::int64_t n = options_.image_size;
  const float two_pi_over_n = 6.28318530718F / static_cast<float>(n);
  texture_.resize(static_cast<std::size_t>(options_.num_classes *
                                           options_.channels * n * n));
  float* t = texture_.data();
  for (const ClassSignature& sig : signatures_) {
    for (std::int64_t ch = 0; ch < options_.channels; ++ch) {
      const float fx = sig.freq_x[static_cast<std::size_t>(ch)];
      const float fy = sig.freq_y[static_cast<std::size_t>(ch)];
      const float phase = sig.phase[static_cast<std::size_t>(ch)];
      for (std::int64_t y = 0; y < n; ++y) {
        for (std::int64_t x = 0; x < n; ++x) {
          *t++ = std::sin(two_pi_over_n * (fx * static_cast<float>(x) +
                                           fy * static_cast<float>(y)) +
                          phase);
        }
      }
    }
  }
}

Shape SyntheticCifar::image_shape() const {
  return Shape{options_.channels, options_.image_size, options_.image_size};
}

std::int64_t SyntheticCifar::label(std::int64_t i) const {
  check_index(i);
  // Uniform class distribution, deterministic in the (offset) index.
  return (i + options_.index_offset) % options_.num_classes;
}

Tensor SyntheticCifar::image(std::int64_t i) const {
  check_index(i);
  const std::int64_t cls = label(i);
  const ClassSignature& sig = signatures_[static_cast<std::size_t>(cls)];
  const auto virtual_index =
      static_cast<std::uint64_t>(i + options_.index_offset);
  Rng rng(options_.seed ^ (0xA24BAED4963EE407ULL +
                           virtual_index * 0x9E3779B97F4A7C15ULL));
  const std::int64_t n = options_.image_size;
  Tensor img(image_shape());
  auto d = img.data();

  // Per-example jitter keeps within-class variety high.
  const float jitter_x = rng.uniform(-0.08F, 0.08F);
  const float jitter_y = rng.uniform(-0.08F, 0.08F);
  const float amp = rng.uniform(0.15F, 0.3F);
  const float patch_half = rng.uniform(0.10F, 0.16F);

  const float px = (sig.patch_x + jitter_x) * static_cast<float>(n);
  const float py = (sig.patch_y + jitter_y) * static_cast<float>(n);
  const float ph = patch_half * static_cast<float>(n);

  const float* wave_table = texture_.data() + cls * options_.channels * n * n;
  for (std::int64_t ch = 0; ch < options_.channels; ++ch) {
    float* plane = d.data() + ch * n * n;
    const float* wave = wave_table + ch * n * n;
    const float base = sig.base[static_cast<std::size_t>(ch)];
    for (std::int64_t y = 0; y < n; ++y) {
      for (std::int64_t x = 0; x < n; ++x) {
        float v = base + amp * wave[y * n + x];
        if (std::abs(static_cast<float>(x) - px) < ph &&
            std::abs(static_cast<float>(y) - py) < ph) {
          v += sig.patch_intensity;
        }
        v += options_.noise_stddev * rng.normal();
        plane[y * n + x] = v;
      }
    }
  }
  return img;
}

}  // namespace splitmed::data
