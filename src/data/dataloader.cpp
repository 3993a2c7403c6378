#include "src/data/dataloader.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/serial/state_codec.hpp"

namespace splitmed::data {

DataLoader::DataLoader(const Dataset& dataset,
                       std::vector<std::int64_t> indices,
                       std::int64_t batch_size, Rng rng, bool drop_last)
    : dataset_(&dataset),
      indices_(std::move(indices)),
      batch_size_(batch_size),
      drop_last_(drop_last),
      rng_(rng) {
  SPLITMED_CHECK(batch_size_ > 0, "batch size must be positive");
  SPLITMED_CHECK(!indices_.empty(), "DataLoader needs a non-empty shard");
  for (const auto i : indices_) {
    SPLITMED_CHECK(i >= 0 && i < dataset.size(),
                   "shard index " << i << " out of dataset range");
  }
  start_epoch();
}

void DataLoader::set_batch_size(std::int64_t batch_size) {
  SPLITMED_CHECK(batch_size > 0, "batch size must be positive");
  batch_size_ = batch_size;
}

std::int64_t DataLoader::batches_per_epoch() const {
  const std::int64_t n = shard_size();
  return drop_last_ ? n / batch_size_ : (n + batch_size_ - 1) / batch_size_;
}

void DataLoader::start_epoch() {
  rng_.shuffle(indices_);
  cursor_ = 0;
}

Batch DataLoader::next_batch() {
  if (cursor_ >= indices_.size() ||
      (drop_last_ &&
       cursor_ + static_cast<std::size_t>(batch_size_) > indices_.size())) {
    start_epoch();
  }
  const std::size_t take = std::min(static_cast<std::size_t>(batch_size_),
                                    indices_.size() - cursor_);
  std::span<const std::int64_t> slice(indices_.data() + cursor_, take);
  cursor_ += take;
  return Batch{dataset_->batch_images(slice), dataset_->batch_labels(slice)};
}

void DataLoader::save_state(BufferWriter& writer) const {
  writer.write_u64(indices_.size());
  for (const std::int64_t i : indices_) writer.write_i64(i);
  writer.write_u64(cursor_);
  encode_rng(rng_, writer);
}

void DataLoader::load_state(BufferReader& reader) {
  const std::uint64_t count = reader.read_u64();
  if (count != indices_.size()) {
    throw SerializationError("DataLoader state: checkpoint shard has " +
                             std::to_string(count) + " indices, loader has " +
                             std::to_string(indices_.size()));
  }
  std::vector<std::int64_t> permutation;
  permutation.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    permutation.push_back(reader.read_i64());
  }
  std::vector<std::int64_t> ours = indices_;
  std::vector<std::int64_t> theirs = permutation;
  std::sort(ours.begin(), ours.end());
  std::sort(theirs.begin(), theirs.end());
  if (ours != theirs) {
    throw SerializationError(
        "DataLoader state: stored permutation is not a permutation of this "
        "loader's shard");
  }
  const std::uint64_t cursor = reader.read_u64();
  if (cursor > count) {
    throw SerializationError("DataLoader state: cursor " +
                             std::to_string(cursor) + " past shard size " +
                             std::to_string(count));
  }
  Rng rng = rng_;
  decode_rng(reader, rng);
  indices_ = std::move(permutation);
  cursor_ = static_cast<std::size_t>(cursor);
  rng_ = rng;
}

Batch DataLoader::full_shard() const {
  std::vector<std::int64_t> sorted = indices_;
  std::sort(sorted.begin(), sorted.end());
  return Batch{dataset_->batch_images(sorted), dataset_->batch_labels(sorted)};
}

}  // namespace splitmed::data
