#include "src/optim/sgd.hpp"

#include "src/common/error.hpp"
#include "src/serial/tensor_codec.hpp"

namespace splitmed::optim {

Sgd::Sgd(std::vector<nn::Parameter*> params, SgdOptions options)
    : params_(std::move(params)), options_(options) {
  SPLITMED_CHECK(options_.learning_rate > 0.0F, "Sgd: lr must be positive");
  SPLITMED_CHECK(options_.momentum >= 0.0F && options_.momentum < 1.0F,
                 "Sgd: momentum must be in [0,1)");
  velocity_.reserve(params_.size());
  for (const nn::Parameter* p : params_) {
    velocity_.emplace_back(p->value.shape());
  }
}

void Sgd::reset_state() {
  for (Tensor& v : velocity_) v.zero();
}

void Sgd::step() {
  const float lr = options_.learning_rate;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Parameter& p = *params_[i];
    auto v = p.value.data();
    auto g = p.grad.data();
    if (options_.momentum == 0.0F) {
      for (std::size_t j = 0; j < v.size(); ++j) {
        const float grad = g[j] + options_.weight_decay * v[j];
        v[j] -= lr * grad;
      }
      continue;
    }
    auto vel = velocity_[i].data();
    for (std::size_t j = 0; j < v.size(); ++j) {
      const float grad = g[j] + options_.weight_decay * v[j];
      vel[j] = options_.momentum * vel[j] + grad;
      v[j] -= lr * vel[j];
    }
  }
}

void Sgd::save_state(BufferWriter& writer) const {
  writer.write_u32(static_cast<std::uint32_t>(velocity_.size()));
  for (const Tensor& v : velocity_) encode_tensor(v, writer);
}

void Sgd::load_state(BufferReader& reader) {
  const std::uint32_t count = reader.read_u32();
  if (count != velocity_.size()) {
    throw SerializationError("Sgd state: checkpoint has " +
                             std::to_string(count) + " velocity buffers, " +
                             "optimizer has " +
                             std::to_string(velocity_.size()));
  }
  std::vector<Tensor> loaded;
  loaded.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Tensor v = decode_tensor(reader);
    if (v.shape() != params_[i]->value.shape()) {
      throw SerializationError(
          "Sgd state: velocity " + std::to_string(i) + " expected shape " +
          params_[i]->value.shape().str() + ", got " + v.shape().str());
    }
    loaded.push_back(std::move(v));
  }
  velocity_ = std::move(loaded);
}

}  // namespace splitmed::optim
