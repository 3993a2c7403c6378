#include "src/nn/checkpoint.hpp"

#include <utility>

#include "src/common/error.hpp"
#include "src/serial/tensor_codec.hpp"

namespace splitmed {

void write_parameters(BufferWriter& w,
                      const std::vector<nn::Parameter*>& params) {
  w.write_u32(static_cast<std::uint32_t>(params.size()));
  for (const nn::Parameter* p : params) {
    SPLITMED_CHECK(p != nullptr, "null parameter");
    w.write_string(p->name);
    encode_tensor(p->value, w);
  }
}

void read_parameters(BufferReader& r,
                     const std::vector<nn::Parameter*>& params,
                     const std::string& context) {
  const std::uint32_t count = r.read_u32();
  if (count != params.size()) {
    throw SerializationError(context + ": parameter count mismatch: file has " +
                             std::to_string(count) + ", model has " +
                             std::to_string(params.size()));
  }
  std::vector<Tensor> values;
  values.reserve(params.size());
  for (const nn::Parameter* p : params) {
    const std::string name = r.read_string();
    if (name != p->name) {
      throw SerializationError(context + ": parameter name mismatch: file '" +
                               name + "' vs model '" + p->name + "'");
    }
    Tensor value;
    try {
      value = decode_tensor(r);
    } catch (const SerializationError& e) {
      throw SerializationError(context + ": short read in parameter '" + name +
                               "' (expected shape " + p->value.shape().str() +
                               "): " + e.what());
    }
    if (value.shape() != p->value.shape()) {
      throw SerializationError(context + ": shape mismatch for '" + name +
                               "': file " + value.shape().str() +
                               " vs model " + p->value.shape().str());
    }
    values.push_back(std::move(value));
  }
  // Every value decoded and validated: only now touch the parameters.
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(values[i]);
  }
}

}  // namespace splitmed
