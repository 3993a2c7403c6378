// The parameter block — a model's (or a split half's) parameter values as
// one record: u32 parameter count, then per parameter a length-prefixed name
// and the tensor payload. Every SMCKPT02 node checkpoint (core/checkpoint.hpp)
// opens its `state` section with this block; there is no parameters-only
// file.
#pragma once

#include <string>
#include <vector>

#include "src/nn/parameter.hpp"
#include "src/serial/buffer.hpp"

namespace splitmed {

/// Appends the parameter block to `w`.
void write_parameters(BufferWriter& w,
                      const std::vector<nn::Parameter*>& params);

/// Mirror of write_parameters. Decodes every tensor into temporaries and
/// validates count, names (in order), and shapes BEFORE applying anything —
/// `params` are untouched when this throws. Errors name the offending
/// parameter and the expected vs actual shape; `context` names the source.
void read_parameters(BufferReader& r,
                     const std::vector<nn::Parameter*>& params,
                     const std::string& context);

}  // namespace splitmed
