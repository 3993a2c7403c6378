#include "src/privacy/reconstruction.hpp"

#include "src/common/error.hpp"
#include "src/nn/parameter.hpp"
#include "src/optim/adam.hpp"
#include "src/tensor/ops.hpp"

namespace splitmed::privacy {

ReconstructionResult reconstruct_from_observation(
    nn::Layer& l1, const Tensor& observed_activation, const Tensor& true_x,
    const ReconstructionOptions& options) {
  SPLITMED_CHECK(options.iterations > 0 && options.learning_rate > 0.0F,
                 "bad reconstruction options");
  Rng rng(options.seed);
  // The attacker's Adam runs on the input pixels, not on L1's parameters.
  nn::Parameter pixels("reconstruction.x",
                       Tensor::normal(true_x.shape(), rng, 0.5F, 0.25F));
  optim::AdamOptions adam_options;
  adam_options.learning_rate = options.learning_rate;
  optim::Adam adam({&pixels}, adam_options);

  float last_loss = 0.0F;
  for (std::int64_t it = 0; it < options.iterations; ++it) {
    const Tensor a = l1.forward(pixels.value, /*training=*/false);
    check_same_shape(a.shape(), observed_activation.shape(),
                     "reconstruct_from_observation");
    const Tensor diff = ops::sub(a, observed_activation);
    last_loss = ops::mse(a, observed_activation);
    // d/da of mean squared error.
    const Tensor grad_a =
        ops::scale(diff, 2.0F / static_cast<float>(a.numel()));
    pixels.grad = l1.backward(grad_a);
    adam.step();
  }
  // The attack must not corrupt L1's training state.
  l1.zero_grad();

  ReconstructionResult result;
  result.activation_mse = last_loss;
  result.input_mse = ops::mse(pixels.value, true_x);
  result.reconstruction = std::move(pixels.value);
  return result;
}

ReconstructionResult reconstruct_inputs(nn::Layer& l1, const Tensor& target_x,
                                        const ReconstructionOptions& options) {
  SPLITMED_CHECK(options.iterations > 0 && options.learning_rate > 0.0F,
                 "bad reconstruction options");
  // The attacker's observation (eval mode: deterministic L1).
  const Tensor target_a = l1.forward(target_x, /*training=*/false);
  return reconstruct_from_observation(l1, target_a, target_x, options);
}

}  // namespace splitmed::privacy
