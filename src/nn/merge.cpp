#include "nn/merge.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/forward_kernels.hpp"

namespace geonas::nn {

AddMerge::AddMerge(std::size_t arity, bool relu_after)
    : arity_(arity), relu_(relu_after) {
  if (arity_ < 1) throw std::invalid_argument("AddMerge: arity must be >= 1");
}

void AddMerge::bind_workspace(tensor::Arena& arena, std::size_t batch,
                              std::size_t steps, std::size_t in_features) {
  if (relu_) sum_cache_.bind(arena, batch * steps, in_features);
  ws_batch_ = batch;
  ws_steps_ = steps;
  ws_features_ = in_features;
}

void AddMerge::forward_into(std::span<const Tensor3* const> inputs,
                            Tensor3& out, bool training) {
  if (inputs.size() != arity_ || inputs[0] == nullptr) {
    throw std::invalid_argument("AddMerge: wrong number of inputs");
  }
  const Tensor3& first = *inputs[0];
  for (const Tensor3* in : inputs.subspan(1)) {
    if (in->dim0() != first.dim0() || in->dim1() != first.dim1() ||
        in->dim2() != first.dim2()) {
      throw std::invalid_argument("AddMerge: input shape mismatch");
    }
  }
  if (first.dim0() != ws_batch_ || first.dim1() != ws_steps_ ||
      first.dim2() != ws_features_) {
    bind_workspace(self_arena(), first.dim0(), first.dim1(), first.dim2());
  }
  add_merge_forward(inputs, relu_, out,
                    training ? sum_cache_.flat() : std::span<double>{});
}

void AddMerge::backward_into(const Tensor3& grad_output,
                             std::span<Tensor3* const> input_grads) {
  if (input_grads.size() != arity_ || input_grads[0] == nullptr) {
    throw std::invalid_argument("AddMerge::backward: wrong gradient count");
  }
  // d(sum)/d(input_i) = 1 for every input: compute the (possibly ReLU-
  // masked) sum gradient into the first slot, then copy to the others.
  Tensor3& dsum = *input_grads[0];
  if (dsum.size() != grad_output.size()) {
    throw std::invalid_argument("AddMerge::backward: shape mismatch");
  }
  std::copy(grad_output.flat().begin(), grad_output.flat().end(),
            dsum.flat().begin());
  if (relu_) {
    auto df = dsum.flat();
    const auto sf = sum_cache_.flat();
    if (df.size() != sf.size()) {
      throw std::invalid_argument("AddMerge::backward: shape mismatch");
    }
    activation_grad_mul(Activation::kReLU, df, sf, sf);
  }
  for (std::size_t i = 1; i < input_grads.size(); ++i) {
    if (input_grads[i] == nullptr) {
      throw std::invalid_argument("AddMerge::backward: null gradient slot");
    }
    std::copy(dsum.flat().begin(), dsum.flat().end(),
              input_grads[i]->flat().begin());
  }
}

std::string AddMerge::name() const {
  return std::string("Add[") + std::to_string(arity_) + "]" +
         (relu_ ? "+ReLU" : "");
}

void Identity::forward_into(std::span<const Tensor3* const> inputs,
                            Tensor3& out, bool /*training*/) {
  const Tensor3& x = single_input(inputs, "Identity");
  std::copy(x.flat().begin(), x.flat().end(), out.flat().begin());
}

void Identity::backward_into(const Tensor3& grad_output,
                             std::span<Tensor3* const> input_grads) {
  if (input_grads.size() != 1 || input_grads[0] == nullptr ||
      input_grads[0]->size() != grad_output.size()) {
    throw std::invalid_argument("Identity::backward: wrong gradient count");
  }
  std::copy(grad_output.flat().begin(), grad_output.flat().end(),
            input_grads[0]->flat().begin());
}

}  // namespace geonas::nn
