// FrozenPlan: a trained GraphNetwork lowered to a forward-only
// execution plan for serving.
//
// The freeze-then-infer split (RoseNNa / CodeJeNN, PAPERS.md): a
// different container for the same math, not a second copy of it.
// GraphNetwork carries gradient matrices, backward workspaces and
// rebind machinery; a serving stream needs none of it. compile() walks
// the trained graph's topological node schedule once and emits a flat
// op list (LSTM / GRU / Dense / merge — AddMerge, with Identity and
// Dropout lowered to a one-input merge, i.e. a copy), and run() calls
// the layers' forward kernels (nn/forward_kernels.hpp): the functions
// LSTM/GRU/Dense/AddMerge::forward_into call themselves. A FrozenPlan's
// output is therefore BITWISE identical to GraphNetwork::forward for
// the same weights by construction (tests/serve_plan_test.cpp pins it
// at kernel_threads 1/2/8 and across batch sizes).
//
// Memory model: one tensor::Arena per plan. The recurrent ops' forward
// scratch is carved once at construction for the plan's capacity
// (max_batch x steps) and runs at any batch b <= max_batch reuse it —
// run() performs zero heap allocation (lint rule hot-path-alloc covers
// this file). Only forward scratch exists: the backward scratch a
// training layer binds (dz/dh/dc/dx for LSTM, da/dh/drh/dx for GRU,
// activation caches for Dense) is never carved, so a plan's working set
// is roughly half a bound training graph's.
//
// Weights are copied out of the source network once and shared
// read-only (shared_ptr) across stream clones: clone_stream() gives a
// serving stream its own scratch and activation buffers — forwards
// mutate them, so streams must not share them — at the cost of only the
// arena, not another weight copy. compile() also packs every weight
// GEMM operand into tensor::PackedPanels exactly once at freeze time;
// run() hands the kernels only the packed panels (plus the raw bias
// rows, which feed broadcasts, not GEMMs), and the pack pool is shared
// across clones like the weights.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "nn/forward_kernels.hpp"
#include "nn/graph.hpp"
#include "tensor/arena.hpp"
#include "tensor/matrix.hpp"
#include "tensor/prepack.hpp"

namespace geonas::serve {

class FrozenPlan {
 public:
  /// Lowers `net` into a plan able to serve batches of up to `max_batch`
  /// windows of `steps` timesteps. `net` is read (structure + weights)
  /// and not retained; it is non-const only because Layer::parameters()
  /// is non-const. Throws on an unsupported layer type or zero sizes.
  static FrozenPlan compile(nn::GraphNetwork& net, std::size_t steps,
                            std::size_t max_batch);

  FrozenPlan(FrozenPlan&&) = default;
  FrozenPlan& operator=(FrozenPlan&&) = default;
  FrozenPlan(const FrozenPlan&) = delete;
  FrozenPlan& operator=(const FrozenPlan&) = delete;

  /// A new plan for another serving stream: shares this plan's weights,
  /// owns fresh workspaces/activations.
  [[nodiscard]] FrozenPlan clone_stream() const;

  /// Runs the plan on [b, steps, input_features] with b in
  /// [1, max_batch]; returns the output node's activation buffer
  /// ([b, steps, output_features]), valid until the next run on this
  /// plan. Zero heap allocation; per-example rows of the result are
  /// bitwise independent of b (GEMM rows and the pointwise kernels are
  /// row-local), which is what makes micro-batch coalescing transparent.
  const Tensor3& run(const Tensor3& input);

  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }
  [[nodiscard]] std::size_t input_features() const noexcept {
    return in_features_;
  }
  [[nodiscard]] std::size_t output_features() const noexcept {
    return out_features_;
  }
  [[nodiscard]] std::size_t op_count() const noexcept { return ops_.size(); }
  /// Bytes of forward scratch carved from the plan's arena.
  [[nodiscard]] std::size_t workspace_bytes() const noexcept {
    return arena_->bytes_in_use();
  }
  /// One line per op (debugging / CLI banner).
  [[nodiscard]] std::string describe() const;

 private:
  /// Identity and Dropout lower to a one-input kMerge without ReLU.
  enum class OpKind { kLSTM, kGRU, kDense, kMerge };
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// One lowered node. Slots index the shared weight and pack pools; the
  /// forward scratch is carved from the owning plan's arena at capacity
  /// (max_batch) and used at the runtime batch inside run().
  struct Op {
    OpKind kind = OpKind::kMerge;
    std::string name;                     // source layer's name()
    std::size_t node = 0;                 // output buffer id
    std::vector<std::size_t> inputs;      // source node ids (0 = external)
    std::vector<const Tensor3*> in_ptrs;  // run()'s views of `inputs`
    // Widths pinned by LSTM/GRU/Dense (0 for merges, whose widths come
    // from the feature-width fixpoint).
    std::size_t in_features = 0;
    std::size_t out_features = 0;
    nn::Activation activation = nn::Activation::kIdentity;  // Dense
    bool relu = false;                                      // merge
    std::size_t bias = kNoSlot;  // weight-pool slot of the bias row
    // Pack-pool slots in kernel argument order: {wx, wh} for LSTM,
    // {wx, wh[:,0:2u), wh[:,2u:3u)} for GRU, {w} for Dense.
    std::array<std::size_t, 3> packs{};
    nn::LSTMForwardScratch lstm;
    nn::GRUForwardScratch gru;
  };

  FrozenPlan() = default;

  /// Carves every op's forward scratch from a fresh arena and sizes the
  /// activation buffers at capacity (cold path: construction/clone).
  void bind_workspaces();

  std::shared_ptr<const std::deque<Matrix>> weights_;
  // Panels packed once at compile() from the frozen weight pool; the
  // pool above is immutable afterwards, so the packs can never go stale.
  std::shared_ptr<const std::vector<tensor::PackedPanels>> packs_;
  std::vector<Op> ops_;
  std::vector<std::size_t> node_features_;  // indexed by node id
  std::vector<Tensor3> activations_;        // indexed by node id; 0 unused
  std::unique_ptr<tensor::Arena> arena_;
  std::size_t output_node_ = 0;
  std::size_t steps_ = 0;
  std::size_t max_batch_ = 0;
  std::size_t in_features_ = 0;
  std::size_t out_features_ = 0;
};

}  // namespace geonas::serve
