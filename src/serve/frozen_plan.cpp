#include "serve/frozen_plan.hpp"

#include <deque>
#include <sstream>
#include <stdexcept>

#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "nn/merge.hpp"

namespace geonas::serve {

namespace {

constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);

}  // namespace

// All of compile() is cold: it runs once per model load, never per
// request, so its allocations carry hot-path-alloc suppressions.
FrozenPlan FrozenPlan::compile(nn::GraphNetwork& net, std::size_t steps,
                               std::size_t max_batch) {
  if (steps == 0 || max_batch == 0) {
    throw std::invalid_argument("FrozenPlan: steps and max_batch must be > 0");
  }
  if (net.node_count() < 2 || net.output_id() == 0) {
    throw std::invalid_argument("FrozenPlan: network has no computational "
                                "nodes");
  }
  FrozenPlan plan;
  plan.steps_ = steps;
  plan.max_batch_ = max_batch;
  plan.output_node_ = net.output_id();

  // Pools shared read-only by every stream clone. A deque never moves
  // its elements, so each weight can be packed as soon as it is copied.
  auto weights = std::make_shared<std::deque<Matrix>>();
  auto packs = std::make_shared<std::vector<tensor::PackedPanels>>();
  const std::size_t n = net.node_count();

  for (std::size_t i = 1; i < n; ++i) {
    nn::Layer* layer = net.node_layer(i);
    Op op;
    op.name = layer->name();
    op.node = i;
    op.inputs = net.node_inputs(i);
    op.in_ptrs.resize(op.inputs.size());  // geonas-lint: allow(hot-path-alloc) cold path: plan compile time
    // One copy per parameter matrix, from weight-pool slot w on.
    const std::size_t w = weights->size();
    for (Matrix* p : layer->parameters()) {
      weights->push_back(*p);  // geonas-lint: allow(hot-path-alloc) cold path: plan compile time
    }
    // Packs kernel argument `arg` from columns [col0, col0 + ncols) of
    // weight slot `slot`: once, at freeze time, never stale afterwards.
    const auto pack = [&](std::size_t arg, std::size_t slot, std::size_t col0,
                          std::size_t ncols) {
      op.packs[arg] = packs->size();
      packs->emplace_back();  // geonas-lint: allow(hot-path-alloc) cold path: plan compile time
      packs->back().ensure_block((*weights)[slot], Trans::kNone, col0, ncols);
    };
    if (auto* lstm = dynamic_cast<nn::LSTM*>(layer)) {  // {wx, wh, b}
      const std::size_t u = lstm->units();
      op.kind = OpKind::kLSTM;
      op.in_features = lstm->in_features();
      op.out_features = u;
      pack(0, w, 0, 4 * u);
      pack(1, w + 1, 0, 4 * u);
      op.bias = w + 2;
    } else if (auto* gru = dynamic_cast<nn::GRU*>(layer)) {  // {wx, wh, b}
      const std::size_t u = gru->units();
      op.kind = OpKind::kGRU;
      op.in_features = gru->in_features();
      op.out_features = u;
      pack(0, w, 0, 3 * u);
      pack(1, w + 1, 0, 2 * u);  // wh z/r block
      pack(2, w + 1, 2 * u, u);  // wh candidate block
      op.bias = w + 2;
    } else if (auto* dense = dynamic_cast<nn::Dense*>(layer)) {  // {w, b?}
      op.kind = OpKind::kDense;
      op.in_features = dense->in_features();
      op.out_features = dense->out_features();
      op.activation = dense->activation();
      pack(0, w, 0, op.out_features);
      if (dense->use_bias()) op.bias = w + 1;
    } else if (auto* merge = dynamic_cast<nn::AddMerge*>(layer)) {
      op.relu = merge->relu_after();
    } else if (dynamic_cast<nn::Identity*>(layer) == nullptr &&
               dynamic_cast<nn::Dropout*>(layer) == nullptr) {
      // (Dropout is a plain copy at inference regardless of rate.)
      throw std::invalid_argument("FrozenPlan: unsupported layer '" +
                                  layer->name() + "' at node " +
                                  std::to_string(i));
    }
    plan.ops_.push_back(std::move(op));  // geonas-lint: allow(hot-path-alloc) cold path: plan compile time
  }

  // Feature-width fixpoint. LSTM/GRU/Dense pin their input and output
  // widths; merges equate theirs with their inputs'. The loop
  // propagates until stable so identity chains hanging off the graph
  // input still resolve node 0's width.
  std::vector<std::size_t> feat(n, kUnknown);
  auto unify = [&feat](std::size_t id, std::size_t width, bool& changed) {
    if (feat[id] == kUnknown) {
      feat[id] = width;
      changed = true;
    } else if (feat[id] != width) {
      throw std::invalid_argument(
          "FrozenPlan: inconsistent feature width at node " +
          std::to_string(id) + " (" + std::to_string(feat[id]) + " vs " +
          std::to_string(width) + ")");
    }
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Op& op : plan.ops_) {
      if (op.kind != OpKind::kMerge) {
        unify(op.inputs[0], op.in_features, changed);
        unify(op.node, op.out_features, changed);
      } else {
        std::size_t known = feat[op.node];
        for (std::size_t id : op.inputs) {
          if (feat[id] != kUnknown) known = feat[id];
        }
        if (known == kUnknown) continue;
        unify(op.node, known, changed);
        for (std::size_t id : op.inputs) unify(id, known, changed);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (feat[i] == kUnknown) {
      throw std::invalid_argument(
          "FrozenPlan: cannot infer the feature width of node " +
          std::to_string(i) +
          " (no LSTM/GRU/Dense constrains it, directly or transitively)");
    }
  }

  plan.node_features_ = std::move(feat);
  plan.in_features_ = plan.node_features_[0];
  plan.out_features_ = plan.node_features_[plan.output_node_];
  plan.weights_ = std::move(weights);
  plan.packs_ = std::move(packs);
  plan.bind_workspaces();
  return plan;
}

FrozenPlan FrozenPlan::clone_stream() const {
  FrozenPlan copy;
  copy.weights_ = weights_;  // shared, read-only at inference
  copy.packs_ = packs_;      // packed once at compile, shared likewise
  copy.ops_ = ops_;  // geonas-lint: allow(hot-path-alloc) cold path: stream clone (scratch views rebound below)
  copy.node_features_ = node_features_;
  copy.output_node_ = output_node_;
  copy.steps_ = steps_;
  copy.max_batch_ = max_batch_;
  copy.in_features_ = in_features_;
  copy.out_features_ = out_features_;
  copy.bind_workspaces();
  return copy;
}

void FrozenPlan::bind_workspaces() {
  arena_ = std::make_unique<tensor::Arena>();
  for (Op& op : ops_) {
    if (op.kind == OpKind::kLSTM) {
      op.lstm.bind(*arena_, max_batch_, steps_, op.in_features,
                   op.out_features);
    } else if (op.kind == OpKind::kGRU) {
      op.gru.bind(*arena_, max_batch_, steps_, op.in_features,
                  op.out_features);
    }
  }
  // Activation buffers sized at capacity once; ensure_shape in run()
  // then never allocates for b <= max_batch.
  activations_.assign(node_features_.size(), Tensor3());  // geonas-lint: allow(hot-path-alloc) cold path: construction/clone
  for (const Op& op : ops_) {
    activations_[op.node].resize(max_batch_, steps_, node_features_[op.node]);  // geonas-lint: allow(hot-path-alloc) cold path: construction/clone
  }
}

const Tensor3& FrozenPlan::run(const Tensor3& input) {
  const std::size_t batch = input.dim0();
  if (batch == 0 || batch > max_batch_ || input.dim1() != steps_ ||
      input.dim2() != in_features_) {
    throw std::invalid_argument(
        "FrozenPlan::run: input [" + std::to_string(batch) + ", " +
        std::to_string(input.dim1()) + ", " + std::to_string(input.dim2()) +
        "] does not fit plan capacity [1.." + std::to_string(max_batch_) +
        ", " + std::to_string(steps_) + ", " + std::to_string(in_features_) +
        "]");
  }
  const std::vector<tensor::PackedPanels>& packs = *packs_;
  for (Op& op : ops_) {
    for (std::size_t k = 0; k < op.inputs.size(); ++k) {
      op.in_ptrs[k] =
          op.inputs[k] == 0 ? &input : &activations_[op.inputs[k]];
    }
    const Tensor3& x = *op.in_ptrs[0];
    Tensor3& out = activations_[op.node];
    out.ensure_shape(batch, steps_, node_features_[op.node]);
    const double* bias =
        op.bias == kNoSlot ? nullptr : (*weights_)[op.bias].flat().data();
    switch (op.kind) {
      case OpKind::kLSTM:
        nn::lstm_forward(packs[op.packs[0]], packs[op.packs[1]], bias,
                         op.lstm, x, out);
        break;
      case OpKind::kGRU:
        nn::gru_forward(packs[op.packs[0]], packs[op.packs[1]],
                        packs[op.packs[2]], bias, op.gru, x, out);
        break;
      case OpKind::kDense:
        nn::dense_forward(packs[op.packs[0]], bias, op.activation, x, out);
        break;
      case OpKind::kMerge:
        nn::add_merge_forward(op.in_ptrs, op.relu, out);
        break;
    }
  }
  return activations_[output_node_];
}

std::string FrozenPlan::describe() const {
  std::ostringstream os;
  os << "FrozenPlan: steps=" << steps_ << " max_batch=" << max_batch_
     << " in=" << in_features_ << " out=" << out_features_ << "\n";
  for (const Op& op : ops_) {
    os << "  node " << op.node << ": " << op.name << " <- (";
    for (std::size_t k = 0; k < op.inputs.size(); ++k) {
      os << op.inputs[k] << (k + 1 < op.inputs.size() ? ", " : "");
    }
    os << ")" << (op.node == output_node_ ? "  [output]" : "") << "\n";
  }
  return os.str();
}

}  // namespace geonas::serve
