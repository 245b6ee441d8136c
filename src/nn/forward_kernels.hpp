// Forward kernels: the one implementation of each layer's forward math.
//
// LSTM/GRU/Dense/AddMerge::forward_into and serve::FrozenPlan::run both
// call these functions, so a frozen plan is bitwise identical to
// GraphNetwork::forward by construction.
//
// Each kernel takes const prepacked weight panels (already ensure()d by
// the caller), a raw bias row and, for the recurrent cells, a
// caller-owned forward scratch carved for a capacity (batch, steps).
// The runtime batch is x.dim0(), at most the scratch's bound batch;
// `out` is pre-shaped to [batch, steps, output width]. The recurrent
// scratch is time-major (row t * batch + b) at the runtime batch, and
// the kernels zero the initial-state rows [0, batch) on every call, so
// a run never depends on the bind-time fill or on an earlier run at
// another batch size. No kernel allocates.
#pragma once

#include <cstddef>
#include <span>

#include "nn/activations.hpp"
#include "tensor/arena.hpp"
#include "tensor/matrix.hpp"
#include "tensor/prepack.hpp"

namespace geonas::nn {

/// LSTM forward scratch; after a forward it holds exactly what BPTT
/// reads (post-activation gates and the h/c state sequences).
struct LSTMForwardScratch {
  tensor::ArenaMatrix x_tm;   // [T*B, in] time-major input copy
  tensor::ArenaMatrix gates;  // [T*B, 4*units] gate blocks [i | f | g | o]
  tensor::ArenaMatrix h_seq;  // [(T+1)*B, units]
  tensor::ArenaMatrix c_seq;  // [(T+1)*B, units]

  void bind(tensor::Arena& arena, std::size_t batch, std::size_t steps,
            std::size_t in, std::size_t units);
};

/// GRU forward scratch (gate blocks [z | r | hh]).
struct GRUForwardScratch {
  tensor::ArenaMatrix x_tm;   // [T*B, in]
  tensor::ArenaMatrix gates;  // [T*B, 3*units]
  tensor::ArenaMatrix h_seq;  // [(T+1)*B, units]
  tensor::ArenaMatrix rh;     // [T*B, units] r_t .* h_{t-1}

  void bind(tensor::Arena& arena, std::size_t batch, std::size_t steps,
            std::size_t in, std::size_t units);
};

/// Time-major rows t * B + b of x_tm back to batch-major x [B, T, F]
/// (B, T, F from x): the inverse of the kernels' input gather, which
/// the backward passes use for their dX.
void scatter_batch_major(const tensor::ArenaMatrix& x_tm, Tensor3& x);

/// x [B, T, in] -> out [B, T, units]. wx packs Wx [in, 4*units], wh
/// packs Wh [units, 4*units]; bias holds 4*units values.
void lstm_forward(const tensor::PackedPanels& wx,
                  const tensor::PackedPanels& wh, const double* bias,
                  LSTMForwardScratch& ws, const Tensor3& x, Tensor3& out);

/// x [B, T, in] -> out [B, T, units]. wh_zr packs the [z | r] column
/// block of Wh, wh_h its candidate block; bias holds 3*units values.
void gru_forward(const tensor::PackedPanels& wx,
                 const tensor::PackedPanels& wh_zr,
                 const tensor::PackedPanels& wh_h, const double* bias,
                 GRUForwardScratch& ws, const Tensor3& x, Tensor3& out);

/// Time-distributed act(x W + b); a null bias skips the broadcast. A
/// non-empty `preact` receives the pre-activation values when the
/// activation is not the identity (the training cache).
void dense_forward(const tensor::PackedPanels& w, const double* bias,
                   Activation activation, const Tensor3& x, Tensor3& out,
                   std::span<double> preact = {});

/// Sum of same-shaped inputs, then ReLU when `relu` (one input without
/// ReLU is a copy). A non-empty `sum` receives the pre-ReLU sum when
/// `relu` is set (the backward mask).
void add_merge_forward(std::span<const Tensor3* const> inputs, bool relu,
                       Tensor3& out, std::span<double> sum = {});

}  // namespace geonas::nn
