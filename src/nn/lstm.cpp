#include "nn/lstm.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/forward_kernels.hpp"
#include "tensor/blas.hpp"
#include "tensor/vmath.hpp"

namespace geonas::nn {

LSTM::LSTM(std::size_t in_features, std::size_t units)
    : in_(in_features),
      units_(units),
      wx_(in_features, 4 * units),
      wh_(units, 4 * units),
      b_(1, 4 * units),
      wx_grad_(in_features, 4 * units),
      wh_grad_(units, 4 * units),
      b_grad_(1, 4 * units) {
  if (in_ == 0 || units_ == 0) {
    throw std::invalid_argument("LSTM: zero-sized dimension");
  }
}

void LSTM::init_params(Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(in_ + 4 * units_));
  for (double& v : wx_.flat()) v = rng.uniform(-limit, limit);
  // Scaled-normal recurrent init (a cheap stand-in for orthogonal init that
  // keeps recurrent spectra near unit scale for the small units used here).
  const double rscale = 1.0 / std::sqrt(static_cast<double>(units_));
  for (double& v : wh_.flat()) v = rng.normal(0.0, rscale);
  b_.fill(0.0);
  // Unit forget-gate bias: the standard trick (and Keras default) that lets
  // gradients flow through time early in training.
  for (std::size_t j = units_; j < 2 * units_; ++j) b_(0, j) = 1.0;
}

void LSTM::bind_workspace(tensor::Arena& arena, std::size_t batch,
                          std::size_t steps, std::size_t in_features) {
  if (in_features != in_) {
    throw std::invalid_argument("LSTM: input feature dim " +
                                std::to_string(in_features) + " != " +
                                std::to_string(in_));
  }
  fwd_.bind(arena, batch, steps, in_, units_);
  dz_.bind(arena, batch * steps, 4 * units_);
  dh_.bind(arena, batch, units_);
  dc_.bind(arena, batch, units_);
  dx_tm_.bind(arena, batch * steps, in_);
  ws_batch_ = batch;
  ws_steps_ = steps;
}

void LSTM::forward_into(std::span<const Tensor3* const> inputs, Tensor3& out,
                        bool training) {
  const Tensor3& x = single_input(inputs, "LSTM");
  if (x.dim0() != ws_batch_ || x.dim1() != ws_steps_ || x.dim2() != in_) {
    bind_workspace(self_arena(), x.dim0(), x.dim1(), x.dim2());
  }
  // Weight panels: packed once, re-validated per pass (a version-counter
  // compare unless the optimizer touched the weights since last pack).
  wx_pack_.ensure(wx_, Trans::kNone);
  wh_pack_.ensure(wh_, Trans::kNone);
  lstm_forward(wx_pack_, wh_pack_, b_.flat().data(), fwd_, x, out);
  (void)training;  // the forward scratch doubles as the BPTT cache
}

void LSTM::backward_into(const Tensor3& grad_output,
                         std::span<Tensor3* const> input_grads) {
  const std::size_t batch = ws_batch_, steps = ws_steps_;
  if (grad_output.dim0() != batch || grad_output.dim1() != steps ||
      grad_output.dim2() != units_ || input_grads.size() != 1 ||
      input_grads[0] == nullptr) {
    throw std::invalid_argument("LSTM::backward: gradient shape mismatch");
  }
  const std::size_t g4 = 4 * units_;
  const std::size_t rows = batch * steps;

  // dh_/dc_ carry state across timesteps and must start the recursion at
  // zero; every other workspace is fully overwritten below.
  dh_.fill(0.0);
  dc_.fill(0.0);

  // Transposed weight panels for the input-gradient GEMMs (packed once;
  // transposition happened at pack time, so BPTT reads them forward).
  wh_t_pack_.ensure(wh_, Trans::kTranspose);
  wx_t_pack_.ensure(wx_, Trans::kTranspose);

  double* bg = b_grad_.flat().data();

  for (std::size_t t = steps; t-- > 0;) {
    const double* gates = fwd_.gates.flat().data() + t * batch * g4;
    const double* c_new = fwd_.c_seq.flat().data() + (t + 1) * batch * units_;
    const double* c_prev = fwd_.c_seq.flat().data() + t * batch * units_;
    const double* h_prev = fwd_.h_seq.flat().data() + t * batch * units_;
    double* dz = dz_.flat().data() + t * batch * g4;

    // Fused elementwise gate backward for the whole timestep slab
    // (tensor::vmath); dh_/dc_ carry dL/dh_t, dL/dc_t in and leave
    // dL/dc_{t-1} behind (dh_{t-1} is produced by the GEMM below), and
    // the bias gradient accumulates in deterministic row order.
    tensor::lstm_pointwise_backward(batch, units_, gates, c_prev, c_new,
                                    grad_output.flat().data() + t * units_,
                                    steps * units_, dh_.flat().data(),
                                    dc_.flat().data(), dz, bg);

    // Wh_grad += H_{t-1}^T dZ_t and dH_{t-1} = dZ_t Wh^T: one GEMM each.
    gemm_raw(Trans::kTranspose, Trans::kNone, units_, g4, batch, 1.0, h_prev,
             units_, dz, g4, 1.0, wh_grad_.flat().data(), g4);
    gemm_raw(Trans::kNone, batch, 1.0, dz, g4, wh_t_pack_, 0.0,
             dh_.flat().data(), units_);
  }

  // Whole-sequence slab GEMMs: Wx_grad += X^T dZ and dX = dZ Wx^T.
  gemm_raw(Trans::kTranspose, Trans::kNone, in_, g4, rows, 1.0,
           fwd_.x_tm.flat().data(), in_, dz_.flat().data(), g4, 1.0,
           wx_grad_.flat().data(), g4);
  gemm_raw(Trans::kNone, rows, 1.0, dz_.flat().data(), g4, wx_t_pack_, 0.0,
           dx_tm_.flat().data(), in_);

  // Scatter time-major dX back to batch-major [B, T, in].
  scatter_batch_major(dx_tm_, *input_grads[0]);
}

void LSTM::repack_weights() {
  wx_pack_.ensure(wx_, Trans::kNone);
  wh_pack_.ensure(wh_, Trans::kNone);
  wh_t_pack_.ensure(wh_, Trans::kTranspose);
  wx_t_pack_.ensure(wx_, Trans::kTranspose);
}

std::vector<Matrix*> LSTM::parameters() { return {&wx_, &wh_, &b_}; }
std::vector<Matrix*> LSTM::gradients() {
  return {&wx_grad_, &wh_grad_, &b_grad_};
}

std::string LSTM::name() const {
  return "LSTM(" + std::to_string(units_) + ")";
}

}  // namespace geonas::nn
