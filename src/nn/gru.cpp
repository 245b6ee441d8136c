#include "nn/gru.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/blas.hpp"
#include "tensor/vmath.hpp"

namespace geonas::nn {

GRU::GRU(std::size_t in_features, std::size_t units)
    : in_(in_features),
      units_(units),
      wx_(in_features, 3 * units),
      wh_(units, 3 * units),
      b_(1, 3 * units),
      wx_grad_(in_features, 3 * units),
      wh_grad_(units, 3 * units),
      b_grad_(1, 3 * units) {
  if (in_ == 0 || units_ == 0) {
    throw std::invalid_argument("GRU: zero-sized dimension");
  }
}

void GRU::init_params(Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(in_ + 3 * units_));
  for (double& v : wx_.flat()) v = rng.uniform(-limit, limit);
  const double rscale = 1.0 / std::sqrt(static_cast<double>(units_));
  for (double& v : wh_.flat()) v = rng.normal(0.0, rscale);
  b_.fill(0.0);
}

void GRU::bind_workspace(tensor::Arena& arena, std::size_t batch,
                         std::size_t steps, std::size_t in_features) {
  if (in_features != in_) {
    throw std::invalid_argument("GRU: input feature dim " +
                                std::to_string(in_features) + " != " +
                                std::to_string(in_));
  }
  fwd_.bind(arena, batch, steps, in_, units_);
  da_.bind(arena, batch * steps, 3 * units_);
  dh_.bind(arena, batch, units_);
  drh_.bind(arena, batch, units_);
  dx_tm_.bind(arena, batch * steps, in_);
  ws_batch_ = batch;
  ws_steps_ = steps;
}

void GRU::forward_into(std::span<const Tensor3* const> inputs, Tensor3& out,
                       bool training) {
  const Tensor3& x = single_input(inputs, "GRU");
  if (x.dim0() != ws_batch_ || x.dim1() != ws_steps_ || x.dim2() != in_) {
    bind_workspace(self_arena(), x.dim0(), x.dim1(), x.dim2());
  }
  // Weight panels: packed once, re-validated per pass (a version-counter
  // compare unless the optimizer touched the weights since last pack).
  wx_pack_.ensure(wx_, Trans::kNone);
  wh_zr_pack_.ensure_block(wh_, Trans::kNone, 0, 2 * units_);
  wh_h_pack_.ensure_block(wh_, Trans::kNone, 2 * units_, units_);
  gru_forward(wx_pack_, wh_zr_pack_, wh_h_pack_, b_.flat().data(), fwd_, x,
              out);
  (void)training;  // the forward scratch doubles as the BPTT cache
}

void GRU::backward_into(const Tensor3& grad_output,
                        std::span<Tensor3* const> input_grads) {
  const std::size_t batch = ws_batch_, steps = ws_steps_;
  if (grad_output.dim0() != batch || grad_output.dim1() != steps ||
      grad_output.dim2() != units_ || input_grads.size() != 1 ||
      input_grads[0] == nullptr) {
    throw std::invalid_argument("GRU::backward: gradient shape mismatch");
  }
  const std::size_t g3 = 3 * units_;
  const std::size_t rows = batch * steps;

  // dh_ carries state across timesteps and must start the recursion at
  // zero; every other workspace is fully overwritten below.
  dh_.fill(0.0);

  // Transposed weight panels for the input-gradient GEMMs (packed once;
  // transposition happened at pack time, so BPTT reads them forward).
  wh_h_t_pack_.ensure_block(wh_, Trans::kTranspose, 2 * units_, units_);
  wh_zr_t_pack_.ensure_block(wh_, Trans::kTranspose, 0, 2 * units_);
  wx_t_pack_.ensure(wx_, Trans::kTranspose);

  double* whg = wh_grad_.flat().data();
  double* bg = b_grad_.flat().data();

  for (std::size_t t = steps; t-- > 0;) {
    const double* gates = fwd_.gates.flat().data() + t * batch * g3;
    const double* h_prev = fwd_.h_seq.flat().data() + t * batch * units_;
    const double* rh = fwd_.rh.flat().data() + t * batch * units_;
    double* da = da_.flat().data() + t * batch * g3;

    // Through h_new = (1 - z) h_prev + z hh (tensor::vmath): fill the z
    // and candidate pre-activation gradients; dh_ is rewritten with the
    // direct (1 - z) path and the remaining contributions accumulate
    // below.
    tensor::gru_pointwise_backward_zh(batch, units_, gates, h_prev,
                                      grad_output.flat().data() + t * units_,
                                      steps * units_, dh_.flat().data(), da);

    // d(r .* h_prev) = da_h Uh^T over the candidate column block.
    gemm_raw(Trans::kNone, batch, 1.0, da + 2 * units_, g3, wh_h_t_pack_, 0.0,
             drh_.flat().data(), units_);
    // Through rh = r .* h_prev, plus the deterministic row-order bias
    // accumulation over all three gate blocks (tensor::vmath).
    tensor::gru_pointwise_backward_r(batch, units_, gates, h_prev,
                                     drh_.flat().data(), dh_.flat().data(),
                                     da, bg);

    // Remaining recurrent paths, one GEMM each: dh_{t-1} += da_zr W_zr^T,
    // Wh_grad[:, z|r] += h_{t-1}^T da_zr, Wh_grad[:, h] += rh^T da_h.
    gemm_raw(Trans::kNone, batch, 1.0, da, g3, wh_zr_t_pack_, 1.0,
             dh_.flat().data(), units_);
    gemm_raw(Trans::kTranspose, Trans::kNone, units_, 2 * units_, batch, 1.0,
             h_prev, units_, da, g3, 1.0, whg, g3);
    gemm_raw(Trans::kTranspose, Trans::kNone, units_, units_, batch, 1.0, rh,
             units_, da + 2 * units_, g3, 1.0, whg + 2 * units_, g3);
  }

  // Whole-sequence slab GEMMs: Wx_grad += X^T dA and dX = dA Wx^T.
  gemm_raw(Trans::kTranspose, Trans::kNone, in_, g3, rows, 1.0,
           fwd_.x_tm.flat().data(), in_, da_.flat().data(), g3, 1.0,
           wx_grad_.flat().data(), g3);
  gemm_raw(Trans::kNone, rows, 1.0, da_.flat().data(), g3, wx_t_pack_, 0.0,
           dx_tm_.flat().data(), in_);

  // Scatter time-major dX back to batch-major [B, T, in].
  scatter_batch_major(dx_tm_, *input_grads[0]);
}

void GRU::repack_weights() {
  wx_pack_.ensure(wx_, Trans::kNone);
  wh_zr_pack_.ensure_block(wh_, Trans::kNone, 0, 2 * units_);
  wh_h_pack_.ensure_block(wh_, Trans::kNone, 2 * units_, units_);
  wh_zr_t_pack_.ensure_block(wh_, Trans::kTranspose, 0, 2 * units_);
  wh_h_t_pack_.ensure_block(wh_, Trans::kTranspose, 2 * units_, units_);
  wx_t_pack_.ensure(wx_, Trans::kTranspose);
}

std::vector<Matrix*> GRU::parameters() { return {&wx_, &wh_, &b_}; }
std::vector<Matrix*> GRU::gradients() {
  return {&wx_grad_, &wh_grad_, &b_grad_};
}

std::string GRU::name() const { return "GRU(" + std::to_string(units_) + ")"; }

}  // namespace geonas::nn
