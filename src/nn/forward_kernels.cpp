#include "nn/forward_kernels.hpp"

#include <algorithm>
#include <cassert>

#include "tensor/blas.hpp"
#include "tensor/vmath.hpp"

namespace geonas::nn {

namespace {

/// Batch-major x [B, T, F] to time-major rows t * B + b of x_tm, so each
/// timestep's slab is contiguous; scatter_batch_major is its inverse.
void gather_time_major(const Tensor3& x, tensor::ArenaMatrix& x_tm) {
  const std::size_t batch = x.dim0(), steps = x.dim1(), cols = x.dim2();
  for (std::size_t bi = 0; bi < batch; ++bi) {
    const double* src = x.flat().data() + bi * steps * cols;
    for (std::size_t t = 0; t < steps; ++t) {
      std::copy(src + t * cols, src + (t + 1) * cols,
                x_tm.row_span(t * batch + bi).begin());
    }
  }
}

/// rows x width block at `z` += the bias row, broadcast.
void add_bias_rows(double* z, std::size_t rows, std::size_t width,
                   const double* bias) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = z + r * width;
    for (std::size_t j = 0; j < width; ++j) row[j] += bias[j];
  }
}

}  // namespace

void scatter_batch_major(const tensor::ArenaMatrix& x_tm, Tensor3& x) {
  const std::size_t batch = x.dim0(), steps = x.dim1(), cols = x.dim2();
  for (std::size_t bi = 0; bi < batch; ++bi) {
    double* dst = x.flat().data() + bi * steps * cols;
    for (std::size_t t = 0; t < steps; ++t) {
      const auto src = x_tm.row_span(t * batch + bi);
      std::copy(src.begin(), src.end(), dst + t * cols);
    }
  }
}

void LSTMForwardScratch::bind(tensor::Arena& arena, std::size_t batch,
                              std::size_t steps, std::size_t in,
                              std::size_t units) {
  x_tm.bind(arena, batch * steps, in);
  gates.bind(arena, batch * steps, 4 * units);
  h_seq.bind(arena, (steps + 1) * batch, units);
  c_seq.bind(arena, (steps + 1) * batch, units);
}

void GRUForwardScratch::bind(tensor::Arena& arena, std::size_t batch,
                             std::size_t steps, std::size_t in,
                             std::size_t units) {
  x_tm.bind(arena, batch * steps, in);
  gates.bind(arena, batch * steps, 3 * units);
  h_seq.bind(arena, (steps + 1) * batch, units);
  rh.bind(arena, batch * steps, units);
}

void lstm_forward(const tensor::PackedPanels& wx,
                  const tensor::PackedPanels& wh, const double* bias,
                  LSTMForwardScratch& ws, const Tensor3& x, Tensor3& out) {
  const std::size_t batch = x.dim0(), steps = x.dim1(), in = x.dim2();
  const std::size_t units = wh.k();
  const std::size_t g4 = 4 * units;
  const std::size_t rows = batch * steps;
  assert(wx.k() == in && wx.n() == g4 && wh.n() == g4);
  assert(rows <= ws.gates.rows() && (steps + 1) * batch <= ws.c_seq.rows());
  assert(out.dim0() == batch && out.dim1() == steps && out.dim2() == units);

  double* h_seq = ws.h_seq.flat().data();
  double* c_seq = ws.c_seq.flat().data();
  double* gates = ws.gates.flat().data();
  std::fill(h_seq, h_seq + batch * units, 0.0);  // h_0 = 0
  std::fill(c_seq, c_seq + batch * units, 0.0);  // c_0 = 0
  gather_time_major(x, ws.x_tm);

  // Input projection for the entire sequence in one GEMM, then the bias.
  gemm_raw(Trans::kNone, rows, 1.0, ws.x_tm.flat().data(), in, wx, 0.0,
           gates, g4);
  add_bias_rows(gates, rows, g4, bias);

  for (std::size_t t = 0; t < steps; ++t) {
    // z_t += h_{t-1} Wh: one (B, units) x (units, 4*units) GEMM.
    double* z = gates + t * batch * g4;
    const double* h_prev = h_seq + t * batch * units;
    gemm_raw(Trans::kNone, batch, 1.0, h_prev, units, wh, 1.0, z, g4);
    // Fused gate nonlinearities + state update; z holds post-activation
    // gates afterwards, and h_t is scattered straight into the
    // batch-major output.
    tensor::lstm_pointwise_forward(
        batch, units, z, c_seq + t * batch * units,
        c_seq + (t + 1) * batch * units, h_seq + (t + 1) * batch * units,
        out.flat().data() + t * units, steps * units);
  }
}

void gru_forward(const tensor::PackedPanels& wx,
                 const tensor::PackedPanels& wh_zr,
                 const tensor::PackedPanels& wh_h, const double* bias,
                 GRUForwardScratch& ws, const Tensor3& x, Tensor3& out) {
  const std::size_t batch = x.dim0(), steps = x.dim1(), in = x.dim2();
  const std::size_t units = wh_h.k();
  const std::size_t g3 = 3 * units;
  const std::size_t rows = batch * steps;
  assert(wx.k() == in && wx.n() == g3 && wh_zr.n() == 2 * units &&
         wh_h.n() == units);
  assert(rows <= ws.rh.rows() && (steps + 1) * batch <= ws.h_seq.rows());
  assert(out.dim0() == batch && out.dim1() == steps && out.dim2() == units);

  double* h_seq = ws.h_seq.flat().data();
  double* gates = ws.gates.flat().data();
  std::fill(h_seq, h_seq + batch * units, 0.0);  // h_0 = 0
  gather_time_major(x, ws.x_tm);

  gemm_raw(Trans::kNone, rows, 1.0, ws.x_tm.flat().data(), in, wx, 0.0,
           gates, g3);
  add_bias_rows(gates, rows, g3, bias);

  for (std::size_t t = 0; t < steps; ++t) {
    double* a = gates + t * batch * g3;
    const double* h_prev = h_seq + t * batch * units;
    // z/r recurrent terms see the raw previous state.
    gemm_raw(Trans::kNone, batch, 1.0, h_prev, units, wh_zr, 1.0, a, g3);
    // Fused z/r sigmoids + the candidate's recurrent input r .* h_{t-1}.
    double* rh = ws.rh.flat().data() + t * batch * units;
    tensor::gru_pointwise_zr(batch, units, a, h_prev, rh);
    // Candidate recurrent term against the [h] column block of Wh.
    gemm_raw(Trans::kNone, batch, 1.0, rh, units, wh_h, 1.0, a + 2 * units,
             g3);
    // Fused candidate tanh + state blend, scattered into the output.
    tensor::gru_pointwise_out(batch, units, a, h_prev,
                              h_seq + (t + 1) * batch * units,
                              out.flat().data() + t * units, steps * units);
  }
}

void dense_forward(const tensor::PackedPanels& w, const double* bias,
                   Activation activation, const Tensor3& x, Tensor3& out,
                   std::span<double> preact) {
  // [B, T, F] is a contiguous (B*T) x F matrix: the whole layer is one
  // GEMM plus a bias broadcast.
  const std::size_t rows = x.dim0() * x.dim1();
  const std::size_t width = w.n();
  assert(w.k() == x.dim2() && out.size() == rows * width);
  gemm_raw(Trans::kNone, rows, 1.0, x.flat().data(), w.k(), w, 0.0,
           out.flat().data(), width);
  if (bias != nullptr) add_bias_rows(out.flat().data(), rows, width, bias);
  if (activation == Activation::kIdentity) return;
  if (!preact.empty()) {
    std::copy(out.flat().begin(), out.flat().end(), preact.begin());
  }
  apply_activation(activation, out.flat());
}

void add_merge_forward(std::span<const Tensor3* const> inputs, bool relu,
                       Tensor3& out, std::span<double> sum) {
  const auto first = inputs[0]->flat();
  auto of = out.flat();
  assert(first.size() == of.size());
  std::copy(first.begin(), first.end(), of.begin());
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    const auto inf = inputs[i]->flat();
    for (std::size_t k = 0; k < of.size(); ++k) of[k] += inf[k];
  }
  if (!relu) return;
  if (!sum.empty()) std::copy(of.begin(), of.end(), sum.begin());
  apply_activation(Activation::kReLU, of);
}

}  // namespace geonas::nn
