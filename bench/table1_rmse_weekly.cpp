// Table I: weekly RMSE breakdown (deg C) in the Eastern Pacific,
// Apr 5 2015 - Jun 24 2018.
//
// Paper result (per forecast week 1..8):
//   POD-LSTM ("Predicted"): 0.62-0.69 C, flat in lead time
//   CESM:                   1.83-1.88 C
//   HYCOM:                  0.99-1.05 C
// Reproduction: stride-1 windows over the same date range; for each lead
// l the predicted coefficients are reconstructed to full fields and the
// RMSE is computed over Eastern-Pacific ocean cells, then averaged over
// windows. The comparators are evaluated on the same weeks.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "data/calendar.hpp"
#include "data/comparators.hpp"
#include "tensor/stats.hpp"

int main() {
  using namespace geonas;
  const auto setup = core::ExperimentSetup::from_env();
  bench::print_banner("Table I",
                      "Weekly RMSE (C), Eastern Pacific, 2015-04-05..2018-06-24",
                      setup);

  core::PODLSTMPipeline pipeline({.setup = setup});
  pipeline.prepare();
  const searchspace::StackedLSTMSpace space;
  const searchspace::Architecture best =
      bench::find_best_ae_architecture(space);
  bench::Posttrained post =
      bench::posttrain(pipeline, space, best, setup.posttrain_epochs);

  const std::size_t k = setup.window;
  const std::size_t w0 = data::HYCOMSurrogate::first_available_week();
  const std::size_t w1 = data::HYCOMSurrogate::last_available_week();

  // Windows whose full output range lies inside [w0, w1].
  const std::size_t range0 = w0 - k;
  const Tensor3 preds = pipeline.lead_predictions(post.net, range0, w1 + 1);
  const std::size_t n_windows = preds.dim0();

  const auto ep = pipeline.mask().ocean_positions_in_region(
      data::Region::eastern_pacific());
  const data::HYCOMSurrogate hycom(pipeline.sst());
  const data::CESMSurrogate cesm(pipeline.sst());

  // Cache the truth/comparator regional fields per week, each generated
  // as one batch over the whole range.
  const std::size_t weeks = w1 + 1 - w0;
  const Matrix truth = pipeline.sst().snapshots(pipeline.mask(), w0, weeks);
  const Matrix hy = hycom.snapshots(pipeline.mask(), w0, weeks);
  const Matrix ce = cesm.snapshots(pipeline.mask(), w0, weeks);
  std::vector<std::vector<double>> truth_ep(weeks), hycom_ep(weeks),
      cesm_ep(weeks);
  for (std::size_t i = 0; i < weeks; ++i) {
    for (std::size_t pos : ep) {
      truth_ep[i].push_back(truth(pos, i));
      hycom_ep[i].push_back(hy(pos, i));
      cesm_ep[i].push_back(ce(pos, i));
    }
  }

  // Per-lead accumulation of squared errors over every window.
  std::vector<double> pod_sq(k, 0.0), hy_sq(k, 0.0), ce_sq(k, 0.0);
  std::vector<std::size_t> counts(k, 0);
  std::vector<double> scaled(setup.num_modes);
  for (std::size_t w = 0; w < n_windows; ++w) {
    for (std::size_t lead = 0; lead < k; ++lead) {
      // Window w predicts week range0 + w + k + lead.
      const std::size_t week = range0 + w + k + lead;
      if (week < w0 || week > w1) continue;
      const std::size_t i = week - w0;
      for (std::size_t m = 0; m < setup.num_modes; ++m) {
        scaled[m] = preds(w, lead, m);
      }
      const auto coeffs = pipeline.unscale(scaled);
      const auto field = pipeline.reconstruct_field(coeffs);
      for (std::size_t p = 0; p < ep.size(); ++p) {
        const double d = field[ep[p]] - truth_ep[i][p];
        pod_sq[lead] += d * d;
        const double dh = hycom_ep[i][p] - truth_ep[i][p];
        hy_sq[lead] += dh * dh;
        const double dc = cesm_ep[i][p] - truth_ep[i][p];
        ce_sq[lead] += dc * dc;
      }
      counts[lead] += ep.size();
    }
  }

  core::TextTable table({"forecast week", "Predicted (POD-LSTM)", "CESM",
                         "HYCOM"});
  std::vector<double> pod_rmse(k), hy_rmse(k), ce_rmse(k);
  for (std::size_t lead = 0; lead < k; ++lead) {
    const auto n = static_cast<double>(counts[lead]);
    pod_rmse[lead] = std::sqrt(pod_sq[lead] / n);
    ce_rmse[lead] = std::sqrt(ce_sq[lead] / n);
    hy_rmse[lead] = std::sqrt(hy_sq[lead] / n);
    table.add_row({"week " + std::to_string(lead + 1),
                   core::TextTable::num(pod_rmse[lead], 2),
                   core::TextTable::num(ce_rmse[lead], 2),
                   core::TextTable::num(hy_rmse[lead], 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "paper reference:      Predicted 0.62-0.69 | CESM 1.83-1.88 | HYCOM "
      "0.99-1.05\n");

  bool shape_holds = true;
  for (std::size_t lead = 0; lead < k; ++lead) {
    shape_holds = shape_holds && pod_rmse[lead] < hy_rmse[lead] &&
                  hy_rmse[lead] < ce_rmse[lead];
  }
  // Flat lead-time profile: week-8 RMSE within 35% of week-1.
  shape_holds = shape_holds && pod_rmse[k - 1] < 1.35 * pod_rmse[0];
  std::printf(
      "shape check (POD-LSTM < HYCOM < CESM at every lead, flat profile): "
      "%s\n",
      shape_holds ? "PASS" : "MISMATCH");
  return shape_holds ? 0 : 1;
}
