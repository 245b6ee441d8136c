// campaign_train: the paper's campaign loop with real trainings.
//
// Set-up is PODLSTMPipeline::prepare() at quick scale (synthetic SST ->
// POD -> windows). The measured work is a closed loop with one client:
// the serial run_local_search driver asks aging evolution for an
// architecture, TrainingEvaluator trains it for a fixed epoch budget on
// the zero-copy window view, and the validation R^2 is told back. One
// campaign has a fixed evaluation count; campaigns repeat until the run
// time is used up.
//
// Aging evolution runs with the paper's configuration (population 100,
// sample 10), so a 12-evaluation campaign is entirely its random
// warm-up: the architectures it trains depend only on the search seed.
// That seed is part of the workload's definition, so every run trains
// the same architecture mix and evaluations per second compare across
// runs. The run seed draws the SST record, the train/validation split
// and the per-evaluation training seeds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/nas_driver.hpp"
#include "core/pipeline.hpp"
#include "core/training_eval.hpp"
#include "core/window_source.hpp"
#include "data/landmask.hpp"
#include "data/sst.hpp"
#include "data/windowing.hpp"
#include "hpc/parallel_for.hpp"
#include "pod/pod.hpp"
#include "search/aging_evolution.hpp"

namespace e2e {
namespace {

using namespace geonas;

constexpr std::size_t kSetups = 2;          // prepare() repetitions
constexpr std::size_t kEvaluations = 12;    // per campaign
constexpr std::size_t kEpochs = 5;          // per evaluation
constexpr std::size_t kBatch = 64;          // paper batch size
constexpr std::uint64_t kSearchSeed = 7;
// DESIGN.md: five POD modes capture about 90 % of the synthetic field's
// variance; a value outside this band means the data layer changed.
constexpr double kEnergyLow = 0.80;
constexpr double kEnergyHigh = 0.99;

core::PipelineConfig pipeline_config(std::uint64_t seed) {
  core::PipelineConfig cfg{
      .setup = core::ExperimentSetup::make(core::Scale::kQuick)};
  cfg.sst.seed = mix_seed(seed, 1) % 1000000;
  cfg.split_seed = mix_seed(seed, 2) % 1000000;
  return cfg;
}

/// Replays prepare()'s calls stage by stage, with a span around each,
/// so the per-layer times can be checked against prepare()'s wall time.
void staged_prepare(const core::PipelineConfig& cfg, SpanLog& spans,
                    double& weeks) {
  const core::ExperimentSetup& setup = cfg.setup;
  const data::LandMask mask(setup.grid, cfg.mask_seed);
  const data::SyntheticSST sst(cfg.sst);
  Matrix train;
  {
    const Scope s(spans, "data.snapshots");
    train = sst.snapshots(mask, 0, setup.train_snapshots);
  }
  weeks += static_cast<double>(setup.train_snapshots);
  pod::POD basis;
  {
    const Scope s(spans, "pod.fit");
    basis.fit(train, {.num_modes = setup.num_modes, .subtract_mean = true});
  }
  Matrix coeffs(setup.num_modes, setup.total_snapshots);
  constexpr std::size_t kChunk = 64;
  for (std::size_t w0 = 0; w0 < setup.total_snapshots; w0 += kChunk) {
    const std::size_t count = std::min(kChunk, setup.total_snapshots - w0);
    Matrix chunk;
    if (w0 + count <= setup.train_snapshots) {
      chunk = train.slice_cols(w0, w0 + count);
    } else {
      const Scope s(spans, "data.snapshots");
      chunk = sst.snapshots(mask, w0, count);
      weeks += static_cast<double>(count);
    }
    const Scope s(spans, "pod.project");
    const Matrix a = basis.project(chunk);
    for (std::size_t c = 0; c < count; ++c) {
      for (std::size_t m = 0; m < setup.num_modes; ++m) {
        coeffs(m, w0 + c) = a(m, c);
      }
    }
  }
  const Scope s(spans, "data.window");
  const Matrix train_coeffs = coeffs.slice_cols(0, setup.train_snapshots);
  const data::WindowView view(train_coeffs,
                              {.window = setup.window, .stride = 1});
  const data::SplitIndices split = data::train_val_split_indices(
      view.size(), cfg.train_fraction, cfg.split_seed);
  const auto gather = [&](const std::vector<std::size_t>& idx) {
    Tensor3 x(idx.size(), setup.window, setup.num_modes);
    Tensor3 y(idx.size(), setup.window, setup.num_modes);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      view.gather_x(idx[i], x.block(i));
      view.gather_y(idx[i], y.block(i));
    }
  };
  gather(split.train);
  gather(split.val);
}

/// FNV-1a over the trajectory: architecture keys and reward bits.
std::uint64_t digest(const core::LocalSearchResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto feed = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 1099511628211ULL;
    }
  };
  for (const core::LocalEval& e : r.history) {
    const std::string key = e.arch.key();
    feed(key.data(), key.size());
    feed(&e.reward, sizeof e.reward);
  }
  return h;
}

struct Campaign {
  core::LocalSearchResult result;
  double wall = 0.0;
  double cpu = 0.0;  // process CPU seconds
};

}  // namespace

Result run_campaign_train(const Options& opt, SpanLog& spans) {
  Result res;
  const core::PipelineConfig cfg = pipeline_config(opt.seed);

  // Set-up: prepare() several times; the last pipeline serves the run.
  std::unique_ptr<core::PODLSTMPipeline> pipeline;
  std::vector<double> setup_s;
  const std::size_t setups = opt.trace ? 1 : kSetups;
  for (std::size_t i = 0; i < setups; ++i) {
    pipeline.reset();
    pipeline = std::make_unique<core::PODLSTMPipeline>(cfg);
    const double t0 = now_s();
    pipeline->prepare();
    setup_s.push_back(now_s() - t0);
  }
  const double energy = pipeline->pod().energy_captured(cfg.setup.num_modes);
  res.gates.check("pod_energy_band",
                  energy >= kEnergyLow && energy <= kEnergyHigh,
                  "energy captured at Nr=" +
                      std::to_string(cfg.setup.num_modes) + " is " +
                      std::to_string(energy));

  // Traced run: replay prepare()'s calls stage by stage between two
  // timed prepare() calls, at the same kernel threads, and compare the
  // stage sum with their mean, so slow drift of the host cancels.
  if (opt.trace) {
    spans.set_enabled(true);
    double weeks = 0.0;
    staged_prepare(cfg, spans, weeks);
    spans.set_enabled(false);
    pipeline.reset();
    pipeline = std::make_unique<core::PODLSTMPipeline>(cfg);
    const double t0 = now_s();
    pipeline->prepare();
    const double prepare_wall = 0.5 * (setup_s.back() + now_s() - t0);
    res.layers.emplace_back("data.snapshots_s", spans.total("data.snapshots"));
    res.layers.emplace_back("data.snapshots_weeks", weeks);
    res.layers.emplace_back("pod.fit_s", spans.total("pod.fit"));
    res.layers.emplace_back("pod.project_s", spans.total("pod.project"));
    res.layers.emplace_back("data.window_s", spans.total("data.window"));
    const double staged = spans.total("data.snapshots") +
                          spans.total("pod.fit") +
                          spans.total("pod.project") +
                          spans.total("data.window");
    res.layers.emplace_back("core.prepare_coverage", staged / prepare_wall);
  }

  // Trainings run their kernels inline. With a kernel pool, every
  // parallel GEMM waits at its join for the pool's other threads, and on
  // a virtual machine waking an idle CPU for them took anywhere from
  // microseconds to milliseconds: evaluations per second moved by 25 %
  // between identical runs, while the pool shortened a campaign by about
  // 4 %. prepare() above keeps the default kernel threads.
  hpc::set_kernel_threads(1);

  const searchspace::StackedLSTMSpace space;
  const data::WindowView& view = pipeline->train_window_view();
  const core::WindowExampleSource train(view, pipeline->split_indices().train);
  const core::WindowExampleSource val(view, pipeline->split_indices().val);
  core::TrainingEvaluator trainer(
      space, train, &val,
      nn::TrainConfig{.epochs = kEpochs, .batch_size = kBatch});
  TimedEvaluator evaluator(trainer, spans, "core.evaluate");

  std::vector<double> latencies;
  double ask_s = 0.0;
  double tell_s = 0.0;
  const auto campaign = [&](std::size_t rep) {
    search::AgingEvolution ae(
        space,
        {.population_size = 100, .sample_size = 10, .seed = kSearchSeed});
    TimedMethod method(ae, spans);
    Campaign c;
    const Scope span(spans, "search.campaign");
    const double t0 = now_s();
    const double cpu0 = process_cpu_s();
    c.result = core::run_local_search(method, evaluator, kEvaluations,
                                      mix_seed(opt.seed, 100 + rep));
    c.cpu = process_cpu_s() - cpu0;
    c.wall = now_s() - t0;
    latencies.insert(latencies.end(), method.latencies().begin(),
                     method.latencies().end());
    ask_s += method.ask_seconds();
    tell_s += method.tell_seconds();
    return c;
  };

  // Traced run: one campaign untraced, then the identical campaign with
  // the registry installed; the wall-time ratio is the trace overhead.
  obs::MetricsRegistry registry;
  struct {
    double busy = 0.0;
    std::size_t calls = 0;
    double params = 0.0;
  } eval_base;
  double overhead_pct = 0.0;
  Campaign traced;
  if (opt.trace) {
    const Campaign plain = campaign(0);
    spans.set_enabled(true);
    obs::set_registry(&registry);
    latencies.clear();
    ask_s = tell_s = 0.0;
    eval_base = {evaluator.busy_seconds(), evaluator.calls(),
                 evaluator.params_evaluated()};
    traced = campaign(0);
    overhead_pct = (traced.wall / plain.wall - 1.0) * 100.0;
    res.gates.check("trace_changes_nothing",
                    digest(plain.result) == digest(traced.result),
                    "untraced and traced campaigns have the same trajectory");
  }

  // The traced run measures the one traced campaign; the untraced run
  // repeats the campaign with fresh training seeds for the run time.
  std::vector<Campaign> campaigns;
  if (opt.trace) campaigns.push_back(std::move(traced));
  const double start = now_s();
  for (std::size_t rep = 0;
       !opt.trace && (campaigns.empty() || now_s() - start < opt.seconds);
       ++rep) {
    campaigns.push_back(campaign(rep));
  }
  obs::set_registry(nullptr);
  spans.set_enabled(false);

  std::vector<double> items, seconds, cpu_seconds;
  std::size_t evals = 0;
  bool finite = true;
  for (const Campaign& c : campaigns) {
    items.push_back(static_cast<double>(c.result.history.size()));
    seconds.push_back(c.wall);
    cpu_seconds.push_back(c.cpu);
    evals += c.result.history.size();
    for (const core::LocalEval& e : c.result.history) {
      finite = finite && std::isfinite(e.reward);
    }
  }
  res.gates.check("rewards_finite", finite,
                  std::to_string(evals) + " evaluations");
  res.gates.check("no_failed_evaluations", evaluator.failed() == 0,
                  std::to_string(evaluator.failed()) + " failed");
  res.gates.check("evaluation_count",
                  evals == campaigns.size() * kEvaluations,
                  std::to_string(campaigns.size()) + " campaigns of " +
                      std::to_string(kEvaluations));

  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    digest(campaigns.front().result)));
  res.fields.nums("setup_s", setup_s);
  res.fields.nums("campaign_items", items);
  res.fields.nums("campaign_seconds", seconds);
  res.fields.nums("campaign_cpu_seconds", cpu_seconds);
  res.fields.nums("latency_s", latencies);
  res.fields.num("best_reward", campaigns.front().result.best_reward);
  res.fields.str("trajectory_digest", hex);
  res.fields.num("campaigns", static_cast<double>(campaigns.size()));
  res.fields.num("attempted", static_cast<double>(evaluator.calls()));
  res.fields.num("failed", static_cast<double>(evaluator.failed()));

  if (opt.trace) {
    // Layer figures cover the traced campaigns only.
    const double eval_s = evaluator.busy_seconds() - eval_base.busy;
    const auto hist_sum = [&](const char* name) {
      return registry.histogram(name).sum();
    };
    res.layers.emplace_back("core.evaluate_s", eval_s);
    res.layers.emplace_back("core.evaluate_calls",
                            static_cast<double>(evaluator.calls() -
                                                eval_base.calls));
    res.layers.emplace_back("core.evaluate_failed",
                            static_cast<double>(evaluator.failed()));
    res.layers.emplace_back("nn.forward_s", hist_sum("trainer.forward_seconds"));
    res.layers.emplace_back("nn.backward_s",
                            hist_sum("trainer.backward_seconds"));
    res.layers.emplace_back("nn.update_s", hist_sum("trainer.update_seconds"));
    // Computed, not counted: forward 2 flop per parameter per step,
    // backward twice the forward, over every training example and epoch;
    // validation runs forward only.
    const double steps = static_cast<double>(cfg.setup.window);
    const double per_param =
        steps * static_cast<double>(kEpochs) *
        (6.0 * static_cast<double>(train.size()) +
         2.0 * static_cast<double>(val.size()));
    const double gflop =
        (evaluator.params_evaluated() - eval_base.params) * per_param * 1e-9;
    res.layers.emplace_back("nn.train_gflop", gflop);
    res.layers.emplace_back("nn.gflops", eval_s > 0.0 ? gflop / eval_s : 0.0);
    res.layers.emplace_back("tensor.arena_high_water_bytes",
                            registry.histogram("arena.high_water_bytes").max());
    res.layers.emplace_back("search.ask_s", ask_s);
    res.layers.emplace_back("search.tell_s", tell_s);
    res.layers.emplace_back("obs.trace_overhead_pct", overhead_pct);
  }
  return res;
}

}  // namespace e2e
