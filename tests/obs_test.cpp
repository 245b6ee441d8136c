// geonas::obs — metrics registry, histogram percentiles, trace spans,
// JSON exporter, thread-safety, and the end-to-end wiring contract:
// campaign trajectories are bitwise identical with metrics on or off.
//
// Suite names all start with "Obs" so tools/run_checks.sh --quick can
// select them for the TSan pass (the registry is written from kernel
// worker threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/nas_driver.hpp"
#include "core/pipeline.hpp"
#include "core/surrogate.hpp"
#include "hpc/parallel_for.hpp"
#include "obs/json_export.hpp"
#include "obs/metrics.hpp"
#include "search/aging_evolution.hpp"

namespace geonas::obs {
namespace {

/// Installs a registry for one test and guarantees uninstall on exit
/// (other suites in this binary must never see a stale registry).
struct RegistryFixture {
  MetricsRegistry registry;
  RegistryFixture() { set_registry(&registry); }
  ~RegistryFixture() { set_registry(nullptr); }
};

TEST(ObsCounter, AddsAndReads) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // get-or-create returns the same instrument for the same name.
  EXPECT_EQ(&reg.counter("a"), &c);
  EXPECT_NE(&reg.counter("b"), &c);
}

TEST(ObsGauge, SetAndAccumulate) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("g");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(ObsHistogram, CountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  for (const double x : {0.5, 1.5, 2.5, 3.5}) h.observe(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.5);
}

TEST(ObsHistogram, DropsNonFinite) {
  Histogram h;
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.dropped(), 3u);
  h.observe(1.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0);
}

TEST(ObsHistogram, UnderflowOverflowBuckets) {
  Histogram h;
  h.observe(0.0);     // <= 0: underflow by definition
  h.observe(-5.0);    // negative: underflow
  h.observe(1e-12);   // below the 1e-9 floor
  h.observe(1e9);     // above the 1e4 ceiling
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 4u);  // all finite, all counted in the stats
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(ObsHistogram, PercentileWithinBucketWidth) {
  // Log-spaced buckets are ~±15% wide at 8/decade; the reported
  // percentile (geometric bucket midpoint) must land within one bucket
  // width of the true value.
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(0.010);  // p50 target
  for (int i = 0; i < 10; ++i) h.observe(3.0);      // tail
  const double p50 = h.percentile(50);
  EXPECT_GT(p50, 0.010 / 1.35);
  EXPECT_LT(p50, 0.010 * 1.35);
  const double p99_9 = h.percentile(99.9);
  EXPECT_GT(p99_9, 3.0 / 1.35);
  EXPECT_LT(p99_9, 3.0 * 1.35);
  // Percentile ordering is monotone.
  EXPECT_LE(h.percentile(50), h.percentile(90) + 1e-12);
  EXPECT_LE(h.percentile(90), h.percentile(99) + 1e-12);
}

TEST(ObsHistogram, PercentileBoundarySemantics) {
  // Table-driven pin of the documented boundary contract: empty/NaN-p
  // report 0, p <= 0 reports min(), p >= 100 reports max(), ranks in the
  // underflow/overflow buckets report min()/max(), and in-range results
  // are clamped into [min(), max()].
  const double nan_p = std::numeric_limits<double>::quiet_NaN();

  {
    Histogram empty;
    for (const double p : {-5.0, 0.0, 50.0, 100.0, 150.0, nan_p}) {
      EXPECT_DOUBLE_EQ(empty.percentile(p), 0.0) << "empty, p=" << p;
    }
  }

  Histogram h;
  for (const double x : {0.02, 0.04, 0.08, 0.16}) h.observe(x);
  struct Case {
    double p;
    double want;
    const char* why;
  };
  const Case cases[] = {
      {nan_p, 0.0, "NaN p is not a rank"},
      {-10.0, h.min(), "p below 0 pins to min"},
      {0.0, h.min(), "p == 0 pins to min"},
      {100.0, h.max(), "p == 100 pins to max"},
      {250.0, h.max(), "p above 100 pins to max"},
  };
  for (const Case& c : cases) {
    EXPECT_DOUBLE_EQ(h.percentile(c.p), c.want) << c.why;
  }
  // In-range percentiles stay inside the observed envelope even though
  // bucket midpoints can exceed it.
  for (const double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, h.min()) << "p=" << p;
    EXPECT_LE(v, h.max()) << "p=" << p;
  }

  {
    // All mass in the underflow/overflow buckets: in-range ranks resolve
    // to the recorded extremes, never a synthetic bucket bound.
    Histogram edges;
    edges.observe(-3.0);   // underflow (negative)
    edges.observe(1e9);    // overflow
    EXPECT_DOUBLE_EQ(edges.percentile(25), -3.0);
    EXPECT_DOUBLE_EQ(edges.percentile(99), 1e9);
  }
}

TEST(ObsRegistry, SortedSnapshotsAndSeries) {
  MetricsRegistry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  reg.counter("m.mid").add(3);
  const auto counters = reg.counters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "a.first");
  EXPECT_EQ(counters[1].first, "m.mid");
  EXPECT_EQ(counters[2].first, "z.last");

  Series& s = reg.series("curve");
  s.append(0.0, 1.0);
  s.append(1.0, 0.5);
  const auto pts = s.snapshot();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[1].second, 0.5);
}

TEST(ObsSpans, NestAndClose) {
  MetricsRegistry reg;
  {
    ScopedTimer outer(&reg, "outer");
    {
      ScopedTimer inner(&reg, "inner");
    }
    ScopedTimer sibling(&reg, "sibling");
  }
  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Recorded in open order on one thread: outer, inner, sibling.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 0);  // nested under outer
  EXPECT_STREQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].parent, 0);  // also under outer (inner had closed)
  for (const auto& span : spans) {
    EXPECT_GE(span.duration, 0.0);  // all closed
    EXPECT_GE(span.start, 0.0);
  }
}

TEST(ObsSpans, NullRegistryIsNoOp) {
  ScopedTimer timer(nullptr, "nothing");  // must not touch any state
  SUCCEED();
}

TEST(ObsJson, StructureAndEscaping) {
  MetricsRegistry reg;
  reg.counter("evals").add(7);
  reg.gauge("weird\"name\n").set(1.5);
  reg.gauge("nan_gauge").set(std::numeric_limits<double>::quiet_NaN());
  reg.histogram("lat").observe(0.25);
  reg.series("best").append(1.0, 0.9);
  { ScopedTimer span(&reg, "phase"); }

  std::ostringstream os;
  write_telemetry_json(reg, os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"schema\": \"geonas.telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"evals\": 7"), std::string::npos);
  EXPECT_NE(json.find("weird\\\"name"), std::string::npos);  // escaped quote
  EXPECT_NE(json.find("\\n"), std::string::npos);           // escaped newline
  EXPECT_NE(json.find("\"nan_gauge\": null"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"best\": [[1, 0.90000000000000002]"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phase\""), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity; full validation
  // happens in the CLI end-to-end test via the python json module).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ObsJson, EmptyRegistryIsStillValid) {
  MetricsRegistry reg;
  std::ostringstream os;
  write_telemetry_json(reg, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"spans\": []"), std::string::npos);
}

TEST(ObsThreaded, ConcurrentObserveAndExport) {
  // TSan target: hammer one registry from many threads while a reader
  // repeatedly snapshots and serializes it.
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  constexpr int kWriters = 4;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&reg, w] {
      for (int i = 0; i < 2000; ++i) {
        reg.counter("t.count").add(1);
        reg.gauge("t.gauge").add(1.0);
        reg.histogram("t.hist").observe(1e-3 * (w + 1));
        reg.series("t.series").append(static_cast<double>(i),
                                      static_cast<double>(w));
        ScopedTimer span(&reg, "t.span");
      }
    });
  }
  std::thread reader([&reg, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream os;
      write_telemetry_json(reg, os);
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(reg.counter("t.count").value(), 4u * 2000u);
  EXPECT_DOUBLE_EQ(reg.gauge("t.gauge").value(), 8000.0);
  EXPECT_EQ(reg.histogram("t.hist").count(), 8000u);
  EXPECT_EQ(reg.series("t.series").size(), 8000u);
  EXPECT_EQ(reg.spans().size(), 8000u);
}

TEST(ObsWiring, SerialDriverRecordsCampaignTelemetry) {
  RegistryFixture fix;
  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator oracle(space);
  search::AgingEvolution ae(space,
                            {.population_size = 20, .sample_size = 5,
                             .seed = 3});
  const auto result = core::run_local_search(ae, oracle, 50, 3);
  EXPECT_EQ(result.history.size(), 50u);

  EXPECT_EQ(fix.registry.counter("search.evals_started").value(), 50u);
  EXPECT_EQ(fix.registry.counter("search.evals_completed").value(), 50u);
  EXPECT_EQ(fix.registry.histogram("search.reward").count(), 50u);
  // Best-reward timeline: non-empty, monotone, ends at the final best.
  const auto timeline = fix.registry.series("search.best_reward").snapshot();
  ASSERT_FALSE(timeline.empty());
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].second, timeline[i - 1].second);
    EXPECT_GE(timeline[i].first, timeline[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(timeline.back().second, result.best_reward);
  // The campaign span closed.
  bool found_campaign = false;
  for (const auto& span : fix.registry.spans()) {
    if (std::string_view(span.name) == "search.campaign") {
      found_campaign = true;
      EXPECT_GE(span.duration, 0.0);
    }
  }
  EXPECT_TRUE(found_campaign);
}

TEST(ObsWiring, ParallelDriverRecordsWorkerBusyFractions) {
  RegistryFixture fix;
  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator oracle(space);
  search::AgingEvolution ae(space,
                            {.population_size = 20, .sample_size = 5,
                             .seed = 4});
  const auto result =
      core::run_local_search_parallel(ae, oracle, 64, 4, 4);
  EXPECT_EQ(result.history.size(), 64u);
  EXPECT_DOUBLE_EQ(fix.registry.gauge("driver.workers").value(), 4.0);
  // One busy-fraction observation per worker, all in [0, 1].
  const Histogram& busy =
      fix.registry.histogram("driver.worker_busy_fraction");
  EXPECT_EQ(busy.count(), 4u);
  EXPECT_GE(busy.min(), 0.0);
  EXPECT_LE(busy.max(), 1.0);
  EXPECT_EQ(fix.registry.counter("search.evals_completed").value(), 64u);
}

TEST(ObsWiring, ParallelForInstrumentsOverThresholdDispatches) {
  RegistryFixture fix;
  hpc::set_kernel_threads(4);
  hpc::register_kernel_metrics();
  std::vector<double> data(1 << 16, 1.0);
  hpc::parallel_for(0, data.size(), /*cost_flops=*/1e9, [&](std::size_t lo,
                                                            std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) data[i] *= 2.0;
  });
  hpc::set_kernel_threads(0);
  EXPECT_EQ(fix.registry.counter("kernel.dispatches").value(), 1u);
  EXPECT_EQ(fix.registry.counter("kernel.chunks").value(), 4u);
  // Workers observed 3 chunks, the caller 1.
  EXPECT_EQ(fix.registry.histogram("kernel.chunk_seconds").count(), 4u);
  EXPECT_EQ(fix.registry.histogram("kernel.queue_depth").count(), 1u);
  EXPECT_GT(fix.registry.gauge("kernel.worker_busy_seconds").value(), 0.0);
  for (const double v : data) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(ObsWiring, UnderThresholdDispatchIsNotInstrumented) {
  RegistryFixture fix;
  hpc::set_kernel_threads(4);
  std::vector<double> data(64, 1.0);
  hpc::parallel_for(0, data.size(), /*cost_flops=*/10.0,
                    [&](std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) data[i] *= 2.0;
                    });
  hpc::set_kernel_threads(0);
  EXPECT_EQ(fix.registry.counter("kernel.dispatches").value(), 0u);
}

TEST(ObsWiring, PipelinePrepareStagesCoverPrepareSpan) {
  core::PipelineConfig cfg;
  cfg.setup.grid = {24, 48};
  cfg.setup.train_snapshots = 120;
  cfg.setup.total_snapshots = 240;
  RegistryFixture fix;
  core::PODLSTMPipeline pipeline(cfg);
  pipeline.prepare();

  const auto spans = fix.registry.spans();
  const auto root_it =
      std::find_if(spans.begin(), spans.end(), [](const SpanRecord& s) {
        return std::string(s.name) == "pipeline.prepare";
      });
  ASSERT_NE(root_it, spans.end()) << "no pipeline.prepare span";
  // Parent indices count the spans of one thread in open order.
  const std::uint32_t thread = root_it->thread;
  const auto root = static_cast<std::int64_t>(std::count_if(
      spans.begin(), root_it,
      [&](const SpanRecord& s) { return s.thread == thread; }));
  const double total = root_it->duration;
  ASSERT_GT(total, 0.0);
  double covered = 0.0;
  std::set<std::string> stages;
  for (const auto& span : spans) {
    if (span.thread != thread || span.parent != root) continue;
    covered += span.duration;
    stages.insert(span.name);
  }
  EXPECT_EQ(stages, (std::set<std::string>{"pipeline.generate",
                                           "pipeline.pod_fit",
                                           "pipeline.project",
                                           "pipeline.window"}));
  EXPECT_GE(covered, 0.95 * total)
      << "stages cover " << covered << " s of a " << total << " s prepare()";
  EXPECT_LE(covered, total);
}

TEST(ObsWiring, CampaignHistoryIdenticalWithMetricsOnAndOff) {
  // The determinism contract: telemetry observes, it never perturbs.
  const searchspace::StackedLSTMSpace space;
  auto run = [&](bool metrics) {
    core::SurrogateEvaluator oracle(space);
    search::AgingEvolution ae(space,
                              {.population_size = 20, .sample_size = 5,
                               .seed = 9});
    std::unique_ptr<MetricsRegistry> reg;
    if (metrics) {
      reg = std::make_unique<MetricsRegistry>();
      set_registry(reg.get());
    }
    const auto result = core::run_local_search(ae, oracle, 80, 9);
    set_registry(nullptr);
    return result;
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(off.history.size(), on.history.size());
  for (std::size_t i = 0; i < off.history.size(); ++i) {
    EXPECT_EQ(off.history[i].arch.key(), on.history[i].arch.key());
    // Bitwise: the reward path must not differ by even one ULP.
    EXPECT_EQ(off.history[i].reward, on.history[i].reward)
        << "reward diverged at evaluation " << i;
  }
  EXPECT_EQ(off.best.key(), on.best.key());
  EXPECT_EQ(off.best_reward, on.best_reward);
}

}  // namespace
}  // namespace geonas::obs
