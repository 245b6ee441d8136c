// The virtual-time async campaign core: out-of-order delivery and
// checkpoint resume land on simulate_async's result bit for bit, and the
// GEONASNC loader refuses malformed files by field name.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/surrogate.hpp"
#include "hpc/async_campaign.hpp"
#include "io/binary.hpp"
#include "search/aging_evolution.hpp"
#include "search/random_search.hpp"

namespace geonas::hpc {
namespace {

using core::SurrogateEvaluator;
using search::AgingEvolution;
using search::RandomSearch;
using searchspace::StackedLSTMSpace;

ClusterConfig lossy_cluster(std::size_t nodes, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.wall_time_seconds = 1800.0;
  cfg.seed = seed;
  cfg.failures.crash_prob = 0.05;
  cfg.failures.straggler_prob = 0.05;
  cfg.failures.lost_result_prob = 0.05;
  return cfg;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_identical(const SimResult& got, const SimResult& want) {
  ASSERT_EQ(got.evals.size(), want.evals.size());
  for (std::size_t i = 0; i < got.evals.size(); ++i) {
    ASSERT_EQ(bits(got.evals[i].completed_at), bits(want.evals[i].completed_at))
        << "evaluation " << i;
    ASSERT_EQ(bits(got.evals[i].reward), bits(want.evals[i].reward))
        << "evaluation " << i;
    ASSERT_EQ(got.evals[i].arch_key, want.evals[i].arch_key)
        << "evaluation " << i;
  }
  EXPECT_EQ(got.failures.worker_crashes, want.failures.worker_crashes);
  EXPECT_EQ(got.failures.stragglers_killed, want.failures.stragglers_killed);
  EXPECT_EQ(got.failures.lost_results, want.failures.lost_results);
  EXPECT_EQ(bits(got.utilization), bits(want.utilization));
  EXPECT_EQ(got.busy_curve, want.busy_curve);
}

/// Evaluates every launch inline and pops until the wall, as
/// simulate_async does; `stop_after` > 0 stops at that many completions.
void run_inline(AsyncCampaign& campaign, ArchitectureEvaluator& oracle,
                std::size_t stop_after = 0) {
  for (std::uint64_t seq = 0;;) {
    for (; seq < campaign.launched(); ++seq) {
      if (!campaign.awaiting(seq)) continue;  // popped before a checkpoint
      const AsyncCampaign::Launch& l = *campaign.find(seq);
      campaign.deliver(seq, oracle.evaluate(l.arch, l.eval_seed));
    }
    if (stop_after > 0 && campaign.completed() >= stop_after) return;
    if (!campaign.pop()) return;
  }
}

TEST(AsyncCampaign, ShuffledDeliveryMatchesSimulator) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const ClusterConfig cfg = lossy_cluster(16, 41);
  AgingEvolution sim_method(space, {.seed = 6});
  const SimResult want = simulate_async(sim_method, oracle, cfg);
  ASSERT_GT(want.failures.total(), 0u);

  // Outcomes arrive one at a time in a seeded random order, the way
  // remote workers return them; pop() must still replay the simulator.
  AgingEvolution method(space, {.seed = 6});
  AsyncCampaign campaign(cfg, method);
  campaign.start();
  Rng order(99);
  std::vector<std::uint64_t> pending;
  std::uint64_t queued = 0;
  while (!campaign.finished()) {
    for (; queued < campaign.launched(); ++queued) pending.push_back(queued);
    ASSERT_FALSE(pending.empty());
    const std::size_t k = order.uniform_index(pending.size());
    const std::uint64_t seq = pending[k];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
    const AsyncCampaign::Launch& l = *campaign.find(seq);
    campaign.deliver(seq, oracle.evaluate(l.arch, l.eval_seed));
    while (campaign.pop()) {
    }
  }
  expect_identical(campaign.take_result(), want);
}

TEST(AsyncCampaign, CheckpointResumeMatchesSimulator) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const ClusterConfig cfg = lossy_cluster(16, 42);
  const std::string path = ::testing::TempDir() + "/async_campaign_resume.bin";
  AgingEvolution sim_method(space, {.seed = 7});
  const SimResult want = simulate_async(sim_method, oracle, cfg);
  ASSERT_GT(want.evals.size(), 40u);

  {
    AgingEvolution method(space, {.seed = 7});
    AsyncCampaign campaign(cfg, method);
    campaign.start();
    run_inline(campaign, oracle, 40);
    campaign.save(path, {.workers_joined = 3});
  }
  AgingEvolution method(space, {.seed = 999});  // state comes from the file
  AsyncCampaign campaign(cfg, method);
  EXPECT_EQ(campaign.resume(path).workers_joined, 3u);
  EXPECT_EQ(campaign.completed(), 40u);
  run_inline(campaign, oracle);
  expect_identical(campaign.take_result(), want);
  std::remove(path.c_str());
}

/// Fields of a hand-written GEONASNC v1 file that the loader must check.
struct Crafted {
  std::uint64_t eval_counter = 3;
  std::uint64_t evals = 0;
  std::uint64_t intervals = 0;
  std::uint64_t outstanding = 1;
  std::uint8_t fate = 0;
  bool reversed_interval = false;  // one busy interval, ending before it starts
};

void write_checkpoint(const std::string& path, const ClusterConfig& c,
                      RandomSearch& method, const Crafted& f) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.good());
  io::BinaryWriter w(os, "GEONASNC", 1);
  w.str(method.name());
  w.u64(c.nodes);
  w.f64(c.wall_time_seconds);
  w.f64(c.coordinator_service);
  w.f64(c.launch_overhead_mean);
  w.f64(c.failures.crash_prob);
  w.f64(c.failures.restart_penalty_seconds);
  w.f64(c.failures.straggler_prob);
  w.f64(c.failures.straggler_timeout_multiple);
  w.f64(c.failures.lost_result_prob);
  w.u64(c.seed);
  search::write_rng_state(w, Rng(5));
  w.f64(0.3);  // coordinator clock
  w.u64(f.eval_counter);
  w.u64(f.evals);  // no records follow: the count alone must be refused
  for (int i = 0; i < 6; ++i) w.u64(0);  // failure + transport counters
  w.u64(f.reversed_interval ? 1 : f.intervals);
  if (f.reversed_interval) {
    w.f64(5.0);
    w.f64(1.0);
  }
  w.u64(f.outstanding);
  if (f.outstanding == 1) {
    w.u64(2);  // seq
    w.u64(0);  // slot
    w.f64(10.0);
    w.u64(1234);
    w.u8(f.fate);
    w.f64(0.0);
    search::write_architecture(w, method.ask());
  }
  method.save(w);
  w.finish();
}

/// Resumes `f` and returns the error message ("" when it loads).
std::string resume_error(const Crafted& f) {
  const StackedLSTMSpace space;
  ClusterConfig cfg;
  cfg.nodes = 8;
  const std::string path = ::testing::TempDir() + "/async_campaign_bad.bin";
  RandomSearch writer_method(space, 3);
  write_checkpoint(path, cfg, writer_method, f);
  RandomSearch method(space, 3);
  AsyncCampaign campaign(cfg, method);
  std::string error;
  try {
    (void)campaign.resume(path);
    EXPECT_EQ(campaign.outstanding(), 1u);
    EXPECT_TRUE(campaign.awaiting(2));
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  std::remove(path.c_str());
  return error;
}

TEST(AsyncCampaignCheckpoint, HandWrittenLayoutLoads) {
  // The control for the rejections below: the crafted layout itself is
  // well formed.
  EXPECT_EQ(resume_error({}), "");
}

TEST(AsyncCampaignCheckpoint, RejectsOutOfRangeFateByName) {
  const std::string error = resume_error({.fate = 4});
  EXPECT_NE(error.find("fate byte 4 out of range"), std::string::npos)
      << error;
}

TEST(AsyncCampaignCheckpoint, RejectsImplausibleCountsByName) {
  const std::uint64_t huge = 1ULL << 40;
  EXPECT_NE(resume_error({.eval_counter = huge})
                .find("implausible eval counter"),
            std::string::npos);
  EXPECT_NE(resume_error({.evals = huge})
                .find("implausible completed-evaluation count"),
            std::string::npos);
  EXPECT_NE(resume_error({.intervals = huge})
                .find("implausible busy-interval count"),
            std::string::npos);
  EXPECT_NE(resume_error({.outstanding = huge})
                .find("implausible outstanding-launch count"),
            std::string::npos);
}

TEST(AsyncCampaignCheckpoint, RejectsOutOfRangeIntervalByName) {
  const std::string error = resume_error({.reversed_interval = true});
  EXPECT_NE(error.find("busy interval 0 outside [0, wall]"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace geonas::hpc
