// campaign_net: paper-cluster aging-evolution campaigns over loopback TCP.
//
// Each campaign runs 128 virtual nodes for 3 simulated hours against the
// calibrated surrogate evaluator. A NetMaster drives it from the main
// thread; the other hardware threads run in-process run_worker loops
// that connect over 127.0.0.1, all confined to one CPU. The master
// checkpoints every kCheckpointEvery evaluations into the run's work
// directory. Evaluation costs next to nothing here, so the campaign
// engine itself (search method, virtual-time master, frames, checkpoint
// I/O) is what is measured. Campaigns with fresh seeds repeat until the
// run time is used up.
//
// Every campaign is checked against its specification: simulate_async
// with the same method, seed and cluster config must produce the same
// result, and every worker started must have joined and none died.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/surrogate.hpp"
#include "hpc/cluster_sim.hpp"
#include "hpc/net/master.hpp"
#include "hpc/net/worker.hpp"
#include "search/aging_evolution.hpp"

namespace e2e {
namespace {

using namespace geonas;

constexpr std::size_t kNodes = 128;
constexpr double kWallSeconds = 3.0 * 3600.0;
constexpr std::size_t kCheckpointEvery = 1000;

std::size_t worker_threads() {
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  return cpus > 1 ? cpus - 1 : 1;
}

/// Bitwise comparison with the simulator; utilization is an integral
/// summed in a different order by the two drivers, so it gets 1e-9.
std::string compare_with_sim(const hpc::SimResult& net,
                             const hpc::SimResult& sim) {
  if (net.evals.size() != sim.evals.size()) {
    return "evaluation counts differ: " + std::to_string(net.evals.size()) +
           " vs " + std::to_string(sim.evals.size());
  }
  for (std::size_t i = 0; i < net.evals.size(); ++i) {
    const hpc::CompletedEval& a = net.evals[i];
    const hpc::CompletedEval& b = sim.evals[i];
    if (a.completed_at != b.completed_at || a.reward != b.reward ||
        a.duration != b.duration || a.params != b.params ||
        a.arch_key != b.arch_key) {
      return "evaluation " + std::to_string(i) + " differs";
    }
  }
  if (net.failures.total() != sim.failures.total()) return "failures differ";
  if (net.busy_curve != sim.busy_curve) return "busy curves differ";
  if (std::abs(net.utilization - sim.utilization) > 1e-9) {
    return "utilization differs";
  }
  return "";
}

// Campaigns whose per-evaluation latencies are kept (a run holds dozens
// of campaigns; their full histories would dominate this process's RSS).
constexpr std::size_t kLatencyCampaigns = 4;

struct Campaign {
  hpc::net::MasterResult result;  // evaluations dropped once checked
  std::size_t evals = 0;
  double best = 0.0;
  double setup = 0.0;
  double wall = 0.0;
  double cpu = 0.0;  // process CPU seconds during run()
  double sim_wall = 0.0;
  double ask_s = 0.0;
  double tell_s = 0.0;
  double checkpoint_bytes = 0.0;
  std::vector<double> latencies;
  std::string mismatch;
};

}  // namespace

Result run_campaign_net(const Options& opt, SpanLog& spans) {
  Result res;
  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator surrogate(space);
  TimedEvaluator evaluator(surrogate, spans, "core.surrogate_evaluate");
  const std::size_t workers = worker_threads();
  std::filesystem::create_directories(opt.work_dir);
  // Master and workers hand each evaluation back and forth over
  // sockets; spread over several CPUs, every hand-off waits for an idle
  // CPU to wake, which on a virtual machine moved evaluations per second
  // by 30 % between runs. On one CPU the hand-offs are context switches,
  // so the rate measures the campaign engine's own cost per evaluation.
  const PinnedCpus one_cpu(-1, 1);

  const auto campaign = [&](std::size_t k) {
    Campaign c;
    hpc::ClusterConfig cluster;
    cluster.nodes = kNodes;
    cluster.wall_time_seconds = kWallSeconds;
    cluster.seed = mix_seed(opt.seed, 10 + k) % 1000000007ULL;
    const std::uint64_t method_seed = mix_seed(opt.seed, 20 + k);
    const std::string ckpt =
        (std::filesystem::path(opt.work_dir) /
         ("campaign" + std::to_string(k) + ".ckpt"))
            .string();

    // Set-up: method, master (binds the listener) and worker threads.
    const double t0 = now_s();
    search::AgingEvolution ae(space, {.population_size = 100,
                                      .sample_size = 10,
                                      .seed = method_seed});
    TimedMethod method(ae, spans);
    hpc::net::MasterOptions mo;
    mo.cluster = cluster;
    mo.checkpoint_path = ckpt;
    mo.checkpoint_every = kCheckpointEvery;
    mo.real_time_limit_seconds = 120.0;
    auto master = std::make_unique<hpc::net::NetMaster>(mo);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < workers; ++i) {
      threads.emplace_back([&evaluator, port = master->port(), i] {
        hpc::net::WorkerOptions wo;
        wo.port = port;
        wo.name = std::to_string(i);
        try {
          (void)hpc::net::run_worker(evaluator, wo);
        } catch (const std::exception&) {
          // Counted through workers_joined below.
        }
      });
    }
    c.setup = now_s() - t0;

    {
      const Scope span(spans, "search.campaign");
      const double t1 = now_s();
      const double cpu0 = process_cpu_s();
      try {
        c.result = master->run(method);
      } catch (...) {
        master.reset();
        for (std::thread& t : threads) t.join();
        throw;
      }
      c.cpu = process_cpu_s() - cpu0;
      c.wall = now_s() - t1;
    }
    master.reset();  // closes the listener before the join
    for (std::thread& t : threads) t.join();
    c.ask_s = method.ask_seconds();
    c.tell_s = method.tell_seconds();
    if (k < kLatencyCampaigns) c.latencies = method.latencies();
    std::error_code ec;
    c.checkpoint_bytes =
        static_cast<double>(std::filesystem::file_size(ckpt, ec));
    std::filesystem::remove(ckpt, ec);

    // The specification: the in-process simulator on the same config.
    search::AgingEvolution sim_method(space, {.population_size = 100,
                                              .sample_size = 10,
                                              .seed = method_seed});
    const double t2 = now_s();
    const hpc::SimResult sim =
        hpc::simulate_async(sim_method, surrogate, cluster);
    c.sim_wall = now_s() - t2;
    c.mismatch = compare_with_sim(c.result.sim, sim);
    c.evals = c.result.sim.evals.size();
    for (const hpc::CompletedEval& e : c.result.sim.evals) {
      c.best = std::max(c.best, e.reward);
    }
    // Keep only the failure counts: a fresh SimResult releases the
    // evaluation history (clearing would keep its capacity).
    hpc::SimResult kept;
    kept.failures = c.result.sim.failures;
    c.result.sim = std::move(kept);
    return c;
  };

  obs::MetricsRegistry registry;
  double overhead_pct = 0.0;
  double busy_base = 0.0;
  std::vector<Campaign> campaigns;
  if (opt.trace) {
    const Campaign plain = campaign(0);
    busy_base = evaluator.busy_seconds();
    obs::set_registry(&registry);
    spans.set_enabled(true);
    campaigns.push_back(campaign(0));
    overhead_pct = (campaigns.back().wall / plain.wall - 1.0) * 100.0;
  }
  // The traced run measures the one traced campaign; the untraced run
  // repeats campaigns with fresh seeds for the run time.
  const double start = now_s();
  for (std::size_t k = 0;
       !opt.trace && (campaigns.empty() || now_s() - start < opt.seconds);
       ++k) {
    campaigns.push_back(campaign(k));
  }
  obs::set_registry(nullptr);
  spans.set_enabled(false);

  std::vector<double> setup_s, latencies, items, seconds, cpu_seconds;
  double wall = 0.0, ask_s = 0.0, tell_s = 0.0, sim_s = 0.0;
  double ckpt_bytes = 0.0, checkpoints = 0.0;
  std::size_t evals = 0, failures = 0, joined = 0, deaths = 0, redispatch = 0;
  std::string mismatch;
  for (std::size_t k = 0; k < campaigns.size(); ++k) {
    const Campaign& c = campaigns[k];
    setup_s.push_back(c.setup);
    latencies.insert(latencies.end(), c.latencies.begin(), c.latencies.end());
    items.push_back(static_cast<double>(c.evals));
    seconds.push_back(c.wall);
    cpu_seconds.push_back(c.cpu);
    wall += c.wall;
    ask_s += c.ask_s;
    tell_s += c.tell_s;
    sim_s += c.sim_wall;
    ckpt_bytes += c.checkpoint_bytes;
    evals += c.evals;
    checkpoints += static_cast<double>(c.evals / kCheckpointEvery + 1);
    failures += c.result.sim.failures.total();
    joined += c.result.workers_joined;
    deaths += c.result.worker_deaths;
    redispatch += c.result.redispatches;
    if (!c.mismatch.empty() && mismatch.empty()) {
      mismatch = "campaign " + std::to_string(k) + ": " + c.mismatch;
    }
  }
  const double started = static_cast<double>(workers * campaigns.size());
  res.gates.check("net_matches_simulator", mismatch.empty(),
                  mismatch.empty() ? std::to_string(campaigns.size()) +
                                         " campaigns equal simulate_async"
                                   : mismatch);
  res.gates.check("workers_joined",
                  static_cast<double>(joined) == started && deaths == 0,
                  std::to_string(joined) + " joined of " +
                      std::to_string(workers * campaigns.size()) +
                      " started, " + std::to_string(deaths) + " died");
  res.gates.check("campaigns_not_paused",
                  std::none_of(campaigns.begin(), campaigns.end(),
                               [](const Campaign& c) {
                                 return c.result.stopped_early;
                               }),
                  "every campaign ran its full simulated wall time");

  const double best = campaigns.front().best;
  res.fields.nums("setup_s", setup_s);
  res.fields.nums("campaign_items", items);
  res.fields.nums("campaign_seconds", seconds);
  res.fields.nums("campaign_cpu_seconds", cpu_seconds);
  res.fields.nums("latency_s", latencies);
  res.fields.num("best_reward", best);
  res.fields.num("campaigns", static_cast<double>(campaigns.size()));
  res.fields.num("attempted", static_cast<double>(evals + failures));
  res.fields.num("failed", static_cast<double>(failures + deaths));

  if (opt.trace) {
    const auto counter = [&](const char* name) {
      return static_cast<double>(registry.counter(name).value());
    };
    const double n = static_cast<double>(std::max<std::size_t>(evals, 1));
    const double busy = evaluator.busy_seconds() - busy_base;
    res.layers.emplace_back("core.surrogate_evaluate_s", busy);
    res.layers.emplace_back(
        "hpc.net.frames_per_eval",
        (counter("net.frames_sent") + counter("net.frames_received")) / n);
    res.layers.emplace_back(
        "hpc.net.bytes_per_eval",
        (counter("net.bytes_sent") + counter("net.bytes_received")) / n);
    res.layers.emplace_back(
        "hpc.net.worker_idle_frac",
        1.0 - busy / (static_cast<double>(workers) * wall));
    res.layers.emplace_back("hpc.net.master_self_s", wall - ask_s - tell_s);
    res.layers.emplace_back("hpc.sim_s", sim_s);
    res.layers.emplace_back("io.checkpoints", checkpoints);
    res.layers.emplace_back("io.checkpoint_bytes", ckpt_bytes);
    res.layers.emplace_back("hpc.net.redispatches",
                            static_cast<double>(redispatch));
    res.layers.emplace_back("hpc.net.worker_deaths",
                            static_cast<double>(deaths));
    res.layers.emplace_back("search.ask_s", ask_s);
    res.layers.emplace_back("search.tell_s", tell_s);
    res.layers.emplace_back("obs.trace_overhead_pct", overhead_pct);
  }
  return res;
}

}  // namespace e2e
