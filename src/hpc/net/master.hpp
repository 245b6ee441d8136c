// NetMaster: the real multi-process campaign coordinator.
//
// The campaign itself is an hpc::AsyncCampaign (hpc/async_campaign.hpp),
// the same virtual-time core simulate_async drives: it owns the RNG, the
// coordinator clock, the failure fates, ask/tell and the pop order. The
// master is only its transport. Each launch the core makes is shipped as
// a task frame to any idle remote worker; each result frame is delivered
// back to the core, which pops completions once they are admissible.
// Remote workers are pure function evaluators — evaluate(arch, eval_seed)
// is deterministic — so WHEN results arrive and WHICH worker computed them
// cannot change the trajectory: a campaign over TCP equals simulate_async
// with the same ClusterConfig by construction, ties included.
//
// Worker death is therefore trivially safe: a connection that dies with
// an assigned task gets its task re-dispatched to any other worker —
// deterministic evaluation means the retry is bitwise the original.
// Elastic join/leave only changes real wall time, never the trajectory.
//
// Campaign checkpoints (magic "GEONASNC") hold the core's whole state plus
// the master's join/death/re-dispatch counters, so a SIGKILLed or paused
// campaign resumes to the bitwise-identical final result.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "hpc/cluster_sim.hpp"
#include "search/search_method.hpp"

namespace geonas::hpc::net {

struct MasterOptions {
  ClusterConfig cluster;
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back via NetMaster::port().
  std::uint16_t port = 0;

  /// Campaign checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Rewrite the checkpoint every N completed evaluations (0 = only at
  /// stop/completion).
  std::size_t checkpoint_every = 0;
  /// Load checkpoint_path before starting (validates method + config).
  bool resume = false;

  /// Pause the campaign after this many completed evaluations: write a
  /// checkpoint, shut workers down, and return with stopped_early set.
  /// 0 = run the full simulated wall time. The pause point is a
  /// deterministic function of the campaign config — the hook the
  /// resume tests are built on.
  std::size_t stop_after_evaluations = 0;

  /// Abort (throw) when the campaign exceeds this much real wall-clock
  /// time — a hang guard for tests. 0 = unlimited.
  double real_time_limit_seconds = 0.0;
  /// Send a liveness heartbeat to every idle worker this often (real
  /// seconds).
  double heartbeat_seconds = 5.0;
  int poll_timeout_ms = 50;
};

struct MasterResult {
  SimResult sim;                    // the oracle-comparable campaign result
  std::size_t workers_joined = 0;   // hello handshakes completed
  std::size_t worker_deaths = 0;    // joined connections that died
  std::size_t redispatches = 0;     // tasks reassigned after a death
  bool stopped_early = false;       // stop_after_evaluations/request_stop
};

class NetMaster {
 public:
  /// Binds the listener immediately (so port() is valid before run()).
  explicit NetMaster(MasterOptions options);
  ~NetMaster();
  NetMaster(const NetMaster&) = delete;
  NetMaster& operator=(const NetMaster&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Drives the campaign to completion (or pause). Blocks; single
  /// caller. Throws on configuration errors, checkpoint mismatches, or
  /// the real-time limit.
  [[nodiscard]] MasterResult run(search::SearchMethod& method);

  /// Asks a running campaign to pause at the next deterministic point
  /// (checkpoint + worker shutdown). Safe from any thread.
  void request_stop() noexcept { stop_requested_.store(true); }

  /// Completed evaluations so far. Safe from any thread (the kill tests
  /// watch this to time their SIGKILL mid-campaign).
  [[nodiscard]] std::uint64_t evaluations_completed() const noexcept {
    return evals_completed_.load();
  }

 private:
  struct Impl;
  Impl* impl_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> evals_completed_{0};
};

}  // namespace geonas::hpc::net
