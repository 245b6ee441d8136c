// AsyncCampaign: the virtual-time state machine of an asynchronous (AE,
// RS) campaign, shared by simulate_async and net::NetMaster.
//
// Each worker slot of the async partition cycles: request -> coordinator
// FIFO -> exponential launch overhead -> evaluate -> report -> request.
// The core owns every decision in that cycle (the RNG and its draw order,
// the coordinator clock, the eval counter, the failure fates, ask/tell,
// the busy intervals) but never evaluates: a driver has each new launch
// (seqs [its cursor, launched())) evaluated somewhere and deliver()s the
// outcome. simulate_async evaluates inline at once; NetMaster ships the
// launch to a remote worker and delivers results in whatever order they
// arrive.
//
// pop() takes the delivered launch with the least (busy_end, seq), but
// only once its busy_end does not exceed the earliest start among
// launches still in flight: an evaluation cannot finish before it starts.
// So both drivers tell the search method the same completions in the
// same order, ties included: the socket transport equals the simulator by
// construction. Checkpoints ("GEONASNC" v1) hold the whole state.
//
// Thread-safety: none; one driver thread owns an instance.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hpc/cluster_sim.hpp"
#include "hpc/utilization.hpp"
#include "search/search_method.hpp"
#include "tensor/random.hpp"

namespace geonas::hpc {

/// Spacing of SimResult::busy_curve samples (simulated seconds).
inline constexpr double kBusyCurveDt = 60.0;

/// What becomes of one launched evaluation under the failure model. The
/// values are stored in GEONASNC checkpoints.
enum class EvalFate : std::uint8_t {
  kOk = 0,
  kCrashed = 1,
  kStraggler = 2,
  kLost = 3,
};

/// The launch-time half of the failure model: the fate and, for a crash,
/// the uniform fraction of the evaluation after which the node dies.
struct FateDraw {
  EvalFate fate = EvalFate::kOk;
  double crash_fraction = 0.0;
};

/// Draws a fate. Every probability is guarded, so a zero-rate model
/// consumes no RNG draws at all and failure-free campaigns keep the
/// pre-failure-model trajectories bit for bit.
[[nodiscard]] FateDraw draw_fate(const FailureModel& model, Rng& rng);

/// When a launched node frees up (completion, crash or straggler cut) and
/// when its worker may request again.
struct BusySpan {
  double busy_end = 0.0;
  double resume_at = 0.0;
};

/// The apply half: the busy span of an evaluation that started at `start`
/// and takes `duration` seconds, under the drawn fate.
[[nodiscard]] BusySpan apply_fate(const FailureModel& model,
                                  const FateDraw& draw, double start,
                                  double duration);

/// Adds a failed fate to the tallies (kOk adds nothing).
void count_fate(FailureCounts& counts, EvalFate fate);

/// Counters a transport keeps across a checkpoint; the core stores them
/// in their slot of the GEONASNC layout without interpreting them.
struct TransportCounters {
  std::size_t workers_joined = 0;
  std::size_t worker_deaths = 0;
  std::size_t redispatches = 0;
};

class AsyncCampaign {
 public:
  /// One launched evaluation whose outcome may still be in flight.
  struct Launch {
    std::uint64_t seq = 0;   // == the eval counter at launch
    std::size_t slot = 0;    // worker slot of the partition
    double start = 0.0;      // virtual start time
    std::uint64_t eval_seed = 0;
    FateDraw draw;
    searchspace::Architecture arch;

    bool delivered = false;
    EvalOutcome outcome;  // valid once delivered
    BusySpan span;        // valid once delivered
  };

  /// A campaign on `config`'s async partition that asks and tells
  /// `method`. Nothing is launched until start() or resume().
  AsyncCampaign(const ClusterConfig& config, search::SearchMethod& method);

  /// Launches every worker slot at t = 0.
  void start();

  /// Number of launches made so far; launches carry seqs 0..launched()-1,
  /// so the ones a driver has not yet evaluated are [its cursor,
  /// launched()).
  [[nodiscard]] std::uint64_t launched() const noexcept {
    return eval_counter_;
  }
  /// The outstanding launch `seq`, or nullptr once it has been popped or
  /// discarded.
  [[nodiscard]] const Launch* find(std::uint64_t seq) const;
  /// True while `seq` is outstanding and its outcome is not yet known.
  [[nodiscard]] bool awaiting(std::uint64_t seq) const;

  /// Records `seq`'s outcome. Unknown seqs and duplicates (a re-dispatched
  /// evaluation answered twice) are ignored: evaluation is deterministic,
  /// so both answers are the same.
  void deliver(std::uint64_t seq, const EvalOutcome& outcome);

  /// Tells the search method the next completion, if it is admissible,
  /// and launches that slot's next evaluation. Returns false when no pop
  /// is admissible yet (or nothing is outstanding).
  bool pop();

  /// No launch is outstanding: the campaign has reached its wall.
  [[nodiscard]] bool finished() const noexcept { return launches_.empty(); }
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return launches_.size();
  }
  [[nodiscard]] std::size_t completed() const noexcept {
    return evals_.size();
  }

  /// The campaign result so far; moves the evaluation history out.
  [[nodiscard]] SimResult take_result();

  /// Writes a GEONASNC checkpoint atomically to `path`.
  void save(const std::string& path, const TransportCounters& counters) const;
  /// Restores a checkpoint written by save() for the same method and
  /// cluster config; throws std::runtime_error naming the first field
  /// that differs or is malformed. Returns the stored transport counters.
  TransportCounters resume(const std::string& path);

 private:
  void launch(std::size_t slot, double request_time);

  ClusterConfig config_;
  search::SearchMethod* method_;
  std::size_t slots_;
  Rng rng_;
  double coordinator_free_ = 0.0;
  std::uint64_t eval_counter_ = 0;
  UtilizationTracker tracker_;
  std::vector<CompletedEval> evals_;
  FailureCounts failures_;

  std::unordered_map<std::uint64_t, Launch> launches_;
  // Pop indexes, least key on top: delivered launches by (busy_end, seq),
  // in-flight ones by (start, seq). A delivered launch's in-flight entry
  // is dropped lazily once it reaches the top.
  using Key = std::pair<double, std::uint64_t>;
  using MinHeap = std::priority_queue<Key, std::vector<Key>, std::greater<>>;
  MinHeap ready_;
  MinHeap in_flight_;
};

}  // namespace geonas::hpc
