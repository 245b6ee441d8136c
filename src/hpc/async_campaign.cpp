#include "hpc/async_campaign.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <stdexcept>

#include "hpc/theta.hpp"
#include "io/atomic_file.hpp"
#include "io/binary.hpp"

namespace geonas::hpc {

namespace {

constexpr char kCheckpointMagic[] = "GEONASNC";
constexpr std::uint32_t kCheckpointVersion = 1;
/// No campaign launches this many evaluations; a larger count in a
/// checkpoint is corruption, refused before anything is allocated.
constexpr std::uint64_t kMaxEvalCounter = 1ULL << 32;

/// The real-valued cluster config fields in checkpoint order, each with
/// the name a mismatch on resume is reported by.
std::array<std::pair<const char*, double>, 8> config_reals(
    const ClusterConfig& c) {
  const FailureModel& f = c.failures;
  return {{{"wall time", c.wall_time_seconds},
           {"coordinator service", c.coordinator_service},
           {"launch overhead", c.launch_overhead_mean},
           {"crash prob", f.crash_prob},
           {"restart penalty", f.restart_penalty_seconds},
           {"straggler prob", f.straggler_prob},
           {"straggler multiple", f.straggler_timeout_multiple},
           {"lost prob", f.lost_result_prob}}};
}

}  // namespace

FateDraw draw_fate(const FailureModel& model, Rng& rng) {
  FateDraw draw;
  if (model.crash_prob > 0.0 && rng.bernoulli(model.crash_prob)) {
    draw.fate = EvalFate::kCrashed;
    draw.crash_fraction = rng.uniform();
  } else if (model.straggler_prob > 0.0 &&
             rng.bernoulli(model.straggler_prob)) {
    draw.fate = EvalFate::kStraggler;
  } else if (model.lost_result_prob > 0.0 &&
             rng.bernoulli(model.lost_result_prob)) {
    draw.fate = EvalFate::kLost;
  }
  return draw;
}

BusySpan apply_fate(const FailureModel& model, const FateDraw& draw,
                    double start, double duration) {
  BusySpan span{start + duration, start + duration};
  if (draw.fate == EvalFate::kCrashed) {
    // The node dies a fraction into the evaluation and needs a restart
    // before it can request work again.
    span.busy_end = start + draw.crash_fraction * duration;
    span.resume_at = span.busy_end + model.restart_penalty_seconds;
  } else if (draw.fate == EvalFate::kStraggler) {
    // The evaluation hangs; the coordinator cuts it at the timeout
    // multiple and discards the partial result.
    span.busy_end = start + model.straggler_timeout_multiple * duration;
    span.resume_at = span.busy_end;
  }
  // kLost burns the full duration; the result never arrives.
  return span;
}

void count_fate(FailureCounts& counts, EvalFate fate) {
  switch (fate) {
    case EvalFate::kCrashed: ++counts.worker_crashes; break;
    case EvalFate::kStraggler: ++counts.stragglers_killed; break;
    case EvalFate::kLost: ++counts.lost_results; break;
    case EvalFate::kOk: break;
  }
}

AsyncCampaign::AsyncCampaign(const ClusterConfig& config,
                             search::SearchMethod& method)
    : config_(config),
      method_(&method),
      slots_(async_partition(config.nodes).workers),
      rng_(hash_combine(config.seed, 0xA51ULL)),
      tracker_(async_partition(config.nodes).total_nodes,
               config.wall_time_seconds) {}

void AsyncCampaign::start() {
  for (std::size_t slot = 0; slot < slots_; ++slot) launch(slot, 0.0);
}

void AsyncCampaign::launch(std::size_t slot, double request_time) {
  // Coordinator FIFO, then one exponential overhead draw, the wall check,
  // ask(), the seed counter and the fate draws: this order is the RNG
  // stream every campaign of a given seed replays.
  const double service_start = std::max(request_time, coordinator_free_);
  const double ask_done = service_start + config_.coordinator_service;
  coordinator_free_ = ask_done;
  const double overhead =
      config_.launch_overhead_mean > 0.0
          ? rng_.exponential(1.0 / config_.launch_overhead_mean)
          : 0.0;
  const double start = ask_done + overhead;
  if (start >= config_.wall_time_seconds) return;  // wall: the slot retires

  Launch l;
  l.seq = eval_counter_;
  l.slot = slot;
  l.start = start;
  l.arch = method_->ask();
  l.eval_seed = hash_combine(config_.seed, eval_counter_++);
  l.draw = draw_fate(config_.failures, rng_);
  in_flight_.emplace(l.start, l.seq);
  launches_.emplace(l.seq, std::move(l));
}

const AsyncCampaign::Launch* AsyncCampaign::find(std::uint64_t seq) const {
  const auto it = launches_.find(seq);
  return it == launches_.end() ? nullptr : &it->second;
}

bool AsyncCampaign::awaiting(std::uint64_t seq) const {
  const Launch* l = find(seq);
  return l != nullptr && !l->delivered;
}

void AsyncCampaign::deliver(std::uint64_t seq, const EvalOutcome& outcome) {
  const auto it = launches_.find(seq);
  if (it == launches_.end() || it->second.delivered) return;
  Launch& l = it->second;
  if (in_flight_.top().second == seq) in_flight_.pop();  // else dropped lazily
  l.delivered = true;
  l.outcome = outcome;
  l.span = apply_fate(config_.failures, l.draw, l.start,
                      outcome.duration_seconds);
  if (l.span.busy_end > config_.wall_time_seconds) {
    // The node was busy up to the wall (the tracker clips), but the
    // result is discarded and the slot retires. No RNG draw and no method
    // call, so this is safe out of pop order.
    tracker_.add_busy(l.start, l.span.busy_end);
    launches_.erase(it);
    return;
  }
  ready_.emplace(l.span.busy_end, seq);
}

bool AsyncCampaign::pop() {
  if (ready_.empty()) return false;
  while (!in_flight_.empty() && !awaiting(in_flight_.top().second)) {
    in_flight_.pop();
  }
  const auto [busy_end, seq] = ready_.top();
  if (!in_flight_.empty() && busy_end > in_flight_.top().first) {
    return false;  // an in-flight launch may still complete first
  }
  ready_.pop();
  auto node = launches_.extract(seq);
  const Launch& done = node.mapped();
  tracker_.add_busy(done.start, busy_end);
  if (done.draw.fate == EvalFate::kOk) {
    method_->tell(done.arch, done.outcome.reward);
    evals_.push_back({busy_end, done.outcome.reward,
                      done.outcome.duration_seconds, done.outcome.params,
                      done.arch.key()});
  } else {
    // Failed evaluations never reach tell(); only this slot is affected.
    count_fate(failures_, done.draw.fate);
  }
  launch(done.slot, done.span.resume_at);
  return true;
}

SimResult AsyncCampaign::take_result() {
  SimResult result;
  result.evals = std::move(evals_);
  evals_.clear();
  result.failures = failures_;
  result.utilization = tracker_.utilization_auc();
  result.busy_curve = tracker_.busy_fraction_curve(kBusyCurveDt);
  return result;
}

void AsyncCampaign::save(const std::string& path,
                         const TransportCounters& counters) const {
  io::atomic_write_file(
      path,
      [&](std::ostream& os) {
        io::BinaryWriter w(os, kCheckpointMagic, kCheckpointVersion);
        w.str(method_->name());
        w.u64(config_.nodes);
        for (const auto& [name, value] : config_reals(config_)) w.f64(value);
        w.u64(config_.seed);
        search::write_rng_state(w, rng_);
        w.f64(coordinator_free_);
        w.u64(eval_counter_);
        w.u64(evals_.size());
        for (const CompletedEval& e : evals_) {
          w.f64(e.completed_at);
          w.f64(e.reward);
          w.f64(e.duration);
          w.u64(e.params);
          w.str(e.arch_key);
        }
        w.u64(failures_.worker_crashes);
        w.u64(failures_.stragglers_killed);
        w.u64(failures_.lost_results);
        w.u64(counters.workers_joined);
        w.u64(counters.worker_deaths);
        w.u64(counters.redispatches);
        const auto& intervals = tracker_.intervals();
        w.u64(intervals.size());
        for (const auto& [s, e] : intervals) {
          w.f64(s);
          w.f64(e);
        }
        // Outcomes are not stored: every outstanding launch is evaluated
        // again after a resume.
        std::vector<std::uint64_t> seqs;  // written oldest first
        for (const auto& entry : launches_) seqs.push_back(entry.first);
        std::sort(seqs.begin(), seqs.end());
        w.u64(seqs.size());
        for (const std::uint64_t seq : seqs) {
          const Launch& l = launches_.at(seq);
          w.u64(seq);
          w.u64(l.slot);
          w.f64(l.start);
          w.u64(l.eval_seed);
          w.u8(static_cast<std::uint8_t>(l.draw.fate));
          w.f64(l.draw.crash_fraction);
          search::write_architecture(w, l.arch);
        }
        method_->save(w);
        w.finish();
      },
      "net_master_checkpoint");
}

TransportCounters AsyncCampaign::resume(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("campaign checkpoint '" + path +
                             "' cannot be opened for resume");
  }
  const auto require = [&path](bool ok, const std::string& what) {
    if (!ok) {
      throw std::runtime_error("campaign checkpoint '" + path +
                               "' does not match this campaign (" + what +
                               " differs) — refusing to resume");
    }
  };
  const auto malformed = [&path](const std::string& what) {
    return std::runtime_error("campaign checkpoint '" + path + "': " + what);
  };
  io::BinaryReader r(in, kCheckpointMagic, kCheckpointVersion,
                     kCheckpointVersion);
  require(r.str("method") == method_->name(), "search method");
  require(r.u64("nodes") == config_.nodes, "nodes");
  for (const auto& [name, value] : config_reals(config_)) {
    require(r.f64(name) == value, name);
  }
  require(r.u64("seed") == config_.seed, "seed");
  search::read_rng_state(r, rng_);
  coordinator_free_ = r.f64("coordinator_free");
  eval_counter_ = r.u64("eval_counter");
  if (eval_counter_ > kMaxEvalCounter) {
    throw malformed("implausible eval counter " +
                    std::to_string(eval_counter_));
  }
  // Every count below is bounded by what the campaign could have made:
  // one completion and at most one busy interval per launch, at most one
  // outstanding launch per worker slot.
  const std::uint64_t n_evals = r.u64("evals");
  if (n_evals > eval_counter_) {
    throw malformed("implausible completed-evaluation count " +
                    std::to_string(n_evals));
  }
  evals_.clear();
  for (std::uint64_t i = 0; i < n_evals; ++i) {
    CompletedEval e;
    e.completed_at = r.f64("completed_at");
    e.reward = r.f64("reward");
    e.duration = r.f64("duration");
    e.params = static_cast<std::size_t>(r.u64("params"));
    e.arch_key = r.str("arch_key");
    evals_.push_back(std::move(e));
  }
  failures_.worker_crashes = static_cast<std::size_t>(r.u64("worker_crashes"));
  failures_.stragglers_killed =
      static_cast<std::size_t>(r.u64("stragglers_killed"));
  failures_.lost_results = static_cast<std::size_t>(r.u64("lost_results"));
  TransportCounters counters;
  counters.workers_joined = static_cast<std::size_t>(r.u64("workers_joined"));
  counters.worker_deaths = static_cast<std::size_t>(r.u64("worker_deaths"));
  counters.redispatches = static_cast<std::size_t>(r.u64("redispatches"));
  const std::uint64_t n_intervals = r.u64("intervals");
  if (n_intervals > eval_counter_) {
    throw malformed("implausible busy-interval count " +
                    std::to_string(n_intervals));
  }
  std::vector<std::pair<double, double>> intervals;
  for (std::uint64_t i = 0; i < n_intervals; ++i) {
    const double s = r.f64("interval_start");
    const double e = r.f64("interval_end");
    // What add_busy records; the utilization sum relies on it.
    if (!(0.0 <= s && s < e && e <= config_.wall_time_seconds)) {
      throw malformed("busy interval " + std::to_string(i) +
                      " outside [0, wall]");
    }
    intervals.emplace_back(s, e);
  }
  tracker_.restore_intervals(std::move(intervals));
  const std::uint64_t n_outstanding = r.u64("outstanding");
  if (n_outstanding > slots_) {
    throw malformed("implausible outstanding-launch count " +
                    std::to_string(n_outstanding));
  }
  launches_.clear();
  ready_ = {};
  in_flight_ = {};
  for (std::uint64_t i = 0; i < n_outstanding; ++i) {
    Launch l;
    l.seq = r.u64("seq");
    if (l.seq >= eval_counter_ || launches_.count(l.seq) != 0) {
      throw malformed("outstanding launch seq " + std::to_string(l.seq) +
                      " out of range or repeated");
    }
    l.slot = static_cast<std::size_t>(r.u64("slot"));
    if (l.slot >= slots_) {
      throw malformed("outstanding launch slot " + std::to_string(l.slot) +
                      " out of range");
    }
    l.start = r.f64("start");
    l.eval_seed = r.u64("eval_seed");
    const std::uint8_t fate = r.u8("fate");
    if (fate > static_cast<std::uint8_t>(EvalFate::kLost)) {
      throw malformed("fate byte " + std::to_string(fate) +
                      " out of range in outstanding launch seq " +
                      std::to_string(l.seq));
    }
    l.draw.fate = static_cast<EvalFate>(fate);
    l.draw.crash_fraction = r.f64("crash_fraction");
    l.arch = search::read_architecture(r);
    in_flight_.emplace(l.start, l.seq);
    launches_.emplace(l.seq, std::move(l));
  }
  method_->load(r);
  r.finish();
  return counters;
}

}  // namespace geonas::hpc
