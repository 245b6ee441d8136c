// Shared pieces of the end-to-end benchmark: run options, seed
// derivation, the span log, timing decorators around the library's
// public interfaces, and a minimal JSON writer for the raw result file.
//
// Everything here sits outside src/: layers are measured from the
// outside, around the public calls the workloads make.
#pragma once

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hpc/evaluator.hpp"
#include "obs/metrics.hpp"
#include "search/search_method.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;   // raw result JSON
  std::string work_dir;   // scratch directory (checkpoints)
};

/// SplitMix64 finalizer: derives independent, well-mixed 64-bit seeds
/// from the run seed and a per-purpose stream id.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

[[nodiscard]] inline double now_s() { return geonas::obs::monotonic_seconds(); }

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// CPU time (user + system) used so far by the whole process, in
/// seconds. Time the host steals from this machine, and time spent
/// blocked, do not count.
[[nodiscard]] double process_cpu_s();
/// User-mode CPU time only (no system calls), process and thread.
[[nodiscard]] double process_user_s();
[[nodiscard]] double thread_user_s();

/// Confines the calling thread, and every thread it starts while the
/// guard lives, to `count` of the CPUs it may run on, starting at the
/// `first`-th of them (from the end when `first` is negative: -1 is the
/// last); restores the thread's previous CPU set on destruction.
class PinnedCpus {
 public:
  PinnedCpus(int first, int count);
  ~PinnedCpus();
  PinnedCpus(const PinnedCpus&) = delete;
  PinnedCpus& operator=(const PinnedCpus&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// ---------------------------------------------------------------------
// Span log: name, start, end, parent, thread. A span's parent is the
// span open on the same thread when it started. Kept in memory and
// written out when the run ends. Only the traced run records spans.

struct Span {
  const char* name;
  double start;
  double end;
  std::int64_t parent;  // index into the log, -1 for a root span
  std::uint32_t thread;
};

class SpanLog {
 public:
  /// Opens a span and returns its id (-1 while disabled).
  std::int64_t open(const char* name);
  /// Closes the innermost span open on this thread, `id`.
  void close(std::int64_t id);
  /// Records a finished span in one call.
  void add(const char* name, double start, double end);

  void set_enabled(bool on) { enabled_ = on; }

  /// Total duration of closed spans with this name.
  [[nodiscard]] double total(std::string_view name) const;
  /// Writes one JSON object per line.
  void write(const std::string& path) const;

 private:
  static std::uint32_t thread_index();
  /// Ids of the spans open on the calling thread, innermost last.
  static std::vector<std::int64_t>& open_stack();
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::deque<Span> spans_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int64_t id_;
};

// ---------------------------------------------------------------------
// Decorators. They forward every call unchanged, so the decorated
// object behaves exactly like the inner one (checkpoint identity
// included), and record from the outside what the call cost.

/// Times ask() and tell() and measures each evaluation's latency as the
/// search sees it: from ask() returning an architecture to tell()
/// receiving its reward (matched by architecture key, oldest first).
class TimedMethod final : public geonas::search::SearchMethod {
 public:
  TimedMethod(geonas::search::SearchMethod& inner, SpanLog& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] geonas::searchspace::Architecture ask() override;
  void tell(const geonas::searchspace::Architecture& arch,
            double reward) override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool checkpointable() const override {
    return inner_.checkpointable();
  }
  void save(geonas::io::BinaryWriter& writer) const override {
    inner_.save(writer);
  }
  void load(geonas::io::BinaryReader& reader) override { inner_.load(reader); }

  /// Ask-to-tell latency of every evaluation told so far, in seconds.
  [[nodiscard]] const std::vector<double>& latencies() const {
    return latencies_;
  }
  [[nodiscard]] double ask_seconds() const { return ask_s_; }
  [[nodiscard]] double tell_seconds() const { return tell_s_; }

 private:
  geonas::search::SearchMethod& inner_;
  SpanLog& spans_;
  std::map<std::string, std::deque<double>> asked_at_;
  std::vector<double> latencies_;
  double ask_s_ = 0.0;
  double tell_s_ = 0.0;
};

/// Times evaluate(); safe to share across threads when the inner
/// evaluator is.
class TimedEvaluator final : public geonas::hpc::ArchitectureEvaluator {
 public:
  TimedEvaluator(geonas::hpc::ArchitectureEvaluator& inner, SpanLog& spans,
                 const char* span_name)
      : inner_(inner), spans_(spans), span_name_(span_name) {}

  [[nodiscard]] geonas::hpc::EvalOutcome evaluate(
      const geonas::searchspace::Architecture& arch,
      std::uint64_t eval_seed) override;
  [[nodiscard]] bool thread_safe() const override {
    return inner_.thread_safe();
  }

  [[nodiscard]] double busy_seconds() const {
    return static_cast<double>(busy_ns_.load()) * 1e-9;
  }
  [[nodiscard]] std::size_t calls() const { return calls_.load(); }
  [[nodiscard]] std::size_t failed() const { return failed_.load(); }
  /// Parameters x calls, summed (feeds the computed FLOP count).
  [[nodiscard]] double params_evaluated() const {
    return static_cast<double>(params_.load());
  }

 private:
  geonas::hpc::ArchitectureEvaluator& inner_;
  SpanLog& spans_;
  const char* span_name_;
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::size_t> calls_{0};
  std::atomic<std::size_t> failed_{0};
  std::atomic<std::uint64_t> params_{0};
};

// ---------------------------------------------------------------------
// Raw result file: a flat JSON object built key by key.

class JsonOut {
 public:
  void num(const std::string& key, double value);
  void str(const std::string& key, const std::string& value);
  void boolean(const std::string& key, bool value);
  void nums(const std::string& key, const std::vector<double>& values);
  /// A pre-rendered JSON value (object or array).
  void raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string render() const;

  [[nodiscard]] static std::string quote(const std::string& s);
  [[nodiscard]] static std::string number(double v);

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Named pass/fail checks of a workload's outputs.
class Gates {
 public:
  void check(const std::string& name, bool ok, const std::string& detail);
  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] std::string json() const;

 private:
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Gate> gates_;
};

/// Per-layer values of a traced run, in insertion order.
using Layers = std::vector<std::pair<std::string, double>>;
[[nodiscard]] std::string layers_json(const Layers& layers);

/// Result of one workload run, handed to main() for serialization.
struct Result {
  Gates gates;
  JsonOut fields;
  Layers layers;
};

Result run_campaign_train(const Options& opt, SpanLog& spans);
Result run_serve_openloop(const Options& opt, SpanLog& spans);
Result run_campaign_net(const Options& opt, SpanLog& spans);

}  // namespace e2e
