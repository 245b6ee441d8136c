#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>

namespace e2e {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

rusage usage_of(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return usage;
}

}  // namespace

double peak_rss_mb() {
  return static_cast<double>(usage_of(RUSAGE_SELF).ru_maxrss) /
         1024.0;  // KiB on Linux
}

double process_cpu_s() {
  const rusage u = usage_of(RUSAGE_SELF);
  return seconds(u.ru_utime) + seconds(u.ru_stime);
}

double process_user_s() { return seconds(usage_of(RUSAGE_SELF).ru_utime); }

double thread_user_s() { return seconds(usage_of(RUSAGE_THREAD).ru_utime); }

PinnedCpus::PinnedCpus(int first, int count) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) allowed.push_back(c);
  }
  const int n = static_cast<int>(allowed.size());
  const int begin = first < 0 ? n + first : first;
  if (begin < 0 || count < 1 || begin + count > n) return;
  cpu_set_t want;
  CPU_ZERO(&want);
  for (int i = begin; i < begin + count; ++i) {
    CPU_SET(allowed[static_cast<std::size_t>(i)], &want);
  }
  pinned_ = sched_setaffinity(0, sizeof want, &want) == 0;
}

PinnedCpus::~PinnedCpus() {
  if (pinned_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
}

// ---------------------------------------------------------------------

std::uint32_t SpanLog::thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

std::vector<std::int64_t>& SpanLog::open_stack() {
  thread_local std::vector<std::int64_t> stack;
  return stack;
}

std::int64_t SpanLog::open(const char* name) {
  if (!enabled_) return -1;
  std::vector<std::int64_t>& stack = open_stack();
  const std::int64_t parent = stack.empty() ? -1 : stack.back();
  const double t = now_s();
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, t, -1.0, parent, thread_index()});
    id = static_cast<std::int64_t>(spans_.size()) - 1;
  }
  stack.push_back(id);
  return id;
}

void SpanLog::close(std::int64_t id) {
  if (id < 0) return;
  const double t = now_s();
  open_stack().pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

void SpanLog::add(const char* name, double start, double end) {
  if (!enabled_) return;
  const std::vector<std::int64_t>& stack = open_stack();
  const std::int64_t parent = stack.empty() ? -1 : stack.back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, parent, thread_index()});
}

double SpanLog::total(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.end >= 0.0 && name == s.name) sum += s.end - s.start;
  }
  return sum;
}

void SpanLog::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":" << JsonOut::quote(s.name)
        << ",\"start\":" << JsonOut::number(s.start)
        << ",\"end\":" << JsonOut::number(s.end) << ",\"parent\":" << s.parent
        << ",\"thread\":" << s.thread << "}\n";
  }
}

// ---------------------------------------------------------------------

geonas::searchspace::Architecture TimedMethod::ask() {
  const Scope span(spans_, "search.ask");
  const double t0 = now_s();
  geonas::searchspace::Architecture arch = inner_.ask();
  const double t1 = now_s();
  ask_s_ += t1 - t0;
  asked_at_[arch.key()].push_back(t1);
  return arch;
}

void TimedMethod::tell(const geonas::searchspace::Architecture& arch,
                       double reward) {
  const double t0 = now_s();
  auto it = asked_at_.find(arch.key());
  if (it != asked_at_.end() && !it->second.empty()) {
    latencies_.push_back(t0 - it->second.front());
    it->second.pop_front();
  }
  {
    const Scope span(spans_, "search.tell");
    inner_.tell(arch, reward);
  }
  tell_s_ += now_s() - t0;
}

geonas::hpc::EvalOutcome TimedEvaluator::evaluate(
    const geonas::searchspace::Architecture& arch, std::uint64_t eval_seed) {
  const Scope span(spans_, span_name_);
  const double t0 = now_s();
  geonas::hpc::EvalOutcome out = inner_.evaluate(arch, eval_seed);
  busy_ns_.fetch_add(static_cast<std::uint64_t>((now_s() - t0) * 1e9));
  calls_.fetch_add(1);
  params_.fetch_add(out.params);
  if (out.failed || !std::isfinite(out.reward)) failed_.fetch_add(1);
  return out;
}

// ---------------------------------------------------------------------

std::string JsonOut::quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonOut::number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void JsonOut::num(const std::string& key, double value) {
  fields_.emplace_back(key, number(value));
}

void JsonOut::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quote(value));
}

void JsonOut::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}

void JsonOut::nums(const std::string& key, const std::vector<double>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) s += ',';
    s += number(values[i]);
  }
  fields_.emplace_back(key, s + "]");
}

void JsonOut::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

std::string JsonOut::render() const {
  std::string s = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) s += ",\n";
    s += quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return s + "}";
}

void Gates::check(const std::string& name, bool ok,
                  const std::string& detail) {
  gates_.push_back({name, ok, detail});
  std::fprintf(stderr, "gate %-28s %s  %s\n", name.c_str(),
               ok ? "PASS" : "FAIL", detail.c_str());
}

bool Gates::all_ok() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const Gate& g) { return g.ok; });
}

std::string Gates::json() const {
  std::string s = "[";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (i > 0) s += ',';
    s += "{\"name\":" + JsonOut::quote(gates_[i].name) +
         ",\"ok\":" + (gates_[i].ok ? "true" : "false") +
         ",\"detail\":" + JsonOut::quote(gates_[i].detail) + "}";
  }
  return s + "]";
}

std::string layers_json(const Layers& layers) {
  std::string s = "{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i > 0) s += ',';
    s += JsonOut::quote(layers[i].first) + ":" +
         JsonOut::number(layers[i].second);
  }
  return s + "}";
}

}  // namespace e2e
