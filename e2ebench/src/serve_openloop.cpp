// serve_openloop: a ServeEngine under seeded Poisson open-loop load.
//
// The served model is the Table-II shape (LSTM(5,16) -> LSTM(16,5),
// K = 8 steps, Nr = 5 modes) with seeded initial weights, frozen into a
// FrozenPlan with max_batch 32. One generator thread (the main thread)
// submits each request when it is due, whatever the engine is doing; one
// collector thread waits for the forecasts in submission order and
// stamps their completion. The engine gets the remaining hardware
// threads as serving streams, each with an inline kernel shard; every
// one of these threads has a CPU of its own.
//
// Each request is timed from when it was due, so a stall also charges
// the requests queued behind it, and the generator's own lateness is
// recorded as the validity figure. Three fixed rates run one after the
// other: `low` (batches of mostly one), `mid`, and `high` (below the
// engine's saturation point on a 4-CPU host).
#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "nn/graph.hpp"
#include "nn/lstm.hpp"
#include "serve/engine.hpp"
#include "serve/frozen_plan.hpp"
#include "tensor/random.hpp"

namespace e2e {
namespace {

using namespace geonas;

constexpr std::size_t kSteps = 8;
constexpr std::size_t kModes = 5;
constexpr std::size_t kHidden = 16;
constexpr std::size_t kMaxBatch = 32;
constexpr std::size_t kWindows = 256;     // distinct request inputs
// Engine start-ups per run. The first ten or so of a process are slower
// while its heap and code pages warm up; with 101 the median lies well
// past them.
constexpr std::size_t kSetups = 101;
constexpr std::size_t kWarmup = 4000;     // unrecorded requests
constexpr double kMaxDelay = 0.0;         // batch-fill wait (s)

struct Rate {
  const char* name;
  double per_s;
};
constexpr Rate kRates[] = {{"low", 1000.0}, {"mid", 8000.0},
                           {"high", 24000.0}};

nn::GraphNetwork table2_net(std::uint64_t seed) {
  nn::GraphNetwork net;
  const std::size_t l1 =
      net.add_node(std::make_unique<nn::LSTM>(kModes, kHidden),
                   {nn::GraphNetwork::input_id()});
  net.add_node(std::make_unique<nn::LSTM>(kHidden, kModes), {l1});
  net.init_params(seed);
  return net;
}

std::size_t serve_streams() {
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  return cpus > 3 ? cpus - 2 : 1;
}

struct Phase {
  std::string name;
  double rate = 0.0;
  std::vector<double> due;      // s, from the phase start
  std::vector<double> latency;  // s, completion - due; inf when refused
  std::vector<double> sent;     // s, from the phase start: submit() call
  double submit_s = 0.0;        // time spent inside submit()
  // User-mode CPU of the process minus the generator and collector
  // threads: what the engine's streams spent.
  double engine_user_s = 0.0;
  std::size_t refused = 0;
  std::size_t mismatched = 0;
};

/// Runs one open-loop phase: `count` requests with exponential gaps.
Phase run_phase(serve::ServeEngine& engine, const Rate& rate,
                double seconds, std::uint64_t seed,
                const std::vector<std::vector<double>>& windows,
                const std::vector<serve::Forecast>& expected, SpanLog& spans) {
  Phase ph;
  ph.name = rate.name;
  ph.rate = rate.per_s;
  Rng rng(seed);
  for (double t = rng.exponential(rate.per_s); t < seconds;
       t += rng.exponential(rate.per_s)) {
    ph.due.push_back(t);
  }
  const std::size_t n = ph.due.size();
  std::vector<std::size_t> which(n);
  for (std::size_t& w : which) w = rng.uniform_index(windows.size());
  ph.latency.assign(n, 0.0);
  ph.sent.assign(n, 0.0);

  struct Pending {
    std::size_t index;
    std::future<serve::Forecast> forecast;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool done = false;
  double t0 = 0.0;

  double collector_user = 0.0;
  std::thread collector([&] {
    const PinnedCpus collector_cpu(-2, 1);
    const double user0 = thread_user_s();
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || done; });
        if (pending.empty()) break;
        p = std::move(pending.front());
        pending.pop_front();
      }
      const serve::Forecast f = p.forecast.get();
      const double t_done = now_s();
      const double due = t0 + ph.due[p.index];
      ph.latency[p.index] = t_done - due;
      spans.add("serve.request", due, t_done);
      const serve::Forecast& want = expected[which[p.index]];
      if (f.size() != want.size() ||
          std::memcmp(f.data(), want.data(), f.size() * sizeof(double)) !=
              0) {
        ++ph.mismatched;
      }
    }
    collector_user = thread_user_s() - user0;
  });

  const PinnedCpus generator_cpu(-1, 1);
  const double process_user0 = process_user_s();
  const double generator_user0 = thread_user_s();
  t0 = now_s() + 0.002;
  for (std::size_t i = 0; i < n; ++i) {
    const double due = t0 + ph.due[i];
    for (double now = now_s(); now < due; now = now_s()) {
      if (due - now > 300e-6) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(due - now - 200e-6));
      }
    }
    const double sent = now_s();
    ph.sent[i] = sent - t0;
    try {
      std::future<serve::Forecast> f = engine.submit(windows[which[i]]);
      const double back = now_s();
      ph.submit_s += back - sent;
      spans.add("serve.submit", sent, back);
      {
        const std::lock_guard<std::mutex> lock(mu);
        pending.push_back({i, std::move(f)});
      }
      cv.notify_one();
    } catch (const std::exception&) {
      ++ph.refused;
      ph.latency[i] = std::numeric_limits<double>::infinity();
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  const double generator_user = thread_user_s() - generator_user0;
  collector.join();
  ph.engine_user_s =
      process_user_s() - process_user0 - generator_user - collector_user;
  return ph;
}

std::string phases_json(const std::vector<Phase>& phases) {
  std::string s = "[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    JsonOut o;
    o.str("name", p.name);
    o.num("rate", p.rate);
    o.nums("due", p.due);
    o.nums("latency", p.latency);
    o.nums("sent", p.sent);
    o.num("submit_s", p.submit_s);
    o.num("engine_user_s", p.engine_user_s);
    o.num("refused", static_cast<double>(p.refused));
    o.num("mismatched", static_cast<double>(p.mismatched));
    if (i > 0) s += ",\n";
    s += o.render();
  }
  return s + "]";
}

}  // namespace

Result run_serve_openloop(const Options& opt, SpanLog& spans) {
  Result res;
  const std::uint64_t weight_seed = mix_seed(opt.seed, 1);
  const serve::ServeConfig cfg{.streams = serve_streams(),
                               .max_delay_seconds = kMaxDelay,
                               .queue_capacity = 1024,
                               .shard_threads = 1};

  const auto start_engine = [&] {
    nn::GraphNetwork net = table2_net(weight_seed);
    return std::make_unique<serve::ServeEngine>(
        serve::FrozenPlan::compile(net, kSteps, kMaxBatch), cfg);
  };

  // Set-up: build the model, freeze it, start the engine; several times,
  // on one CPU. Spread over idle CPUs, each start-up's thread creation
  // and teardown waited on CPU wake-ups, and the median moved threefold
  // between runs on a virtual machine.
  std::vector<double> setup_s;
  std::unique_ptr<serve::ServeEngine> engine;
  {
    const PinnedCpus one_cpu(-1, 1);
    for (std::size_t i = 0; i < kSetups; ++i) {
      engine.reset();
      const double t0 = now_s();
      engine = start_engine();
      setup_s.push_back(now_s() - t0);
    }
    engine.reset();
  }
  // The serving engine's streams run on the first CPUs; run_phase puts
  // the collector and the generator on one each of the last two. Left to
  // the scheduler, a stream sometimes shared a CPU's time with the
  // spinning generator and its CPU time per request moved by 25 %.
  const auto serving_engine = [&] {
    const PinnedCpus stream_cpus(0, static_cast<int>(cfg.streams));
    return start_engine();
  };
  engine = serving_engine();

  // Inputs and the reference: each window's forecast run alone through
  // a separate batch-1 plan of the same weights.
  Rng rng(mix_seed(opt.seed, 2));
  std::vector<std::vector<double>> windows(kWindows);
  for (auto& w : windows) {
    w.resize(kSteps * kModes);
    for (double& v : w) v = rng.uniform(-2.0, 2.0);
  }
  std::vector<serve::Forecast> expected;
  {
    nn::GraphNetwork net = table2_net(weight_seed);
    serve::FrozenPlan alone = serve::FrozenPlan::compile(net, kSteps, 1);
    Tensor3 x(1, kSteps, kModes);
    for (const auto& w : windows) {
      std::copy(w.begin(), w.end(), x.flat().begin());
      const Tensor3& y = alone.run(x);
      expected.emplace_back(y.flat().begin(), y.flat().end());
    }
  }

  // Warm-up flood, unrecorded.
  {
    std::vector<std::future<serve::Forecast>> warm;
    warm.reserve(kWarmup);
    for (std::size_t i = 0; i < kWarmup; ++i) {
      warm.push_back(engine->submit(windows[i % kWindows]));
    }
    for (auto& f : warm) (void)f.get();
  }

  const double per_phase = opt.seconds / static_cast<double>(std::size(kRates));
  const auto run_all = [&](std::uint64_t stream) {
    std::vector<Phase> phases;
    for (std::size_t r = 0; r < std::size(kRates); ++r) {
      phases.push_back(run_phase(*engine, kRates[r], per_phase,
                                 mix_seed(opt.seed, stream + r), windows,
                                 expected, spans));
    }
    return phases;
  };

  obs::MetricsRegistry registry;
  std::vector<Phase> phases = run_all(10);
  std::vector<Phase> traced;
  if (opt.trace) {
    // Same schedule again with the registry installed and spans on. The
    // engine registers its instruments at construction, so restart it.
    obs::set_registry(&registry);
    spans.set_enabled(true);
    engine.reset();
    engine = serving_engine();
    traced = run_all(10);
  }
  engine.reset();  // drain and join the streams
  obs::set_registry(nullptr);
  spans.set_enabled(false);

  std::size_t attempted = 0, refused = 0, mismatched = 0;
  for (const auto* set : {&phases, &traced}) {
    for (const Phase& p : *set) {
      attempted += p.due.size();
      refused += p.refused;
      mismatched += p.mismatched;
    }
  }
  res.gates.check("forecasts_match_single_window_run", mismatched == 0,
                  std::to_string(mismatched) + " of " +
                      std::to_string(attempted - refused) +
                      " forecasts differ from FrozenPlan::run of the window "
                      "alone");

  res.fields.nums("setup_s", setup_s);
  res.fields.num("streams", static_cast<double>(cfg.streams));
  res.fields.num("max_batch", static_cast<double>(kMaxBatch));
  res.fields.raw("phases", phases_json(phases));
  res.fields.num("attempted", static_cast<double>(attempted));
  res.fields.num("failed", static_cast<double>(refused + mismatched));
  if (opt.trace) {
    res.fields.raw("traced_phases", phases_json(traced));
    const obs::Histogram& wait = registry.histogram("serve.queue_wait_seconds");
    const obs::Histogram& e2e = registry.histogram("serve.e2e_seconds");
    const obs::Histogram& batch = registry.histogram("serve.batch_size");
    const auto mean = [](const obs::Histogram& h) {
      return h.count() > 0 ? h.sum() / static_cast<double>(h.count()) : 0.0;
    };
    double submit_s = 0.0;
    for (const Phase& p : traced) submit_s += p.submit_s;
    res.layers.emplace_back("serve.queue_wait_p50_us",
                            wait.percentile(50.0) * 1e6);
    res.layers.emplace_back("serve.queue_wait_p99_us",
                            wait.percentile(99.0) * 1e6);
    res.layers.emplace_back("serve.compute_us", (mean(e2e) - mean(wait)) * 1e6);
    res.layers.emplace_back("serve.batch_size_mean", mean(batch));
    res.layers.emplace_back("serve.submit_blocked_s", submit_s);
    res.layers.emplace_back(
        "serve.batches",
        static_cast<double>(registry.counter("serve.batches").value()));
    res.layers.emplace_back(
        "serve.rejected",
        static_cast<double>(registry.counter("serve.rejected").value()));
  }
  return res;
}

}  // namespace e2e
