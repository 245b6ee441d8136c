// Heap-allocation audit for the hot paths (DESIGN.md "Memory model").
//
// The arena/workspace design claims the steady-state training step and
// the memoizer's cache-hit path touch the heap exactly zero times. This
// binary replaces global operator new/delete with counting wrappers and
// asserts that claim literally: after a warm-up pass that binds every
// workspace and sizes every persistent buffer, N further steps must
// perform 0 allocations — not "few", zero. A regression here is a
// per-batch allocation creeping back into the path the benches measure.
//
// The overrides are compiled out under the sanitizer presets
// (GEONAS_SANITIZE_BUILD): ASan/TSan interpose the allocator themselves
// and must see their own operator new.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <future>
#include <memory>
#include <new>
#include <vector>

#include "core/eval_policy.hpp"
#include "hpc/evaluator.hpp"
#include "hpc/parallel_for.hpp"
#include "tensor/blas.hpp"
#include "nn/dense.hpp"
#include "nn/example_source.hpp"
#include "nn/graph.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "searchspace/architecture.hpp"
#include "serve/engine.hpp"
#include "serve/frozen_plan.hpp"
#include "tensor/random.hpp"

#ifndef GEONAS_SANITIZE_BUILD

namespace {
// Relaxed is enough: the audited sections pin kernel_threads to 1, so
// counted allocations are same-thread; the flag flips only outside them.
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_alloc_count{0};
// One-shot fault injection: the next allocation of exactly this many
// bytes throws std::bad_alloc and disarms the switch (0 = disarmed).
std::atomic<std::size_t> g_fail_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  std::size_t armed = g_fail_alloc_bytes.load(std::memory_order_relaxed);
  if (armed != 0 && size == armed &&
      g_fail_alloc_bytes.compare_exchange_strong(armed, 0)) {
    throw std::bad_alloc();
  }
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t padded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, padded == 0 ? alignment : padded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // !GEONAS_SANITIZE_BUILD

namespace geonas {
namespace {

#ifndef GEONAS_SANITIZE_BUILD
/// Counts global operator new calls (all flavors) while alive. Keep
/// gtest assertions outside the scope — their message streams allocate.
class AllocCountScope {
 public:
  AllocCountScope() {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocCountScope() { g_counting.store(false, std::memory_order_relaxed); }
  AllocCountScope(const AllocCountScope&) = delete;
  AllocCountScope& operator=(const AllocCountScope&) = delete;

  [[nodiscard]] std::size_t count() const {
    return g_alloc_count.load(std::memory_order_relaxed);
  }
};
#endif

/// Serial kernels for the audited region: ThreadPool::submit allocates a
/// shared task state, so a multi-threaded dispatch can never be
/// heap-free. Restores the hardware default on scope exit.
struct KernelThreadsGuard {
  explicit KernelThreadsGuard(std::size_t threads) {
    hpc::set_kernel_threads(threads);
  }
  ~KernelThreadsGuard() { hpc::set_kernel_threads(0); }
};

TEST(AllocAudit, LstmTrainStepSteadyStateIsHeapFree) {
#ifdef GEONAS_SANITIZE_BUILD
  GTEST_SKIP() << "allocator overrides disabled under sanitizers";
#else
  // Metric lookups hash string names; keep the registry out entirely
  // (the disabled path is one null check, the contract the bench gate
  // holds the obs layer to anyway).
  obs::set_registry(nullptr);
  KernelThreadsGuard serial(1);

  constexpr std::size_t kB = 8, kT = 4, kF = 6, kUnits = 16, kN = 12;
  nn::GraphNetwork net;
  const std::size_t lstm =
      net.add_node(std::make_unique<nn::LSTM>(kF, kUnits), {0});
  net.add_node(std::make_unique<nn::Dense>(kUnits, kF), {lstm});
  net.init_params(3);

  Tensor3 x(kN, kT, kF), y(kN, kT, kF);
  Rng rng(5);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : y.flat()) v = rng.uniform(-1.0, 1.0);
  const nn::TensorPairSource src(x, y);

  nn::Adam optimizer(net.parameters(), net.gradients(),
                     {.learning_rate = 1e-3});
  const std::vector<Matrix*> grad_list = net.gradients();
  std::array<std::size_t, kB> idx{};
  for (std::size_t i = 0; i < kB; ++i) idx[i] = i;

  // The exact Trainer::fit inner step over persistent buffers.
  Tensor3 xb, yb, grad;
  double loss_sink = 0.0;
  const auto step = [&] {
    xb.ensure_shape(kB, src.x_steps(), src.x_features());
    yb.ensure_shape(kB, src.y_steps(), src.y_features());
    for (std::size_t i = 0; i < kB; ++i) {
      src.gather_x(idx[i], xb.block(i));
      src.gather_y(idx[i], yb.block(i));
    }
    net.zero_grad();
    const Tensor3& pred = net.forward_ref(xb, /*training=*/true);
    loss_sink += nn::mse_loss(yb, pred);
    nn::mse_grad_into(yb, pred, grad);
    net.backward_ref(grad);
    nn::clip_gradients_by_norm(grad_list, 10.0);
    optimizer.step();
  };

  // Warm-up binds the arena workspaces and sizes every gather buffer.
  step();
  step();

  std::size_t allocations = 0;
  {
    const AllocCountScope audit;
    for (int i = 0; i < 5; ++i) step();
    allocations = audit.count();
  }
  EXPECT_EQ(allocations, 0u)
      << "steady-state train step touched the heap";
  EXPECT_GT(loss_sink, 0.0);

  const tensor::Arena* arena = net.arena();
  ASSERT_NE(arena, nullptr);
  EXPECT_GT(arena->high_water_bytes(), 0u);
#endif
}

TEST(AllocAudit, FirstGemmDispatchAfterResizeMatchesSteadyState) {
#ifdef GEONAS_SANITIZE_BUILD
  GTEST_SKIP() << "allocator overrides disabled under sanitizers";
#else
  obs::set_registry(nullptr);
  // A multi-threaded dispatch can never be heap-free (ThreadPool::submit
  // allocates shared task state), but its allocation count must not
  // depend on whether a worker has ever run a GEMM: the worker warmup
  // hook (hpc::set_worker_warmup, registered by the blocked GEMM)
  // reserves the thread_local pack scratch when the pool spins up, so
  // the first GEMM dispatched into a fresh pool costs exactly as many
  // allocations as every later one. Without the hook, the first dispatch
  // after a set_kernel_threads resize would add the pack-buffer resizes
  // of every worker seeing its first stripe.
  constexpr std::size_t kDim = 128;  // 2*128^3 FLOPs: well over the
                                     // parallel_for engage threshold
  Matrix a(kDim, kDim), b(kDim, kDim), c(kDim, kDim);
  Rng rng(7);
  for (double& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.flat()) v = rng.uniform(-1.0, 1.0);
  const auto gemm = [&] {
    gemm_raw(Trans::kNone, Trans::kNone, kDim, kDim, kDim, 1.0,
             a.flat().data(), kDim, b.flat().data(), kDim, 0.0,
             c.flat().data(), kDim);
  };

  // Warm the CALLING thread's pack scratch serially: the audit isolates
  // the pool workers' first dispatch, not the main thread's first GEMM
  // (which depends on test ordering within this binary).
  {
    KernelThreadsGuard serial(1);
    gemm();
  }

  KernelThreadsGuard two(2);  // retires the pool; recreated lazily below
  // Spin the fresh pool up — and run its workers' warmup hooks — with a
  // dispatch that is not a GEMM, so the audited first GEMM meets
  // warmed-but-GEMM-naive workers.
  std::atomic<std::size_t> covered{0};
  hpc::parallel_for(0, 1024, /*cost_flops=*/2.0e6, /*grain=*/1,
                    [&](std::size_t begin, std::size_t end) {
                      covered.fetch_add(end - begin,
                                        std::memory_order_relaxed);
                    });
  ASSERT_EQ(covered.load(), 1024u);

  std::size_t first = 0;
  std::size_t steady = 0;
  {
    const AllocCountScope audit;
    gemm();
    first = audit.count();
  }
  {
    const AllocCountScope audit;
    gemm();
    steady = audit.count();
  }
  EXPECT_EQ(first, steady)
      << "first GEMM dispatch into a fresh pool allocated beyond its "
         "steady state";
  EXPECT_GT(steady, 0u);  // sanity: the MT dispatch itself does allocate
#endif
}

#ifndef GEONAS_SANITIZE_BUILD
/// Fixed-outcome evaluator: the audit targets the memoizer wrapper, not
/// a real training.
class FixedEvaluator final : public hpc::ArchitectureEvaluator {
 public:
  [[nodiscard]] hpc::EvalOutcome evaluate(const searchspace::Architecture&,
                                          std::uint64_t) override {
    return {.reward = 0.5, .duration_seconds = 1.0, .params = 10};
  }
  [[nodiscard]] bool thread_safe() const override { return true; }
};
#endif

TEST(AllocAudit, MemoizedReEvaluationIsHeapFree) {
#ifdef GEONAS_SANITIZE_BUILD
  GTEST_SKIP() << "allocator overrides disabled under sanitizers";
#else
  obs::set_registry(nullptr);
  FixedEvaluator inner;
  core::MemoizingEvaluator memo(inner);
  const searchspace::Architecture arch{.genes = {3, 0, 1, 5, 1, 0, 2, 1}};

  // Miss populates the cache; the second call warms the key scratch.
  (void)memo.evaluate(arch, 0);
  (void)memo.evaluate(arch, 1);
  ASSERT_EQ(memo.hits(), 1u);

  double reward_sink = 0.0;
  std::size_t allocations = 0;
  {
    const AllocCountScope audit;
    for (std::uint64_t seed = 2; seed < 12; ++seed) {
      reward_sink += memo.evaluate(arch, seed).reward;
    }
    allocations = audit.count();
  }
  EXPECT_EQ(allocations, 0u) << "memoizer cache hit touched the heap";
  EXPECT_DOUBLE_EQ(reward_sink, 5.0);
  EXPECT_EQ(memo.hits(), 11u);
  EXPECT_EQ(memo.misses(), 1u);
#endif
}

TEST(AllocAudit, ServeBatchFailureReachesCallersAndStreamSurvives) {
#ifdef GEONAS_SANITIZE_BUILD
  GTEST_SKIP() << "allocator overrides disabled under sanitizers";
#else
  obs::set_registry(nullptr);
  // Distinct window and forecast sizes (27 vs 45 doubles), so the
  // injected fault hits the Forecast built for the first answer of the
  // batch and nothing else on the submit or serving path.
  constexpr std::size_t kSteps = 9, kIn = 3, kOut = 5, kBatch = 3;
  nn::GraphNetwork net;
  const std::size_t lstm =
      net.add_node(std::make_unique<nn::LSTM>(kIn, 8), {0});
  net.add_node(std::make_unique<nn::Dense>(8, kOut), {lstm});
  net.init_params(13);
  serve::FrozenPlan reference = serve::FrozenPlan::compile(net, kSteps, kBatch);
  // One stream and a long coalescing delay: each batch runs only once
  // it holds kBatch requests.
  serve::ServeEngine engine(
      reference.clone_stream(),
      {.streams = 1, .max_delay_seconds = 60.0, .queue_capacity = 16});

  Rng rng(29);
  std::vector<Tensor3> windows;
  for (std::size_t i = 0; i < 2 * kBatch; ++i) {
    windows.emplace_back(1, kSteps, kIn);
    for (double& v : windows.back().flat()) v = rng.uniform(-1.0, 1.0);
  }
  const auto submit_batch = [&](std::size_t first) {
    std::vector<std::future<serve::Forecast>> futures;
    for (std::size_t i = first; i < first + kBatch; ++i) {
      futures.push_back(engine.submit(windows[i].flat()));
    }
    return futures;
  };
  // Bounded wait: a dead stream must fail the test, not hang it.
  const auto ready = [](std::future<serve::Forecast>& f) {
    return f.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  };

  g_fail_alloc_bytes.store(kSteps * kOut * sizeof(double));
  for (auto& f : submit_batch(0)) {
    ASSERT_TRUE(ready(f));
    EXPECT_THROW(f.get(), std::bad_alloc);
  }
  EXPECT_EQ(g_fail_alloc_bytes.load(), 0u) << "the fault never fired";

  // The stream survived the failed batch: the next one is answered,
  // bitwise equal to the plan it serves.
  auto answered = submit_batch(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(ready(answered[i])) << "the serving stream died";
    const serve::Forecast got = answered[i].get();
    const auto expected = reference.run(windows[kBatch + i]).flat();
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k], expected[k]) << "forecast " << i << " index " << k;
    }
  }
#endif
}

}  // namespace
}  // namespace geonas
