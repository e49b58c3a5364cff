#include "parallel/kernel_config.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/thread_annotations.hpp"

namespace fedguard::parallel {

namespace {

// The config is read on every kernel launch (including tiny elementwise
// spans), so the fields live in relaxed atomics rather than behind a mutex.
struct AtomicConfig {
  std::atomic<std::size_t> threads{KernelConfig{}.threads};
  std::atomic<std::size_t> gemm_min_flops{KernelConfig{}.gemm_min_flops};
  std::atomic<std::size_t> elementwise_min_size{KernelConfig{}.elementwise_min_size};
  std::atomic<std::size_t> distance_min_elements{KernelConfig{}.distance_min_elements};
};

AtomicConfig& atomic_config() {
  static AtomicConfig instance;
  return instance;
}

std::size_t env_threads() {
  // Read once: the environment is process-wide startup configuration, not a
  // runtime knob.
  static const std::size_t value = threads_from_env_value(std::getenv("FEDGUARD_THREADS"));
  return value;
}

std::size_t hardware_threads() {
  static const std::size_t value =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return value;
}

struct PoolState {
  // Touch the registry first: it then finishes constructing before this
  // state does and is destroyed after it at exit, so a worker still
  // recording its last task's instruments while the pool joins never writes
  // into a destroyed registry.
  PoolState() { (void)obs::Registry::global(); }

  util::Mutex mutex;
  std::unique_ptr<ThreadPool> pool FEDGUARD_GUARDED_BY(mutex);
  std::size_t pool_threads FEDGUARD_GUARDED_BY(mutex) = 0;
};

PoolState& pool_state() {
  static PoolState instance;
  return instance;
}

}  // namespace

std::size_t threads_from_env_value(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || parsed <= 0) return 0;
  return static_cast<std::size_t>(parsed);
}

KernelConfig kernel_config() noexcept {
  const AtomicConfig& a = atomic_config();
  KernelConfig config;
  config.threads = a.threads.load(std::memory_order_relaxed);
  config.gemm_min_flops = a.gemm_min_flops.load(std::memory_order_relaxed);
  config.elementwise_min_size = a.elementwise_min_size.load(std::memory_order_relaxed);
  config.distance_min_elements = a.distance_min_elements.load(std::memory_order_relaxed);
  return config;
}

void set_kernel_config(const KernelConfig& config) noexcept {
  AtomicConfig& a = atomic_config();
  a.threads.store(config.threads, std::memory_order_relaxed);
  a.gemm_min_flops.store(config.gemm_min_flops, std::memory_order_relaxed);
  a.elementwise_min_size.store(config.elementwise_min_size, std::memory_order_relaxed);
  a.distance_min_elements.store(config.distance_min_elements, std::memory_order_relaxed);
}

std::size_t kernel_threads() noexcept {
  const std::size_t configured =
      atomic_config().threads.load(std::memory_order_relaxed);
  if (configured > 0) return configured;
  if (const std::size_t env = env_threads(); env > 0) return env;
  return hardware_threads();
}

ThreadPool& kernel_pool() {
  const std::size_t want = kernel_threads();
  PoolState& s = pool_state();
  const util::MutexLock lock{s.mutex};
  if (!s.pool || s.pool_threads != want) {
    s.pool.reset();  // join the old workers before replacing them
    s.pool = std::make_unique<ThreadPool>(want, "kernel");
    s.pool_threads = want;
  }
  return *s.pool;
}

bool should_parallelize(std::size_t work_elements, std::size_t threshold) noexcept {
  if (work_elements < threshold) return false;
  if (in_worker_thread()) return false;
  return kernel_threads() > 1;
}

void kernel_parallel_ranges(std::size_t count, std::size_t grain,
                            const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t threads = in_worker_thread() ? 1 : kernel_threads();
  const std::size_t blocks = (count + grain - 1) / grain;
  const std::size_t chunks = std::min(threads, blocks);
  if (chunks <= 1) {
    body(0, count);
    return;
  }
  const std::size_t blocks_per_chunk = (blocks + chunks - 1) / chunks;
  const std::size_t stride = blocks_per_chunk * grain;
  kernel_pool().run_batch(chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * stride;
    const std::size_t end = std::min(count, begin + stride);
    if (begin < end) body(begin, end);
  });
}

}  // namespace fedguard::parallel
