#ifndef EHNA_UTIL_THREAD_POOL_H_
#define EHNA_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ehna {

/// A fixed-size worker pool with a simple task queue. Used to parallelize
/// walk sampling, hogwild-style SGNS training (Table VIII's k-thread
/// variants), the data-parallel EHNA trainer's shards, and inference.
///
/// Exception contract: a task that throws does not bring the process down.
/// The first in-flight exception is captured into a std::exception_ptr and
/// rethrown from the next Wait() (and therefore from ParallelFor /
/// ParallelForShards, which Wait internally); later exceptions from the
/// same wave are dropped.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks and joins the workers. An exception still
  /// pending at destruction is logged and dropped (destructors must not
  /// throw); retrieve it with Wait() first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception any of them raised (if any).
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Runs `fn(i)` for every i in [0, n), partitioned into contiguous chunks
  /// across the pool, and waits for completion. `fn` must be thread-safe.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Splits [0, n) into exactly min(num_shards, n) contiguous shards and
  /// runs `fn(shard, begin, end)` for each, waiting for completion. Unlike
  /// ParallelFor, the shard decomposition is a pure function of (n,
  /// num_shards) — independent of the pool size — so callers that key
  /// per-shard state (RNG streams, gradient accumulators) on the shard
  /// index get schedule-independent results. `fn` must be thread-safe.
  void ParallelForShards(
      size_t n, size_t num_shards,
      const std::function<void(size_t shard, size_t begin, size_t end)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;  // queued + running tasks, guarded by mu_.
  bool shutdown_ = false;
  std::exception_ptr first_error_;  // guarded by mu_.
};

}  // namespace ehna

#endif  // EHNA_UTIL_THREAD_POOL_H_
