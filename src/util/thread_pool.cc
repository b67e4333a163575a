#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace ehna {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    if (first_error_ != nullptr) {
      EHNA_LOG(Warning)
          << "ThreadPool destroyed with an unretrieved task exception";
      first_error_ = nullptr;
    }
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    EHNA_CHECK(!shutdown_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t chunks = std::min(n, workers_.size() * 4);
  const size_t per_chunk = (n + chunks - 1) / chunks;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * per_chunk;
    const size_t end = std::min(n, begin + per_chunk);
    if (begin >= end) break;
    Submit([&fn, begin, end] {
      for (size_t i = begin; i < end; ++i) fn(i);
    });
  }
  Wait();
}

void ThreadPool::ParallelForShards(
    size_t n, size_t num_shards,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t shards = std::max<size_t>(1, std::min(n, num_shards));
  const size_t per_shard = (n + shards - 1) / shards;
  for (size_t s = 0; s < shards; ++s) {
    const size_t begin = s * per_shard;
    if (begin >= n) break;
    const size_t end = std::min(n, begin + per_shard);
    Submit([&fn, s, begin, end] { fn(s, begin, end); });
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // A throwing task must not escape through the worker loop (that would
    // std::terminate the process); capture the first exception for the
    // join/wait point instead.
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (error != nullptr && first_error_ == nullptr) {
        first_error_ = std::move(error);
      }
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace ehna
