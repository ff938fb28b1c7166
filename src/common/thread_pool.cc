#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace newslink {

namespace {

/// The pool whose WorkerLoop is running on this thread (null on external
/// threads). Lets ParallelFor detect reentrancy: a worker that blocked in
/// Wait() would deadlock once every worker is occupied by its caller.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (t_worker_pool == this) {
    // Called from one of our own workers (e.g. a submitted task fans out):
    // the other workers may all be such callers, so run the loop inline on
    // this thread rather than queue helpers nobody is free to run.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The caller and up to num_threads() - 1 helper tasks claim items from
  // a shared counter, and the caller waits for THIS call's items only —
  // not for the whole pool to go idle, which would make every concurrent
  // caller wait on every other caller's work. A helper that starts after
  // the last item was claimed finds nothing to do and never touches fn.
  struct Call {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t done = 0;  // guarded by mu
  };
  auto call = std::make_shared<Call>();
  const auto run = [call, n, &fn] {
    size_t finished = 0;
    for (size_t i = call->next.fetch_add(1); i < n;
         i = call->next.fetch_add(1)) {
      fn(i);
      ++finished;
    }
    if (finished == 0) return;
    std::lock_guard<std::mutex> lock(call->mu);
    call->done += finished;
    if (call->done == n) call->done_cv.notify_all();
  };
  const size_t helpers = std::min(n, threads_.size()) - 1;
  for (size_t w = 0; w < helpers; ++w) Submit(run);
  run();
  std::unique_lock<std::mutex> lock(call->mu);
  call->done_cv.wait(lock, [&call, n] { return call->done == n; });
}

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace newslink
