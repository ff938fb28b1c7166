// Fixed-size thread pool. The paper notes corpus embedding "can easily be
// parallelized"; NewsLinkEngine uses this pool to embed documents in
// parallel during index building.

#ifndef NEWSLINK_COMMON_THREAD_POOL_H_
#define NEWSLINK_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace newslink {

/// \brief A minimal task-queue thread pool.
///
/// Submitted tasks must not throw (the library is exception-free by policy).
class ThreadPool {
 public:
  /// num_threads == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Block until every submitted task has finished (the whole pool idle).
  void Wait();

  /// Run fn(i) for i in [0, n), partitioned across the pool and the calling
  /// thread, and wait for those n items only: concurrent callers and
  /// unrelated submitted tasks never delay each other's return. Called
  /// from one of this pool's workers, the loop runs inline. fn must be safe
  /// to call concurrently for distinct i.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace newslink

#endif  // NEWSLINK_COMMON_THREAD_POOL_H_
