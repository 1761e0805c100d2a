#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/mutex.h"

namespace genclus {

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
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  task_available_.NotifyAll();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && tasks_.empty()) task_available_.Wait(lock);
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // A throwing task must not unwind out of the worker (std::terminate)
    // or skip the in_flight_ decrement (Wait would hang): capture the
    // first exception and surface it from Wait.
    std::exception_ptr error;
    try {
      // Tests arm "thread_pool.task" to prove a throwing task surfaces
      // from Wait() without wedging the worker.
      GENCLUS_FAILPOINT("thread_pool.task",
                        throw std::runtime_error(
                            "injected thread_pool.task failure"));
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      MutexLock lock(mutex_);
      if (error && !first_error_) first_error_ = std::move(error);
      --in_flight_;
      if (in_flight_ == 0 && tasks_.empty()) all_done_.NotifyAll();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    GENCLUS_CHECK_MSG(!shutdown_, "Submit after shutdown");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  // The error is moved out and rethrown only after the lock scope ends:
  // rethrowing while holding mutex_ would deadlock any catch handler
  // that calls back into the pool.
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    while (in_flight_ != 0 || !tasks_.empty()) all_done_.Wait(lock);
    error = std::move(first_error_);
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::ParallelForEach(size_t n,
                                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // A single worker or fewer than two indices per worker: run inline to
  // skip dispatch overhead.
  const size_t num_tasks = std::min(threads_.size(), n);
  if (num_tasks <= 1 || n < 2 * num_tasks) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Per-call completion state, so concurrent batches on one pool never
  // cross their completion or error tracking (each caller waits for
  // exactly its own tasks). Tasks catch internally and report here, not
  // into the pool-level first_error_.
  struct BatchState {
    std::atomic<size_t> next{0};
    Mutex mutex;
    CondVar done;
    size_t remaining GENCLUS_GUARDED_BY(mutex) = 0;
    std::exception_ptr first_error GENCLUS_GUARDED_BY(mutex);
  } state;
  {
    MutexLock lock(state.mutex);
    state.remaining = num_tasks;
  }
  for (size_t task = 0; task < num_tasks; ++task) {
    Submit([&fn, &state, n] {
      // One claim per index keeps a straggler's cost to the index it
      // holds; a throwing index parks the cursor past the end so the other
      // tasks stop claiming.
      std::exception_ptr error;
      try {
        for (size_t i = state.next.fetch_add(1); i < n;
             i = state.next.fetch_add(1)) {
          fn(i);
        }
      } catch (...) {
        state.next.store(n);
        error = std::current_exception();
      }
      // Notify under the lock: `state` lives on the caller's stack, and
      // the caller may return (destroying it) the moment it observes
      // remaining == 0 — which it cannot do before this lock is released.
      MutexLock lock(state.mutex);
      if (error && !state.first_error) state.first_error = std::move(error);
      if (--state.remaining == 0) state.done.NotifyAll();
    });
  }
  // As in Wait(): rethrow only after releasing the batch mutex.
  std::exception_ptr error;
  {
    MutexLock lock(state.mutex);
    while (state.remaining != 0) state.done.Wait(lock);
    error = std::move(state.first_error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace genclus
