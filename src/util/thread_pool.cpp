#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

#include "util/check.hpp"

namespace gcm {
namespace {

/// The pool whose WorkerLoop is running on this thread (nullptr on
/// non-worker threads). Lets ParallelFor tell a nested call apart from a
/// top-level one.
thread_local const ThreadPool* tls_worker_pool = nullptr;

/// Shared state of one ParallelFor call. Helper tasks hold it by
/// shared_ptr: a helper scheduled after the loop already finished (every
/// index claimed and completed, caller gone) sees next >= count and
/// returns without touching the caller's frame.
struct ParallelForState {
  ParallelForState(std::size_t count_in,
                   const std::function<void(std::size_t)>& fn_in)
      : count(count_in), fn(&fn_in) {}

  const std::size_t count;
  /// Owned by the caller's frame; only dereferenced for a successfully
  /// claimed index, and every index is claimed AND finished before the
  /// caller returns, so late helpers never reach it.
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};  ///< fail-fast flag, set on first error

  std::mutex mu;
  std::condition_variable all_done;
  std::size_t finished = 0;  ///< guarded by mu
  std::exception_ptr first_error;

  /// Claims and accounts indices until the range is exhausted. Exceptions
  /// are recorded (first wins) and the iteration still counts as
  /// finished, so the caller's completion wait cannot hang on a throwing
  /// body. After a failure, iterations already running elsewhere complete
  /// normally, but indices not yet claimed are accounted without running
  /// fn -- a build that fails on its first shard must not pay for the
  /// other 99 before the exception propagates.
  void Drain() {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      std::exception_ptr error;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          (*fn)(i);
        } catch (...) {
          error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      bool last;
      {
        std::lock_guard<std::mutex> lock(mu);
        // Hand the error over (or drop a losing one) inside the lock: once
        // `finished` reaches `count` the caller may rethrow and destroy
        // the exception, so no reference may outlive this section.
        if (error && !first_error) first_error = std::move(error);
        error = nullptr;
        ++finished;
        // Claim accounting: each claimed index is finished exactly once,
        // so the completion count can never pass the range size.
        GCM_DCHECK_MSG(finished <= count, "ParallelFor finished " << finished
                                              << " of " << count
                                              << " iterations");
        last = finished == count;
      }
      if (last) all_done.notify_all();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::OnWorkerThread() const { return tls_worker_pool == this; }

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1) {
    fn(0);
    return;
  }
  // One shared claim counter per call: blocks / shards are coarse work
  // units, so per-index claim overhead is negligible and work stealing is
  // not needed.
  //
  // Nesting safety: the caller never waits on the task queue. It submits
  // fire-and-forget helpers, drains the range inline alongside them, then
  // waits only for iterations that were CLAIMED -- and a claimed iteration
  // is by definition being executed by a live thread, so the wait cannot
  // depend on queue progress. A caller that is itself a pool worker (a
  // nested call) therefore completes even when every other worker is
  // blocked the same way; in the degenerate 1-thread nested case the
  // caller simply runs the whole range itself and the queued helpers
  // no-op later.
  auto state = std::make_shared<ParallelForState>(count, fn);
  GCM_DCHECK_MSG(!workers_.empty(), "ThreadPool has no workers");
  std::size_t free_workers = workers_.size() - (OnWorkerThread() ? 1 : 0);
  std::size_t helpers = std::min(count - 1, free_workers);
  // If a Submit throws (allocation failure), already-queued helpers are
  // live against the caller's frame -- the caller must still drain and
  // wait for every claimed iteration before the frame unwinds. The failure
  // is compensated, not fatal: the caller's own drain completes the range,
  // so the postcondition (every fn(i) ran) holds with less parallelism.
  for (std::size_t h = 0; h < helpers; ++h) {
    try {
      Submit([state] { state->Drain(); });
    } catch (...) {
      break;
    }
  }
  state->Drain();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->all_done.wait(lock,
                         [&] { return state->finished == state->count; });
    // Postcondition of the claim protocol: the caller only unblocks once
    // every index was claimed AND finished -- never more, never fewer.
    GCM_DCHECK(state->finished == state->count);
    GCM_DCHECK(state->next.load(std::memory_order_relaxed) >= state->count);
    // Taken out under the lock: a helper task may hold the state after
    // this call returns, and must not share the exception the caller is
    // reading.
    error = std::move(state->first_error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace gcm
