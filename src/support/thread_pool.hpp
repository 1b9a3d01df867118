#pragma once
/// \file thread_pool.hpp
/// \brief Work-stealing thread pool.
///
/// This is the shared execution engine for the OpenMP-style assignment
/// variants (`kmeans`, `knn`), the spark RDD scheduler, and the Chapel
/// `forall` construct.  Each worker owns a deque; tasks submitted from a
/// worker go to its own deque (LIFO for locality), idle workers steal from
/// the FIFO end of a victim's deque — the classic Cilk/TBB discipline.
///
/// The pool deliberately exposes *task counters* (spawned, stolen) because
/// several paper experiments (T-HT-1's forall-respawn overhead) report them.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace peachy::support {

/// Fixed-size work-stealing pool.
class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawn `threads` workers (>=1).  Defaults to hardware concurrency.
  explicit ThreadPool(std::size_t threads = default_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task.  Thread-safe; may be called from worker threads.
  /// Worker-thread submits go to the caller's own deque (LIFO locality);
  /// external submits go to an idle worker's empty queue if one exists,
  /// else the shortest queue (ties rotate via an advancing scan start).
  void submit(Task task);

  /// Enqueue a callable returning R and get a future for its result.
  template <typename F, typename R = std::invoke_result_t<F>>
  [[nodiscard]] std::future<R> submit_future(F&& f) {
    auto prom = std::make_shared<std::promise<R>>();
    std::future<R> fut = prom->get_future();
    submit([prom, fn = std::forward<F>(f)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
          prom->set_value();
        } else {
          prom->set_value(fn());
        }
      } catch (...) {
        prom->set_exception(std::current_exception());
      }
    });
    return fut;
  }

  /// Block until every submitted task (including tasks spawned by tasks)
  /// has finished.  May be called from a non-worker thread only.
  ///
  /// If any raw-submit() task threw since the last wait_idle(), the FIRST
  /// such exception is rethrown here (later ones are dropped), and the
  /// pool remains fully usable — workers survive task exceptions.  Tasks
  /// submitted via submit_future() deliver their exceptions through the
  /// future instead and never surface here.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Total tasks executed since construction.
  [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Total tasks obtained by stealing from another worker's deque.
  [[nodiscard]] std::uint64_t tasks_stolen() const noexcept {
    return tasks_stolen_.load(std::memory_order_relaxed);
  }

  /// Index of the calling worker within this pool, or SIZE_MAX if the
  /// caller is not one of this pool's workers.
  [[nodiscard]] std::size_t worker_index() const noexcept;

  /// std::thread::hardware_concurrency() with a floor of 1.
  [[nodiscard]] static std::size_t default_concurrency() noexcept;

  /// Process-wide shared pool (lazily constructed with default concurrency).
  [[nodiscard]] static ThreadPool& shared();

 private:
  /// A queued task plus its submit timestamp (obs clock; 0 when tracing
  /// was off at submit time) so the worker can record dwell time.
  struct Item {
    Task task;
    std::uint64_t submit_ns;
  };

  struct WorkerQueue {
    std::deque<Item> deque;
    std::mutex mu;
    /// Mirror of deque.size(), maintained under mu but readable without
    /// it: submit() scores candidate queues lock-free.
    std::atomic<std::size_t> size{0};
    /// True while this queue's worker is inside a task body.
    std::atomic<bool> busy{false};
  };

  bool try_pop_local(std::size_t self, Item& out);
  bool try_steal(std::size_t self, Item& out);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex idle_mu_;
  std::condition_variable work_cv_;   // signalled when work arrives
  std::condition_variable idle_cv_;   // signalled when pool may be idle
  /// Bumped under idle_mu_ after every enqueue.  A worker snapshots this
  /// *before* scanning the queues and sleeps on "tickets_ changed" — the
  /// publication workers wait on, closing the scan-to-wait window that a
  /// bare notify_one() could fall into (see worker_loop).
  std::atomic<std::uint64_t> tickets_{0};
  std::atomic<std::size_t> pending_{0};  // submitted but not yet finished
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
  std::atomic<std::size_t> rr_{0};  // rotating scan start for external submits

  /// First exception to escape a raw-submit task since the last
  /// wait_idle(); rethrown (and cleared) there.  Without this capture the
  /// exception would unwind the worker thread and std::terminate.
  std::mutex task_err_mu_;
  std::exception_ptr task_error_;
};

namespace test_hooks {
/// Where an idle worker is on its way to sleep.
enum class IdleStep {
  kScannedEmpty,  ///< every queue scanned empty; the idle mutex not yet taken
  kBlocking,      ///< under the idle mutex, the wait predicate just read false
};
/// When set, every idle worker of every pool calls this at both steps.
/// At kScannedEmpty the hook may block, parking the worker in the
/// window a submit's wakeup must not be lost in; at kBlocking it runs
/// under the pool's idle mutex and must not call back into the pool.
extern std::atomic<void (*)(const ThreadPool*, IdleStep)> g_idle_hook;
}  // namespace test_hooks

}  // namespace peachy::support
