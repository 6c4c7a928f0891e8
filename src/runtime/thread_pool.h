/**
 * @file
 * A fixed-size worker pool shared by the parallel runtime.
 *
 * The pool is deliberately simple — one locked FIFO of type-erased
 * tasks — but is *work-stealing-friendly* in the sense the rest of the
 * runtime relies on: ParallelFor submits self-scheduling tasks that
 * claim work items from a shared atomic cursor, so idle workers drain
 * whatever remains regardless of which task the queue handed them,
 * and the submitting thread always participates too; the stage
 * schedulers and the suffix batcher enqueue detached tasks that never
 * wait on other tasks. That keeps the pool deadlock-free under
 * nesting: a caller never blocks on work that only the pool could
 * run.
 *
 * Worker threads are tagged with a thread-local marker so nested
 * parallel constructs (a ConvLayer::forward inside a frame stage that
 * an Engine session is already running on a worker) degrade to serial
 * inline execution instead of oversubscribing or self-deadlocking.
 */
#ifndef EVA2_RUNTIME_THREAD_POOL_H
#define EVA2_RUNTIME_THREAD_POOL_H

#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/common.h"
#include "util/mutex.h"

namespace eva2 {

/** A fixed pool of worker threads consuming a shared task queue. */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; 0 selects default_num_threads().
     */
    explicit ThreadPool(i64 num_threads = 0);

    /** Drops nothing: pending tasks run before workers join. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    i64 size() const { return static_cast<i64>(workers_.size()); }

    /**
     * Enqueue a fire-and-forget task. The task must not throw; wrap
     * anything that can fail with submit() instead.
     */
    void enqueue_detached(std::function<void()> task);

    /**
     * Enqueue a task and get a future for its result. Exceptions
     * thrown by the task propagate through the future.
     */
    template <typename F>
    auto
    submit(F &&f) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(f));
        std::future<R> result = task->get_future();
        enqueue_detached([task]() { (*task)(); });
        return result;
    }

    /**
     * Default worker count: the EVA2_NUM_THREADS environment variable
     * when set and positive, otherwise std::thread::hardware_concurrency.
     */
    static i64 default_num_threads();

    /**
     * The process-wide pool used when no explicit pool is supplied.
     * Created lazily with default_num_threads() workers.
     */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of the given size. Not safe
     * while tasks are in flight on the old pool; intended for bench
     * and test setup code that wants a controlled thread count.
     */
    static void set_global_size(i64 num_threads);

    /** True when called from one of *any* pool's worker threads. */
    static bool on_worker_thread();

  private:
    void worker_loop();

    std::vector<std::thread> workers_;
    Mutex mutex_;
    std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
    CondVar cv_;
    bool stop_ GUARDED_BY(mutex_) = false;
};

} // namespace eva2

#endif // EVA2_RUNTIME_THREAD_POOL_H
