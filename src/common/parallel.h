/**
 * @file
 * The only threading primitive in the tree: a fixed pool of worker
 * threads driving `parallel_for` index loops.
 *
 * Its callers (ef_lint --jobs, ef-audit's indexing pass; DESIGN.md §7)
 * need data parallelism without giving up determinism, so the
 * contract here is deliberately narrow:
 * `parallel_for(count, fn)` calls `fn(i)` exactly once for every
 * `i` in `[0, count)`, with `fn` required to touch only state owned by
 * index `i` (disjoint output slots, per-index scratch). Under that
 * discipline the result of a loop is a pure function of its inputs —
 * thread interleaving can reorder the *execution* of indices but never
 * their *effects*, because no two indices share mutable state and all
 * cross-index reduction happens sequentially on the caller after the
 * loop joins.
 *
 * Raw `<thread>` / `<mutex>` / `<atomic>` use anywhere else in `src/`
 * is rejected by the ef-lint `threading` rule; scheduler and simulator
 * logic must express concurrency through this interface only.
 */
#ifndef EF_COMMON_PARALLEL_H_
#define EF_COMMON_PARALLEL_H_

#include <functional>
#include <memory>

namespace ef {

/**
 * Fixed-size worker pool. Constructed once (threads are reused across
 * loops), joined on destruction. A pool of `threads <= 1` owns no
 * worker threads at all and runs every loop inline on the caller —
 * callers never need a special single-threaded code path.
 */
class ThreadPool
{
  public:
    /** @p threads is the total thread count *including* the calling
     *  thread: a pool built with `threads = 4` spawns 3 workers and
     *  the caller participates as the 4th. Values <= 1 spawn none. */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads a loop runs on (workers + the calling thread). */
    int threads() const;

    /**
     * Run `fn(0) .. fn(count - 1)`, the caller participating, and
     * block until every index has completed. Indices are claimed
     * dynamically (an atomic cursor), so uneven per-index cost load
     * balances automatically. Not reentrant: `fn` must not call back
     * into the same pool.
     */
    void parallel_for(int count, const std::function<void(int)> &fn);

    /** std::thread::hardware_concurrency() with a floor of 1. */
    static int hardware_threads();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Pool-optional loop: runs inline (plain sequential `for`) when
 * @p pool is null or single-threaded, otherwise on the pool. This is
 * the form planner code should use — concurrency stays a config knob,
 * never a structural requirement.
 */
void parallel_for(ThreadPool *pool, int count,
                  const std::function<void(int)> &fn);

}  // namespace ef

#endif  // EF_COMMON_PARALLEL_H_
