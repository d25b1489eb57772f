/**
 * @file
 * Shared parallel runtime for the host-side compute kernels.
 *
 * The simulated accelerators model massive parallelism while the host
 * kernels that feed them (training, pipeline preprocessing, serving) were
 * single-threaded scalar loops. This runtime closes that gap with one
 * persistent thread pool and two partitioning policies:
 *
 *  - staticRanges():   split an index space into equally sized contiguous
 *                      chunks (dense kernels).
 *  - weightedRanges(): split by a cumulative cost array — e.g. a CSR
 *                      indptr — so each chunk carries the same number of
 *                      nonzeros. This is AWB-GCN's workload-balancing
 *                      insight applied to our own SpMM hot path: on
 *                      power-law graphs, equal *row* counts give wildly
 *                      unequal work, equal *nnz* counts do not.
 *
 * Determinism: every kernel built on this runtime partitions its OUTPUT
 * index space and keeps the per-element accumulation order of the scalar
 * implementation, so results are bit-identical for any thread count
 * (including 1). Reductions that cannot be expressed that way accumulate
 * per-range and combine in range order (see FusedStats handling).
 *
 * Thread count resolution order: setThreads() > the GCOD_THREADS
 * environment variable > std::thread::hardware_concurrency(). A count of
 * 1 bypasses the pool entirely and runs on the caller's thread.
 */
#ifndef GCOD_SIM_PARALLEL_HPP
#define GCOD_SIM_PARALLEL_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace gcod {

class Config;

/** Half-open contiguous index range [begin, end). */
struct Range
{
    int64_t begin = 0;
    int64_t end = 0;

    int64_t size() const { return end - begin; }
};

/** Body run for each range: fn(range, rangeIndex). */
using RangeFn = std::function<void(const Range &, size_t)>;

/** Detected hardware concurrency (>= 1). */
int hardwareThreads();

/**
 * Effective worker count used by parallelFor: the last setThreads()
 * value, else GCOD_THREADS, else hardwareThreads().
 */
int currentThreads();

/** Override the effective worker count (clamped to [1, 256]); 1 = serial. */
void setThreads(int n);

/** Read a "threads" key from @p cfg (0/absent keeps the current policy). */
void setThreadsFromConfig(const Config &cfg);

/**
 * Split [begin, end) into at most @p parts equal contiguous ranges.
 * Empty ranges are dropped; fewer than @p parts come back when the span
 * is too small.
 */
std::vector<Range> staticRanges(int64_t begin, int64_t end, int parts);

/**
 * Split rows [0, n) into at most @p parts ranges of roughly equal
 * cumulative cost, where @p cumulative has n+1 monotone entries
 * (cumulative[i] = total cost of rows < i) — exactly the shape of a CSR
 * indptr, making each range carry ~nnz/parts nonzeros.
 */
std::vector<Range> weightedRanges(const std::vector<int64_t> &cumulative,
                                  int parts);

/**
 * Persistent worker pool. One parallel region runs at a time (concurrent
 * callers serialize); a call from inside a worker executes inline on that
 * worker, so accidental nesting degrades to serial instead of
 * deadlocking. Exceptions thrown by the body are captured and rethrown
 * on the calling thread (first one wins).
 */
class ThreadPool
{
  public:
    /** Spawn @p workers helper threads (callers also execute ranges). */
    explicit ThreadPool(int workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Helper threads currently alive (excludes calling threads). */
    int workers() const;

    /** Grow (never shrink) the helper-thread count. */
    void ensureWorkers(int n);

    /** Parallel regions executed so far (pool-reuse observability). */
    uint64_t jobsRun() const;

    /**
     * Execute fn over every range; the caller participates. Ranges are
     * claimed atomically, so any balance policy (static or weighted)
     * composes with dynamic scheduling.
     */
    void run(const std::vector<Range> &ranges, const RangeFn &fn);

    /** The process-wide pool used by parallelFor. */
    static ThreadPool &global();

  private:
    struct Impl;
    Impl *impl_;
};

// ------------------------------------------------- kernel profiling hooks
//
// Optional per-task observability: when a hook is installed, every range
// executed through parallelFor/parallelForWeighted/parallelForRanges is
// timed and reported — which kernel (the innermost ParallelZone label on
// the CALLING thread), how many items the range covered (rows for dense
// kernels, rows ~ nnz/parts for weighted ones), how long it ran, and on
// which pool thread. obs::KernelProfiler aggregates these samples into a
// flame-style per-kernel breakdown and can mirror them into a
// TraceRecorder. With no hook installed the cost is one relaxed atomic
// load per parallel region — the kernels' hot loops are untouched, and
// results are bit-identical with profiling on or off.

/** One profiled task (range) execution. */
struct TaskSample
{
    /** Innermost ParallelZone label at the call site; "" = unlabeled. */
    const char *zone = "";
    /** Items in the range (rows; ranges are nnz-balanced when weighted). */
    int64_t items = 0;
    /** Index of the range within its parallel region. */
    size_t rangeIndex = 0;
    std::chrono::steady_clock::time_point start;
    double seconds = 0.0;
    /** Small sequential id of the executing thread. */
    int thread = 0;
};

using TaskProfileHook = std::function<void(const TaskSample &)>;

/**
 * Install (or, with an empty hook, remove) the process-wide task
 * profiling hook. The hook is invoked concurrently from pool workers
 * and must be thread-safe. Last writer wins.
 */
void setTaskProfileHook(TaskProfileHook hook);

/** True when a task profiling hook is installed. */
bool taskProfilingEnabled();

/**
 * RAII kernel label: tags every task dispatched while in scope (on this
 * thread) with @p label. Labels must be string literals (or otherwise
 * outlive the parallel region) — the hook receives the pointer, not a
 * copy. Nests; the innermost label wins.
 */
class ParallelZone
{
  public:
    explicit ParallelZone(const char *label);
    ~ParallelZone();

    ParallelZone(const ParallelZone &) = delete;
    ParallelZone &operator=(const ParallelZone &) = delete;

    /** The calling thread's innermost active label ("" when none). */
    static const char *current();

  private:
    const char *prev_;
};

/** Smallest number of scalar operations worth shipping to the pool. */
inline constexpr int64_t kMinParallelWork = 1 << 15;

/**
 * Rows per range so each range carries at least kMinParallelWork
 * operations when one row costs @p workPerRow: the minGrain of the row
 * loops in the host kernels.
 */
inline int64_t
rowGrain(int64_t workPerRow)
{
    return std::max<int64_t>(
        1, kMinParallelWork / std::max<int64_t>(1, workPerRow));
}

/**
 * Run fn over the given ranges on the global pool. Executes inline when
 * there is at most one range or the effective thread count is 1.
 */
void parallelForRanges(const std::vector<Range> &ranges, const RangeFn &fn);

/**
 * Static-partition parallel loop over [begin, end). @p minGrain bounds
 * the smallest range worth shipping to a worker: spans below it run
 * inline on the caller.
 */
void parallelFor(int64_t begin, int64_t end, const RangeFn &fn,
                 int64_t minGrain = 1);

/**
 * Cost-weighted parallel loop over rows [0, cumulative.size() - 1),
 * partitioned by the cumulative cost array (see weightedRanges).
 * @p minCost is the smallest total cost worth parallelizing.
 */
void parallelForWeighted(const std::vector<int64_t> &cumulative,
                         const RangeFn &fn, int64_t minCost = 1);

} // namespace gcod

#endif // GCOD_SIM_PARALLEL_HPP
