/**
 * @file
 * Parallel sweep executor and run observability.
 *
 * Every figure in the paper is a sweep over {cache size x line size x
 * write policy x benchmark}, and each point is an independent replay:
 * the grid is embarrassingly parallel.  ParallelExecutor fans a grid
 * of tasks out over a WorkerPool; tasks write their results into
 * per-index slots — keyed by grid index, never by completion order —
 * so an N-thread sweep is bit-for-bit identical to a 1-thread sweep.
 * The engine (sim/engine.hh) drives it for both the per-cell and the
 * one-pass batch paths.  A pool lives for one call, or — in jcached —
 * for the whole process, shared by every job that runs at once.
 *
 * Observability rides along: every run produces a SweepReport with
 * per-job wall time, replayed-instruction throughput and thread
 * utilization, exportable as JSON.
 */

#ifndef JCACHE_SIM_PARALLEL_HH
#define JCACHE_SIM_PARALLEL_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "util/types.hh"

namespace jcache::sim
{

/**
 * Default worker count for executors constructed with threads = 0:
 * the process-wide override set by setDefaultJobs() if any, else
 * hardware concurrency.  Always at least 1.
 */
unsigned defaultJobs();

/**
 * Process-wide override for defaultJobs(); tools and benches plumb
 * their --jobs flag through here.  0 restores automatic selection.
 */
void setDefaultJobs(unsigned jobs);

/** Wall time and replay volume of one grid job. */
struct JobTiming
{
    double wallSeconds = 0.0;

    /** Instructions replayed by the job (0 for non-replay tasks). */
    Count instructions = 0;
};

/** One failed grid cell: its index and the exception text. */
struct JobFailure
{
    std::size_t index = 0;
    std::string message;
};

/**
 * Observability record of one sweep: per-job timings plus grid-level
 * throughput and utilization.
 */
struct SweepReport
{
    /** Worker threads the grid actually ran on. */
    unsigned threads = 1;

    /** Wall time of the whole grid, start to last completion. */
    double wallSeconds = 0.0;

    /** Per-job timings, ordered by grid index. */
    std::vector<JobTiming> timings;

    /**
     * Cells whose task threw, ordered by grid index.  A failure is
     * confined to its cell: the remaining cells still run, and the
     * caller decides whether partial results are usable.
     */
    std::vector<JobFailure> failures;

    std::size_t jobs() const { return timings.size(); }

    /** True when every cell completed without throwing. */
    bool allSucceeded() const { return failures.empty(); }

    /** Sum of per-job wall times (total busy time across workers). */
    double busySeconds() const;

    /** Instructions replayed across the grid. */
    Count totalInstructions() const;

    /** Replay throughput in million instructions per second. */
    double megaInstructionsPerSecond() const;

    /**
     * Fraction of the pool's capacity spent replaying, in [0, 1]:
     * busySeconds / (threads * wallSeconds).
     */
    double utilization() const;

    /** Grid summary plus the per-job array, as a JSON object. */
    void writeJson(std::ostream& os) const;

    /** One-line human summary for --progress output. */
    std::string summary() const;
};

/**
 * A fixed set of worker threads shared by every grid submitted to it.
 *
 * run() blocks its caller until each index of its grid has run once
 * on a pool worker, and any number of threads may call it at once.
 * An idle worker always takes the next index of the oldest grid that
 * still has indices to hand out, so a one-task grid submitted beside
 * a large one starts on the first worker the large one frees, and
 * the pool never runs more than threads() tasks at once.
 *
 * A task must not throw (ParallelExecutor catches for it), and must
 * not submit to the pool it runs on: once every worker waits in such
 * a task, no worker is left to run the inner grid.
 */
class WorkerPool
{
  public:
    /** Start the workers. @param threads 0 selects defaultJobs(). */
    explicit WorkerPool(unsigned threads);

    /** Joins the workers; no run() may still be in flight. */
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /** Worker thread count. */
    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Invoke task(i) for i in [0, count) on the workers, and return
     * once every call has returned.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)>& task);

    /** Tasks submitted and not yet started, over all grids. */
    std::size_t pending() const;

    /**
     * Fraction of the workers' capacity spent in tasks while the pool
     * held work, in [0, 1]: seconds in finished tasks over threads()
     * × the seconds during which some grid was in flight.  0 before
     * the first grid.
     */
    double utilization() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** One run() call's grid; lives on the submitter's stack. */
    struct Grid
    {
        const std::function<void(std::size_t)>* task = nullptr;
        std::size_t count = 0;
        std::size_t next = 0;      //!< next index to hand out
        std::size_t finished = 0;  //!< tasks that have returned
        Clock::time_point submitted{};
    };

    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable workCv_;  //!< workers wait for an index
    std::condition_variable doneCv_;  //!< submitters wait for a grid

    /** Grids with indices left to hand out, oldest first. */
    std::deque<Grid*> open_;
    std::size_t inFlight_ = 0;       //!< grids submitted, not finished
    Clock::time_point heldSince_{};  //!< when inFlight_ last left 0
    double heldSeconds_ = 0.0;       //!< closed in-flight intervals
    double busySeconds_ = 0.0;       //!< time in finished tasks
    bool stopping_ = false;

    std::vector<std::thread> workers_;
};

/**
 * Runs a sweep grid on a WorkerPool.
 *
 * Workers claim tasks in index order and write each result into its
 * grid slot, so output order is independent of scheduling.  Without
 * a shared pool, runTasks() starts a pool of min(threads, grid size)
 * workers for the call and joins it before returning (replays are
 * milliseconds to seconds, thread start-up is microseconds).
 */
class ParallelExecutor
{
  public:
    /**
     * @param threads worker count; 0 selects defaultJobs().
     * @param pool workers shared with other callers, which then
     *        replace `threads`; null starts a pool per call.  Must
     *        outlive the executor.
     */
    explicit ParallelExecutor(unsigned threads = 0,
                              WorkerPool* pool = nullptr);

    /** Configured worker count (before clamping to a grid's size). */
    unsigned threads() const { return threads_; }

    /**
     * Generic fan-out: invoke task(i) for i in [0, count) across the
     * pool.  The task returns the number of instructions it replayed
     * (0 if not applicable) for the report's throughput accounting.
     * Tasks must write their outputs to per-index slots; the executor
     * guarantees each index runs exactly once.  A task that throws
     * fails only its own cell — the exception text is recorded in the
     * report's failures and every other cell still runs.
     */
    SweepReport
    runTasks(std::size_t count,
             const std::function<Count(std::size_t)>& task) const;

  private:
    unsigned threads_;
    WorkerPool* pool_;
};

} // namespace jcache::sim

#endif // JCACHE_SIM_PARALLEL_HH
