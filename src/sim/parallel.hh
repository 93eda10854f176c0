/**
 * @file
 * Parallel sweep executor and run observability.
 *
 * Every figure in the paper is a sweep over {cache size x line size x
 * write policy x benchmark}, and each point is an independent replay:
 * the grid is embarrassingly parallel.  ParallelExecutor fans a grid
 * of tasks out over a fixed-size std::thread pool; tasks write their
 * results into per-index slots — keyed by grid index, never by
 * completion order — so an N-thread sweep is bit-for-bit identical to
 * a 1-thread sweep.  The engine (sim/engine.hh) drives it for both
 * the per-cell and the one-pass batch paths.
 *
 * Observability rides along: every run produces a SweepReport with
 * per-job wall time, replayed-instruction throughput and thread
 * utilization, exportable as CSV or JSON.
 */

#ifndef JCACHE_SIM_PARALLEL_HH
#define JCACHE_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "util/types.hh"

namespace jcache::sim
{

/**
 * Default worker count for executors constructed with threads = 0:
 * the process-wide override set by setDefaultJobs() if any, else the
 * JCACHE_JOBS environment variable, else hardware concurrency.
 * Always at least 1.
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

    /** One row per job: index, wall seconds, instructions, M ins/s. */
    void writeCsv(std::ostream& os) const;

    /** Grid summary plus the per-job array, as a JSON object. */
    void writeJson(std::ostream& os) const;

    /** One-line human summary for --progress output. */
    std::string summary() const;
};

/**
 * Fixed-size thread pool over a sweep grid.
 *
 * Workers claim tasks from a shared atomic cursor and write each
 * result into its grid slot, so output order is independent of
 * scheduling.  The pool is sized once at construction; runTasks() may
 * be called repeatedly and spins the pool up per call (replays are
 * milliseconds to seconds, thread start-up is microseconds).
 */
class ParallelExecutor
{
  public:
    /** @param threads worker count; 0 selects defaultJobs(). */
    explicit ParallelExecutor(unsigned threads = 0);

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
};

} // namespace jcache::sim

#endif // JCACHE_SIM_PARALLEL_HH
