/**
 * @file
 * Scatter/merge sharding of simulation grids across worker daemons.
 *
 * A coordinator jcached owns no executor of its own beyond the usual
 * bounded queue: when a run/sweep job reaches the scheduler, the
 * ShardPool splits its grid cells into chunks of
 * ShardConfig::chunkCells and scatters the chunks as API 1.4 `batch`
 * requests over persistent connections to the configured workers.
 * Every worker computes raw counts through the same sim::runBatch
 * path as a local daemon, and counts round-trip the wire exactly
 * (service/render.hh), so the merged response is byte-identical to
 * a single-node answer.
 *
 * Failure semantics: a chunk that fails on one worker (connect/frame
 * error, daemon error response) is re-queued and re-scattered to any
 * healthy worker; a worker with too many consecutive failures is
 * marked unhealthy and probes with pings until it recovers; `busy`
 * answers honor the daemon's retry_after_ms hint.  The scatter as a
 * whole fails only when the client deadline lapses or no worker can
 * make progress — both surface as CodedErrors (service/render.hh)
 * that the service answers as `deadline_exceeded` /
 * `shard_unavailable`, and per-worker health rides the `node` block
 * of stats/health.
 */

#ifndef JCACHE_SERVICE_SHARD_HH
#define JCACHE_SERVICE_SHARD_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hh"
#include "net/socket.hh"
#include "sim/engine.hh"
#include "sim/trace_ref.hh"

namespace jcache::service
{

/** One worker daemon's address. */
struct WorkerSpec
{
    std::string host;         //!< numeric address, e.g. 127.0.0.1
    std::uint16_t port = 0;   //!< the worker's --port

    /** "host:port", the label used in metrics and health reports. */
    std::string address() const
    {
        return host + ":" + std::to_string(port);
    }
};

/**
 * Parse a comma-separated worker list ("host:port,host:port,...";
 * a bare "port" means 127.0.0.1).  Throws FatalError on malformed
 * entries so a typo fails daemon startup, not the first sweep.
 */
std::vector<WorkerSpec> parseWorkerList(const std::string& text);

/** Point-in-time health of one worker, for the `node` stats block. */
struct WorkerHealth
{
    std::string address;        //!< "host:port"
    bool healthy = true;        //!< false after repeated failures
    std::uint64_t consecutiveFailures = 0;
    std::uint64_t chunksCompleted = 0;   //!< chunks answered ok
    std::uint64_t chunksFailed = 0;      //!< transport/daemon errors
    std::uint64_t rescatters = 0;        //!< chunks requeued elsewhere
};

/** Tunables of the scatter pool (jcached --workers ...). */
struct ShardConfig
{
    /** Worker daemons; empty means single-node (no ShardPool). */
    std::vector<WorkerSpec> workers;

    /**
     * Grid cells per scattered batch.  Only the scatter size: each
     * worker plans its chunk into passes as it would a local batch
     * request.
     */
    std::size_t chunkCells = 16;

    /** Per-operation socket timeout on worker connections. */
    unsigned requestTimeoutMillis = 30000;

    /** Consecutive failures before a worker is marked unhealthy. */
    unsigned failuresToUnhealthy = 3;

    /** Pause between ping probes of an unhealthy worker. */
    unsigned probeIntervalMillis = 200;

    /**
     * Upper bound on attempts per chunk; beyond it the scatter
     * reports shard_unavailable rather than cycling forever.
     */
    unsigned maxChunkAttempts = 16;
};

/**
 * The coordinator's client pool: one connection thread per worker,
 * a shared chunk queue, merge in submission order.
 *
 * execute() is called from the service scheduler thread (one scatter
 * in flight at a time); health() is safe from any thread.
 */
class ShardPool
{
  public:
    explicit ShardPool(const ShardConfig& config);

    /** Joins the worker threads. */
    ~ShardPool();

    ShardPool(const ShardPool&) = delete;
    ShardPool& operator=(const ShardPool&) = delete;

    /**
     * Scatter one grid over the workers and merge the per-cell
     * results back into request order.  `ref` is forwarded on the
     * wire (`trace_ref`, plus the legacy `workload` field for name
     * refs so pre-1.4 workers still serve them); `deadline` (zero =
     * none) becomes each worker's remaining deadline_ms budget.
     * Throws CodedError when the grid cannot complete.
     */
    std::vector<sim::RunResult> execute(
        const sim::TraceRef& ref, bool flush,
        const std::vector<core::CacheConfig>& configs,
        std::chrono::steady_clock::time_point deadline);

    /** Per-worker health, in configuration order. */
    std::vector<WorkerHealth> health() const;

    /** Number of configured workers. */
    std::size_t workerCount() const { return config_.workers.size(); }

  private:
    struct Chunk
    {
        std::size_t firstCell = 0;            //!< offset into the grid
        std::vector<core::CacheConfig> configs;
        unsigned attempts = 0;
    };

    /** One scatter's shared state between execute() and the threads. */
    struct Scatter
    {
        sim::TraceRef ref;
        bool flush = false;
        std::chrono::steady_clock::time_point deadline{};
        std::deque<Chunk> pending;
        std::size_t outstanding = 0;   //!< chunks taken but unfinished
        std::vector<sim::RunResult> results;
        std::string failureCode;
        std::string failureMessage;

        /** Failed recovery probes while no worker was healthy. */
        std::size_t probeFailures = 0;
    };

    struct Worker
    {
        WorkerSpec spec;
        net::Socket socket;
        bool healthy = true;
        std::uint64_t consecutiveFailures = 0;
        std::uint64_t chunksCompleted = 0;
        std::uint64_t chunksFailed = 0;
        std::uint64_t rescatters = 0;
        std::thread thread;
    };

    void workerLoop(Worker& worker);

    /**
     * Run one chunk on one worker.  Returns true when the chunk's
     * results landed; on false the caller requeues it.  `retry_wait`
     * is set to a worker-requested back-off (busy hint) in millis.
     */
    bool runChunk(Worker& worker, Scatter& scatter,
                  const Chunk& chunk, unsigned& retry_wait);

    /** Ensure the worker's connection is open; ping-probe when not. */
    bool ensureConnected(Worker& worker);

    void noteSuccess(Worker& worker);
    void noteFailure(Worker& worker);

    /** Abort the current scatter with a typed failure. */
    void failScatter(const std::string& code,
                     const std::string& message);

    ShardConfig config_;
    std::vector<std::unique_ptr<Worker>> workers_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;   //!< wakes worker threads
    std::condition_variable doneCv_;   //!< wakes execute()
    Scatter* scatter_ = nullptr;       //!< null when idle
    bool stopping_ = false;
};

} // namespace jcache::service

#endif // JCACHE_SERVICE_SHARD_HH
