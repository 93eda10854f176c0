/**
 * @file
 * The jcached request router, job queue and observability.
 *
 * Service is the transport-independent half of the daemon: it takes
 * one request document (already deframed) and returns one response
 * document.  Behind handle():
 *
 *  - a TraceSet registry bootstrapped once at construction, so no
 *    request ever pays trace generation;
 *  - an LRU ResultCache keyed by the canonical result key
 *    (store/key.hh: trace identity, config, engine kind and version,
 *    API minor), so a repeated point is served without replay — and,
 *    when ServiceConfig::storeDir is set, a persistent ResultStore
 *    underneath it, so results survive restarts and are shared with
 *    `jcache-sweep --incremental`;
 *  - a bounded job queue drained by `--jobs` scheduler threads, each
 *    handing one simulation at a time to the unified engine API
 *    (sim::runBatch) on one WorkerPool of `--jobs` threads that
 *    lives as long as the service — the queue bounds backlog
 *    (overload answers `busy` immediately instead of accumulating
 *    latency), jobs run side by side without ever running more than
 *    `--jobs` passes at once, and the engine keeps every grid
 *    deterministic and parallel (one-pass by default; jcached
 *    --engine percell selects the reference path).
 *
 * Request/response schema is documented in docs/SERVICE.md; every
 * response is a JSON object with an "ok" field, errors carry a
 * machine-readable "code", and a request's "request_id" (if any) is
 * echoed back so retrying clients can correlate responses.  Overload
 * is load-shed, never queued without bound: a full queue answers
 * `busy` with a jittered `retry_after_ms` hint, the CoDel-style
 * admission controller (service/admission.hh) sheds at dequeue when
 * median sojourn stays above target, a request's `deadline_ms`
 * budget that lapses in the queue answers `deadline_exceeded`
 * instead of stale work, and the `health` request reports queue
 * depth, shed counts and cache stats for monitoring.  Cache and
 * store hits are served even while the queue is shedding: lookup
 * happens before admission, so degradation under overload is
 * graceful for repeated work.
 */

#ifndef JCACHE_SERVICE_SERVICE_HH
#define JCACHE_SERVICE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.hh"
#include "service/result_cache.hh"
#include "service/shard.hh"
#include "sim/engine.hh"
#include "sim/sweeps.hh"
#include "sim/trace_ref.hh"
#include "store/store.hh"
#include "telemetry/metrics.hh"

namespace jcache::service
{

class JsonValue;

/**
 * Point-in-time view of one Service's gauges, for the telemetry
 * exporter's scrape-time refresh (jcached samples these into registry
 * gauges) and for anything else that wants the numbers without
 * parsing a stats response.
 */
struct ServiceSnapshot
{
    std::uint64_t requests = 0;
    std::uint64_t runRequests = 0;
    std::uint64_t sweepRequests = 0;
    std::uint64_t batchRequests = 0;
    std::uint64_t uploadRequests = 0;
    std::uint64_t statsRequests = 0;
    std::uint64_t healthRequests = 0;
    std::uint64_t pingRequests = 0;
    std::uint64_t errors = 0;
    std::uint64_t protocolErrors = 0;

    /** Sheds at admission: queue at capacity (or injected). */
    std::uint64_t rejectedBusy = 0;

    /** Sheds at dequeue by the CoDel controller. */
    std::uint64_t shedCodel = 0;

    /** Sheds at dequeue because the client deadline had passed. */
    std::uint64_t shedDeadline = 0;

    /** Every shed, regardless of reason. */
    std::uint64_t shedTotal() const
    {
        return rejectedBusy + shedCodel + shedDeadline;
    }

    std::uint64_t jobsExecuted = 0;
    double jobBusySeconds = 0.0;
    double jobGridSeconds = 0.0;

    /** The worker pool's utilization; 0 on a coordinator (no pool). */
    double poolUtilization = 0.0;
    std::size_t queueDepth = 0;
    std::size_t queueCapacity = 0;
    ResultCacheStats cache;

    /** True when a persistent store backs the memory cache. */
    bool storeEnabled = false;

    /** Persistent-store counters; zeroed when storeEnabled is false. */
    store::StoreStats store;

    double uptimeSeconds = 0.0;

    /** Job wall-time percentiles, from the job histogram. */
    double jobWallP50Seconds = 0.0;
    double jobWallP90Seconds = 0.0;
    double jobWallP99Seconds = 0.0;
    double jobWallMaxSeconds = 0.0;

    /** Queue-sojourn percentiles (admission -> dequeue). */
    double queueWaitP50Seconds = 0.0;
    double queueWaitP99Seconds = 0.0;
    double queueWaitMaxSeconds = 0.0;

    /** Admission-controller view (mode + live state). */
    AdmissionMode admissionMode = AdmissionMode::Codel;
    double admissionTargetMillis = 0.0;
    double admissionIntervalMillis = 0.0;
    AdmissionState admission;

    /** Node role: "single" or "coordinator". */
    std::string role = "single";

    /** Per-worker scatter health; empty on a single node. */
    std::vector<WorkerHealth> workers;

    /** Transport connections open right now (both server kinds). */
    std::uint64_t connectionsOpen = 0;

    /** Transport connections accepted since start. */
    std::uint64_t connectionsAccepted = 0;
};

/** Tunables of one Service instance. */
struct ServiceConfig
{
    /**
     * Threads of the shared worker pool, and of the scheduler threads
     * that drain the queue into it; 0 selects sim::defaultJobs().  A
     * coordinator starts no pool and one scheduler thread.
     */
    unsigned executorThreads = 0;

    /** Replay engine simulation jobs run on (jcached --engine). */
    sim::Engine engine = sim::kDefaultEngine;

    /** Jobs admitted but not yet started; beyond this, `busy`. */
    std::size_t queueCapacity = 64;

    /** Result-cache entries; 0 disables result caching. */
    std::size_t cacheCapacity = 256;

    /**
     * Directory of the persistent result store (jcached --store-dir).
     * Empty disables the disk tier: the memory cache then dies with
     * the process, exactly the pre-store behavior.
     */
    std::string storeDir;

    /** Byte cap of the persistent store (0 = unbounded). */
    std::uint64_t storeCapBytes = 256ull << 20;

    /**
     * Largest accepted uploaded-trace body, in bytes of the encoded
     * text; larger uploads are refused with `trace_too_large` before
     * any parsing.  Also bounds the memory an upload can pin while
     * queued.
     */
    std::size_t uploadCapBytes = 4u << 20;

    /**
     * Trace registry override for tests; null uses
     * sim::TraceSet::extended() (the six paper benchmarks plus the
     * production workloads).  Not owned; must outlive the Service.
     */
    const sim::TraceSet* traces = nullptr;

    /**
     * Admission policy (jcached --admission and friends): the fixed
     * queue cap always applies; in Codel mode (the default) the
     * sojourn-time controller additionally sheds at dequeue.  See
     * service/admission.hh.
     */
    AdmissionConfig admission;

    /**
     * Seed of the deterministic retry_after_ms jitter.  Two sheds
     * draw distinct hints from one seeded sequence, so a herd of
     * shed clients spreads out instead of returning in lockstep.
     */
    std::uint64_t retryJitterSeed = 42;

    /**
     * Largest accepted `batch` request, in grid cells.  The shard
     * coordinator scatters 16-cell chunks (ShardConfig::chunkCells,
     * a scatter size, not an engine boundary); the cap only guards a
     * hand-built request from queueing unbounded work.
     */
    std::size_t batchCapCells = 1024;

    /**
     * Shard topology (jcached --coordinator --workers ...).  A
     * non-empty worker list makes this service a coordinator: run,
     * sweep and batch grids scatter to the workers instead of the
     * local engine.  Uploads always execute locally — the trace body
     * exists only on this node.
     */
    ShardConfig shard;

    /**
     * Replay-cache directory of the daemon's TraceRepository
     * (jcached --trace-cache-dir).  When set, digest refs also
     * resolve against `<digest>.jcrc` files there and replay them
     * mmap'd.  Empty disables the mapped tier.
     */
    std::string traceCacheDir;

    /** Uploaded traces retained for by-digest runs (FIFO evicted). */
    std::size_t uploadTraceCapacity = 64;
};

/**
 * Transport-independent request processor.
 *
 * handle() is safe to call from any number of connection threads
 * concurrently; up to executorThreads simulation jobs run at once,
 * one per scheduler thread, and their passes share one worker pool,
 * oldest job first.
 */
class Service
{
  public:
    explicit Service(const ServiceConfig& config = {});

    /** Drains the queue, then joins the scheduler threads and pool. */
    ~Service();

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /**
     * Process one request document and return the response document.
     * Never throws: malformed input produces an `ok: false` response.
     * A blocking wrapper over handleAsync() for in-process callers
     * and tests.
     */
    std::string handle(const std::string& request_json);

    /** Receives the response document, exactly once per request. */
    using ResponseCallback = std::function<void(std::string)>;

    /**
     * Process one request document without blocking the caller on
     * simulation work.  Requests answered from the cache (or that
     * fail validation) invoke `done` before returning; queued jobs
     * invoke it later from a scheduler thread.  The reactor calls
     * this so one event-loop thread can keep every connection moving
     * while jobs drain through the bounded queue.
     */
    void handleAsync(const std::string& request_json,
                     ResponseCallback done);

    /** True once a shutdown request has been accepted. */
    bool shutdownRequested() const { return shutdown_.load(); }

    /**
     * Count a transport-level protocol violation (truncated or
     * oversized frame); surfaces in the stats response.
     */
    void noteProtocolError();

    /** Transport accounting: a connection was accepted / went away. */
    void noteConnectionAccepted();
    void noteConnectionClosed();

    /** Number of jobs waiting in the queue right now. */
    std::size_t queueDepth() const;

    /** Sample the service's observable state (see ServiceSnapshot). */
    ServiceSnapshot snapshot() const;

  private:
    struct JobOutcome
    {
        std::string payload;
        std::string error;

        /**
         * Machine-readable code accompanying `error`; empty maps to
         * the generic "bad_request".  The shard layer sets typed
         * codes ("shard_unavailable", "deadline_exceeded") so a
         * coordinator outage is distinguishable from bad input.
         */
        std::string errorCode;

        /**
         * Shed reason decided at dequeue: empty when the job ran,
         * "busy" for a CoDel shed, "deadline_exceeded" when the
         * client's budget lapsed in the queue.
         */
        std::string shedCode;

        /** Back-off hint accompanying a "busy" shedCode. */
        unsigned retryAfterMillis = 0;

        /** Time the job spent queued before being shed. */
        double waitedMillis = 0.0;
    };

    /**
     * One queued simulation: the scheduler fills `outcome`, then
     * invokes `complete` exactly once (run, shed or failed).  The
     * completion owns everything the response needs, so the
     * submitting thread is long gone by the time a reactor-submitted
     * job finishes.
     */
    struct Job
    {
        std::function<std::string()> work;
        std::function<void(JobOutcome&&)> complete;
        JobOutcome outcome;

        /**
         * When the submitter enqueued the job; always sampled — the
         * scheduler derives the sojourn (and the CoDel decision)
         * from it, not just the queue-wait span.
         */
        std::chrono::steady_clock::time_point submitted{};

        /**
         * Absolute instant the client's deadline_ms budget expires;
         * zero when the request carried no deadline.
         */
        std::chrono::steady_clock::time_point deadline{};
    };

    void handleRun(const JsonValue& request,
                   const std::string& request_id,
                   ResponseCallback done);
    void handleSweep(const JsonValue& request,
                     const std::string& request_id,
                     ResponseCallback done);
    void handleUpload(const JsonValue& request,
                      const std::string& request_id,
                      ResponseCallback done);
    void handleBatch(const JsonValue& request,
                     const std::string& request_id,
                     ResponseCallback done);
    std::string handleStats(const std::string& request_id);
    std::string handleHealth(const std::string& request_id);
    std::string handlePing(const std::string& request_id);
    std::string handleShutdown(const std::string& request_id);

    /**
     * Push `work` through the bounded queue.  Returns false when the
     * job was shed at admission (queue full or injected overload) —
     * `complete` is then never invoked and the caller answers busy.
     * Otherwise `complete` fires exactly once from a scheduler
     * thread (after the job ran, shed at dequeue, or failed).
     * `deadline` (zero = none) rides along for the expiry check.
     */
    bool submitAsync(std::function<std::string()> work,
                     std::function<void(JobOutcome&&)> complete,
                     std::chrono::steady_clock::time_point deadline =
                         {});

    /**
     * Run one grid of cells: locally through sim::runBatch, or — on
     * a coordinator — scattered over the shard pool (which forwards
     * `ref` on the wire).  Called from a scheduler thread inside a
     * job's work; throws FatalError (or ShardError) on failure.
     */
    std::vector<sim::RunResult> executeCells(
        const sim::ResolvedTrace& resolved, const sim::TraceRef& ref,
        const std::vector<core::CacheConfig>& configs, bool flush,
        std::chrono::steady_clock::time_point deadline);

    /**
     * Resolve a request's trace reference, materializing the records
     * when the configured engine needs them in memory.  Throws
     * sim::UnknownTraceError (answered as `unknown_trace`) when
     * nothing satisfies the ref.
     */
    sim::ResolvedTrace resolveRef(const sim::TraceRef& ref);

    /**
     * Back-off hint for a shed job, in milliseconds: ⌈queue depth /
     * scheduler threads⌉ (the rounds of jobs ahead, at least one)
     * times the median job wall time, scaled by `scale` (the CoDel
     * control law passes 1/sqrt(dropCount)), jittered ±25% from a
     * seeded deterministic sequence, clamped to [50, 5000].
     */
    unsigned retryAfterMillis(double scale = 1.0) const;

    /** Answer a request whose deadline lapsed before queueing. */
    std::string shedExpiredAtAdmission(const std::string& request_id);

    /** Resolve outcome/busy/shed into the response for a handler. */
    std::string jobResponse(bool admitted, const JobOutcome& outcome,
                            const std::string& type,
                            const std::string& digest,
                            const std::string& request_id);

    /**
     * Two-tier result lookup: memory first, then the persistent
     * store (when configured), promoting a disk hit into the memory
     * cache so the next lookup is free.
     */
    std::optional<std::string> cacheLookup(const std::string& digest);

    /** Insert into the memory cache and (when open) the store. */
    void cacheInsert(const std::string& digest,
                     const std::string& payload);

    void schedulerLoop();

    /** Answer a dequeued job with a shed instead of running it. */
    void shedAtDequeue(Job& job, const std::string& code,
                       unsigned retry_after_millis,
                       double waited_millis);

    void recordJobTiming(double job_seconds,
                         const sim::SweepReport& report);

    /** Stats/health payloads, both built from one snapshot(). */
    std::string statsPayload(const ServiceSnapshot& snap) const;
    std::string healthPayload(const ServiceSnapshot& snap) const;

    ServiceConfig config_;
    const sim::TraceSet& traces_;

    /** Resolved worker width reported by stats (0 never escapes). */
    unsigned executorThreads_;
    ResultCache cache_;

    /** Disk tier under the memory cache; null when storeDir empty. */
    std::unique_ptr<store::ResultStore> store_;

    /** Scatter pool; null unless configured as a coordinator. */
    std::unique_ptr<ShardPool> shard_;

    /**
     * Resolves every request's trace reference: the registry by
     * name, uploads and `<digest>.jcrc` files by digest.  Path refs
     * never resolve here — the wire must not name server-side files.
     */
    sim::TraceRepository repo_;

    std::atomic<bool> shutdown_{false};
    std::atomic<bool> stopping_{false};

    /** Transport connection gauges (fed by both server kinds). */
    std::atomic<std::uint64_t> connectionsOpen_{0};
    std::atomic<std::uint64_t> connectionsAccepted_{0};

    mutable std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<Job> queue_;

    mutable std::mutex stats_mutex_;
    std::uint64_t requests_ = 0;
    std::uint64_t runRequests_ = 0;
    std::uint64_t sweepRequests_ = 0;
    std::uint64_t batchRequests_ = 0;
    std::uint64_t uploadRequests_ = 0;
    std::uint64_t statsRequests_ = 0;
    std::uint64_t healthRequests_ = 0;
    std::uint64_t pingRequests_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t protocolErrors_ = 0;
    std::uint64_t rejectedBusy_ = 0;
    std::uint64_t shedCodel_ = 0;
    std::uint64_t shedDeadline_ = 0;
    std::uint64_t jobsExecuted_ = 0;
    double jobBusySeconds_ = 0.0;
    double jobGridSeconds_ = 0.0;

    /** The sojourn-time decision box (see admission.hh). */
    AdmissionController admission_;

    /**
     * Deterministic jitter sequence for retry_after_ms: each shed
     * consumes one draw, so concurrent sheds get distinct hints.
     */
    mutable std::atomic<std::uint64_t> jitterSeq_{0};

    /**
     * Job wall times in a fixed-bucket histogram: O(buckets) memory
     * no matter how long the daemon runs, and percentile reads do not
     * hold stats_mutex_ (the histogram is internally thread-safe).
     * Owned directly — retry_after_ms depends on its p50 whether or
     * not a telemetry exporter is attached.
     */
    telemetry::Histogram jobWall_;

    /**
     * Queue-sojourn times (admission -> dequeue), same fixed-bucket
     * discipline as jobWall_; feeds stats.queue.wait_seconds and the
     * scrape-time sojourn gauges.
     */
    telemetry::Histogram queueWait_;
    std::chrono::steady_clock::time_point start_;

    /** Workers every local job's passes run on; null on a coordinator. */
    std::unique_ptr<sim::WorkerPool> pool_;

    /** Drain queue_ into pool_ (one on a coordinator). */
    std::vector<std::thread> schedulers_;
};

} // namespace jcache::service

#endif // JCACHE_SERVICE_SERVICE_HH
