/**
 * @file
 * The jcached request router, job queue and observability.
 *
 * Service is the transport-independent half of the daemon: it takes
 * one request document (already deframed) and returns one response
 * document.  Behind handle():
 *
 *  - a TraceSet registry, generated once, on a thread of its own,
 *    when the first request needs it: a `name:` ref, or a `digest:`
 *    ref that neither an upload nor a `--trace-cache-dir` file
 *    holds.  A daemon that replays only uploads and cache files
 *    never generates it, and no caller of handleAsync() waits for it;
 *  - an LRU ResultCache keyed by the canonical result key
 *    (store/key.hh: trace identity, config, engine kind and version,
 *    API minor), so a repeated point is served without replay — and,
 *    when ServiceConfig::storeDir is set, a persistent ResultStore
 *    underneath it, so results survive restarts and are shared with
 *    `jcache-sweep --incremental`.  A job is answered before its
 *    result is on disk: a store::WriteBuffer takes the put and its
 *    writer thread retires it, and lookups see the buffered results;
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

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
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
#include "store/write_buffer.hh"
#include "telemetry/metrics.hh"

namespace jcache::service
{

class JsonValue;

/**
 * The request types that the stats document counts one by one, in
 * the order its `requests` block lists them.  Every other request
 * (shutdown, or an unknown type) counts only in the total.
 */
inline constexpr std::array<const char*, 7> kCountedRequestTypes = {
    "run", "sweep", "batch", "upload", "stats", "health", "ping"};

/**
 * Point-in-time view of one Service's gauges, for the telemetry
 * exporter's scrape-time refresh (jcached samples these into registry
 * gauges) and for anything else that wants the numbers without
 * parsing a stats response.
 */
struct ServiceSnapshot
{
    std::uint64_t requests = 0;

    /** Requests of each kCountedRequestTypes entry, by index. */
    std::array<std::uint64_t, kCountedRequestTypes.size()>
        requestsByType{};

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

    /** Transport connections open right now. */
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
     * Builds the trace registry and returns it: by default
     * sim::TraceSet::extended(), the six paper benchmarks plus the
     * production workloads.  Called on the service's builder thread
     * when the first request needs a registry trace; tests swap in a
     * build they hold or fail.  The set must outlive the Service.
     */
    std::function<const sim::TraceSet&()> registry =
        &sim::TraceSet::extended;

    /**
     * Admission policy (jcached --admission and friends): the fixed
     * queue cap always applies; in Codel mode (the default) the
     * sojourn-time controller additionally sheds at dequeue.  See
     * service/admission.hh.
     */
    AdmissionConfig admission;

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

    /**
     * The admission clock: it stamps a request's arrival (where its
     * deadline_ms budget starts), its job's enqueue and its dequeue,
     * and the two last give the sojourn the CoDel controller judges.
     * Empty reads std::chrono::steady_clock.  For tests, which drive
     * sojourns by hand so that they do not depend on the host's
     * scheduling; jcached never sets it.
     */
    std::function<std::chrono::steady_clock::time_point()> clock;
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

    /**
     * Drains the queue and joins the scheduler threads, then retires
     * every buffered store put and answers every `stats` request
     * waiting behind them, then joins the pool.
     */
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
     * simulation work or on trace generation.  Requests answered
     * from the cache (or that fail validation) invoke `done` before
     * returning; queued jobs invoke it later from a scheduler thread.
     * A request that needs the registry before it is built is
     * dispatched again, from the builder thread, once it is.  The
     * reactor calls this so one event-loop thread can keep every
     * connection moving while jobs drain through the bounded queue.
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
    using Clock = std::chrono::steady_clock;

    /**
     * One simulation request, described once by its type's describe
     * step: what to replay, how to key the result, and the few
     * payload fields only its type adds.
     */
    struct JobSpec
    {
        /** "run", "sweep", "batch" or "upload": the response type. */
        std::string type;

        /** The trace to replay; shares its records or mapping. */
        sim::ResolvedTrace resolved;

        /**
         * The ref a coordinator forwards to its workers.  Empty for
         * an upload: its body exists only on this node, so a job
         * without a ref always runs locally.
         */
        sim::TraceRef ref;

        std::vector<core::CacheConfig> configs;
        bool flush = false;

        /** Result-cache and store key (store/key.hh). */
        std::string key;

        /** A sweep's axis and point labels; empty for other types. */
        std::string axis;
        std::vector<std::string> labels;
    };

    /** What running a job produced: a payload, or an error. */
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
    };

    /**
     * One queued job.  It owns everything its response needs, so the
     * submitting thread is long gone by the time a reactor-submitted
     * job finishes; a scheduler thread answers it exactly once (run,
     * shed or failed).
     */
    struct Job
    {
        JobSpec spec;
        std::string requestId;
        ResponseCallback reply;

        /**
         * When the submitter enqueued the job; always sampled — the
         * scheduler derives the sojourn (and the CoDel decision)
         * from it, not just the queue-wait span.
         */
        Clock::time_point submitted{};

        /**
         * Absolute instant the client's deadline_ms budget expires;
         * zero when the request carried no deadline.
         */
        Clock::time_point deadline{};
    };

    /**
     * Route one validated request by its type: answer it, admit its
     * job, or, when its trace needs the registry before it is built,
     * hand it to awaitRegistry().  Answers every refusal.
     */
    void dispatch(const std::string& type, JsonValue request,
                  Clock::time_point received,
                  const std::string& request_id, ResponseCallback done);

    /** Answer a refused request with `code`; counted as an error. */
    void refuse(const std::string& code, const std::string& message,
                const std::string& request_id,
                const ResponseCallback& done);

    /** A request waiting for the registry's build. */
    struct RegistryWaiter
    {
        std::string requestId;
        ResponseCallback done;

        /** Dispatch the request again. */
        std::function<void()> retry;
    };

    /**
     * Park `waiter` until the registry is built, starting the build
     * on registryBuilder_ unless one is running; retry it at once if
     * the registry was built meanwhile.
     */
    void awaitRegistry(RegistryWaiter waiter);

    /**
     * registryBuilder_'s body: build the registry, publish it in
     * registry_, then retry every waiter in arrival order, or refuse
     * each with `internal_error` if the build threw.
     */
    void buildRegistry();

    /**
     * The describe steps, one per job type: parse and validate the
     * request, resolve its trace and derive its result key.  Each
     * throws on a refusal, which dispatch() answers with its code.
     */
    JobSpec describeRun(const JsonValue& request);
    JobSpec describeSweep(const JsonValue& request);
    JobSpec describeBatch(const JsonValue& request);
    JobSpec describeUpload(const JsonValue& request);

    /**
     * The one admit-and-run path of every job type: answer a cache
     * or store hit (even under an expired deadline), shed a request
     * whose deadline lapsed before queueing, else queue the job, or
     * answer `busy` when the queue refuses it.
     */
    void admit(JobSpec spec, const JsonValue& request,
               Clock::time_point received,
               const std::string& request_id,
               const ResponseCallback& done);

    /**
     * Push a job through the bounded queue.  Returns false when it
     * was shed at admission (queue full or injected overload); the
     * job is then dropped unanswered and the caller answers busy.
     */
    bool submitAsync(Job job);

    /**
     * Run one job's grid: scattered over the shard pool on a
     * coordinator (which forwards the job's ref), else locally
     * through sim::runBatch.  Called from a scheduler thread; throws
     * FatalError (or CodedError) on failure.
     */
    std::vector<sim::RunResult> executeCells(const JobSpec& spec,
                                             Clock::time_point deadline);

    /**
     * A job's payload document, its fields in each type's wire
     * order: `workload` and `trace_digest`; a sweep's `axis` and
     * `labels`, else `flushed`; an upload's `records`; then `result`
     * for run and upload, `results` for sweep and batch.
     */
    static std::string renderPayload(
        const JobSpec& spec, const std::vector<sim::RunResult>& results);

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

    /** The response to a job that ran; caches its payload. */
    std::string jobResponse(const JobOutcome& outcome,
                            const JobSpec& spec,
                            const std::string& request_id);

    /**
     * Two-tier result lookup: memory first, then (when configured)
     * the store's write buffer and the persistent store, promoting
     * their hit into the memory cache so the next lookup is free.
     */
    std::optional<std::string> cacheLookup(const std::string& digest);

    /**
     * Insert into the memory cache and, when a store is open, append
     * the put to the write buffer.  A store put that fails is counted
     * by the store and swallowed on the writer thread.
     */
    void cacheInsert(const std::string& digest,
                     const std::string& payload);

    /** Read the admission clock (ServiceConfig::clock). */
    Clock::time_point admissionNow() const;

    void schedulerLoop();

    /**
     * Answer a dequeued job with a shed `response` instead of running
     * it, counted as a deadline shed or a CoDel shed.
     */
    void shedAtDequeue(Job& job, bool deadline, std::string response);

    /** Stats/health payloads, both built from one snapshot(). */
    std::string statsPayload(const ServiceSnapshot& snap) const;
    std::string healthPayload(const ServiceSnapshot& snap) const;

    ServiceConfig config_;

    /** Resolved worker width reported by stats (0 never escapes). */
    unsigned executorThreads_;
    ResultCache cache_;

    /** Disk tier under the memory cache; null when storeDir empty. */
    std::unique_ptr<store::ResultStore> store_;

    /**
     * The puts into store_ not yet retired, and the writer thread
     * that retires them; null exactly when store_ is.
     */
    std::unique_ptr<store::WriteBuffer> writeBuffer_;

    /** Scatter pool; null unless configured as a coordinator. */
    std::unique_ptr<ShardPool> shard_;

    /**
     * Resolves every request's trace reference: the registry by
     * name; uploads, `<digest>.jcrc` files, then the registry by
     * digest.  Path refs never resolve here — the wire must not name
     * server-side files.  Its registry getter returns registry_ and
     * throws RegistryPending while that is null, so a resolve never
     * builds the registry.
     */
    sim::TraceRepository repo_;

    /** The built registry; null until buildRegistry() publishes it. */
    std::atomic<const sim::TraceSet*> registry_{nullptr};

    /**
     * Guards registry_'s publication and the two members below; the
     * waiter list is empty exactly when no build is running.
     */
    std::mutex registry_mutex_;
    std::vector<RegistryWaiter> registryWaiters_;
    std::thread registryBuilder_;

    std::atomic<bool> shutdown_{false};
    std::atomic<bool> stopping_{false};

    /** Transport connection gauges (fed by the AsyncServer). */
    std::atomic<std::uint64_t> connectionsOpen_{0};
    std::atomic<std::uint64_t> connectionsAccepted_{0};

    mutable std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<Job> queue_;

    mutable std::mutex stats_mutex_;
    std::uint64_t requests_ = 0;
    std::array<std::uint64_t, kCountedRequestTypes.size()>
        requestsByType_{};
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
