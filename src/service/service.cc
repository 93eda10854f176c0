/**
 * @file
 * Implementation of the request router and job queue.
 */

#include "service/service.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "service/json_value.hh"
#include "service/render.hh"
#include "stats/json.hh"
#include "store/key.hh"
#include "trace/import.hh"
#include "trace/trace.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace_writer.hh"
#include "util/digest.hh"
#include "util/fault.hh"
#include "util/fs.hh"
#include "util/logging.hh"
#include "util/version.hh"

namespace jcache::service
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Seed of the deterministic retry_after_ms jitter.  Two sheds draw
 * distinct hints from one seeded sequence, so a herd of shed clients
 * spreads out instead of returning in lockstep.
 */
constexpr std::uint64_t kRetryJitterSeed = 42;

/**
 * Largest accepted `batch` request, in grid cells.  The shard
 * coordinator scatters 16-cell chunks (a scatter size, not an engine
 * boundary); the cap only guards a hand-built request from queueing
 * unbounded work.
 */
constexpr std::size_t kBatchCapCells = 1024;

/** Bump the armed-only per-type request counter. */
void
countRequest(const std::string& type)
{
    if (!telemetry::armed())
        return;
    telemetry::Registry::instance()
        .counter("jcache_requests_total",
                 "Requests handled, by request type",
                 {{"type", type}})
        .inc();
}


/** An `ok: false` response with a machine-readable code. */
std::string
errorResponse(const std::string& code, const std::string& message,
              const std::string& request_id = "")
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("ok", false);
    json.field("code", code);
    json.field("error", message);
    if (!request_id.empty())
        json.field("request_id", request_id);
    json.endObject();
    return oss.str();
}

/** The `busy` shed response, with its client back-off hint. */
std::string
busyResponse(unsigned retry_after_millis,
             const std::string& request_id)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("ok", false);
    json.field("code", "busy");
    json.field("error", "job queue is overloaded; retry later");
    json.field("retry_after_ms",
               static_cast<double>(retry_after_millis));
    if (!request_id.empty())
        json.field("request_id", request_id);
    json.endObject();
    return oss.str();
}

/**
 * The `deadline_exceeded` shed response: the client's budget lapsed
 * before the job could run, so the answer would arrive too late to
 * matter.  Distinct from `busy` — retrying with the same budget is
 * pointless unless the queue has drained, and a client tracking a
 * total deadline should usually give up instead.
 */
std::string
deadlineResponse(double waited_millis, const std::string& request_id)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("ok", false);
    json.field("code", "deadline_exceeded");
    json.field("error",
               "deadline expired before the job could run");
    json.field("waited_ms", waited_millis);
    if (!request_id.empty())
        json.field("request_id", request_id);
    json.endObject();
    return oss.str();
}

/** Bump the armed-only shed counter, labeled by reason. */
void
countShed(const char* reason)
{
    if (!telemetry::armed())
        return;
    telemetry::Registry::instance()
        .counter("jcache_jobs_shed_total",
                 "Jobs shed instead of run, by reason",
                 {{"reason", reason}})
        .inc();
}

/** splitmix64: the jitter stream behind retry_after_ms. */
std::uint64_t
mixJitter(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * A request's deadline, resolved against its arrival instant.
 * `at` stays zero when the request carries no deadline_ms.
 */
struct RequestDeadline
{
    Clock::time_point at{};
    bool expired = false;
};

std::chrono::steady_clock::duration
millisDuration(double millis)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(millis));
}

/** An `ok: true` envelope around a serialized result payload. */
std::string
okResponse(const std::string& type, const std::string& digest,
           bool cached, const std::string& payload,
           const std::string& request_id = "")
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("ok", true);
    json.field("type", type);
    json.field("digest", digest);
    json.field("cached", cached);
    if (!request_id.empty())
        json.field("request_id", request_id);
    json.rawField("payload", payload);
    json.endObject();
    return oss.str();
}

/**
 * Resolve a request's optional deadline_ms budget against its
 * arrival instant.  A missing field means no deadline; a present but
 * non-positive (or non-numeric) budget is already expired.
 */
RequestDeadline
parseDeadline(const JsonValue& request, Clock::time_point received)
{
    RequestDeadline deadline;
    if (!request.has("deadline_ms"))
        return deadline;
    double millis = request.getNumber("deadline_ms", 0.0);
    if (millis <= 0.0) {
        deadline.expired = true;
        return deadline;
    }
    deadline.at = received + millisDuration(millis);
    return deadline;
}

/**
 * The request's trace reference: the API 1.4 `trace_ref` spec when
 * present, else the legacy `workload` name.  Path refs are refused —
 * the wire must never name server-side files.
 */
sim::TraceRef
parseTraceRef(const JsonValue& request, const std::string& type)
{
    std::string spec = request.getString("trace_ref");
    if (spec.empty())
        spec = request.getString("workload");
    fatalIf(spec.empty(),
            type + " request needs a 'trace_ref' (or a 'workload' name)");
    std::optional<sim::TraceRef> ref = sim::TraceRef::parse(spec);
    fatalIf(!ref, "malformed trace reference: '" + spec + "'");
    fatalIf(ref->kind() == sim::TraceRef::Kind::Path,
            "this daemon accepts name: and digest: trace references, "
            "not paths");
    return *ref;
}

/**
 * Collapse a report's per-cell failures into one error message; the
 * caller throws it so the submitter sees a `bad_request`, never a
 * payload silently built from partial results.
 */
std::string
describeFailures(const sim::SweepReport& report)
{
    std::ostringstream oss;
    oss << report.failures.size() << " of " << report.jobs()
        << " grid cells failed:";
    for (const sim::JobFailure& f : report.failures)
        oss << " [" << f.index << "] " << f.message << ';';
    std::string text = oss.str();
    text.pop_back();
    return text;
}

/** Armed-only counters for the uploaded-trace import site. */
void
countImport(bool accepted, std::size_t bytes, std::size_t records)
{
    if (!telemetry::armed())
        return;
    telemetry::Registry& reg = telemetry::Registry::instance();
    reg.counter("jcache_trace_import_total",
                "Uploaded-trace import attempts, by outcome",
                {{"outcome", accepted ? "accepted" : "rejected"}})
        .inc();
    if (!accepted)
        return;
    reg.counter("jcache_trace_import_bytes_total",
                "Encoded bytes of accepted trace uploads")
        .inc(bytes);
    reg.counter("jcache_trace_import_records_total",
                "Records decoded from accepted trace uploads")
        .inc(records);
}

/**
 * True when a request's `api_version` names the daemon's major: the
 * API version rides inside the protocol, and a matching major means
 * additive-compatible.  Any other major is refused with a typed error
 * rather than a downstream parse failure.
 */
bool
speaksApiMajor(const JsonValue& api)
{
    if (!api.isString() || api.string().empty())
        return false;
    const std::string& text = api.string();
    unsigned major = 0;
    std::size_t k = 0;
    while (k < text.size() && text[k] >= '0' && text[k] <= '9') {
        major = major * 10 + (text[k] - '0');
        ++k;
    }
    return k > 0 && (k == text.size() || text[k] == '.') &&
           major == kApiVersionMajor;
}

std::string
pingResponse(const std::string& request_id)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("ok", true);
    json.field("type", "ping");
    json.field("version", std::string(kVersion));
    json.field("protocol", static_cast<double>(kProtocolVersion));
    json.field("api_version", std::string(kApiVersion));
    if (!request_id.empty())
        json.field("request_id", request_id);
    json.endObject();
    return oss.str();
}

std::string
shutdownResponse(const std::string& request_id)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("ok", true);
    json.field("type", "shutdown");
    json.field("draining", true);
    if (!request_id.empty())
        json.field("request_id", request_id);
    json.endObject();
    return oss.str();
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Thrown by the repository's registry getter while the registry is
 * not built: the request waits for Service::buildRegistry().
 */
struct RegistryPending
{
};

/** TraceRepository wiring of one daemon: registry + uploads (at the
 * repository's default capacity) + optional mapped tier. */
sim::TraceRepository::Config
repoConfig(const ServiceConfig& config,
           std::function<const sim::TraceSet&()> registry)
{
    sim::TraceRepository::Config rc;
    rc.registry = std::move(registry);
    rc.cacheDir = config.traceCacheDir;
    return rc;
}

} // namespace

Service::Service(const ServiceConfig& config)
    : config_(config),
      executorThreads_(config.executorThreads == 0
                           ? sim::defaultJobs()
                           : config.executorThreads),
      cache_(config.cacheCapacity),
      repo_(repoConfig(config,
                       [this]() -> const sim::TraceSet& {
                           const sim::TraceSet* registry =
                               registry_.load(std::memory_order_acquire);
                           if (!registry)
                               throw RegistryPending();
                           return *registry;
                       })),
      admission_(config.admission),
      start_(Clock::now())
{
    if (!config_.storeDir.empty()) {
        store::StoreConfig store_config;
        store_config.dir = config_.storeDir;
        store_config.capBytes = config_.storeCapBytes;
        store_ = std::make_unique<store::ResultStore>(store_config);
        writeBuffer_ = std::make_unique<store::WriteBuffer>(*store_);
    }
    if (!config_.shard.workers.empty())
        shard_ = std::make_unique<ShardPool>(config_.shard);
    // A coordinator's jobs scatter to its workers, so it runs them
    // one at a time and needs no pool of its own.
    if (!shard_)
        pool_ = std::make_unique<sim::WorkerPool>(executorThreads_);
    const unsigned schedulers = shard_ ? 1 : executorThreads_;
    for (unsigned t = 0; t < schedulers; ++t)
        schedulers_.emplace_back([this] { schedulerLoop(); });
}

Service::~Service()
{
    // A build in flight dispatches its waiters, through the queue the
    // schedulers below are still draining.
    if (registryBuilder_.joinable())
        registryBuilder_.join();
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        stopping_.store(true);
    }
    queue_cv_.notify_all();
    for (std::thread& t : schedulers_)
        t.join();
    // The schedulers' last puts are buffered: retire them, and answer
    // the stats requests queued behind them.
    writeBuffer_.reset();
}

void
Service::schedulerLoop()
{
    for (;;) {
        Job job;
        std::size_t queued_behind = 0;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] {
                return stopping_.load() || !queue_.empty();
            });
            if (queue_.empty()) {
                // stopping_ with a non-empty queue still drains: an
                // accepted job must complete or its submitter hangs.
                return;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            queued_behind = queue_.size();
        }
        // The queue wait (sojourn) starts on the submitter's thread
        // and ends here: it feeds the wait histogram, the queue-wait
        // span, the CoDel controller, and the deadline check.
        Clock::time_point now = admissionNow();
        double sojourn_seconds =
            std::chrono::duration<double>(now - job.submitted)
                .count();
        if (sojourn_seconds < 0.0)
            sojourn_seconds = 0.0;
        queueWait_.observe(sojourn_seconds);
        if (telemetry::armed()) {
            static telemetry::Histogram& wait =
                telemetry::Registry::instance().histogram(
                    "jcache_job_queue_wait_seconds",
                    "Queue sojourn of one job, admission to dequeue");
            wait.observe(sojourn_seconds);
        }
        if (telemetry::tracing())
            telemetry::recordSpan("job.queue_wait", "service",
                                  job.submitted, now);

        // The controller samples every dequeue (both modes); the
        // deadline verdict overrides its shed because a lapsed job
        // is dead work no matter how the queue is doing.
        bool codel_shed = admission_.shouldShed(
            sojourn_seconds, queued_behind, now);
        if (job.deadline.time_since_epoch().count() != 0 &&
            now >= job.deadline) {
            shedAtDequeue(job, true,
                          deadlineResponse(sojourn_seconds * 1000.0,
                                           job.requestId));
            continue;
        }
        if (codel_shed) {
            // The CoDel control law: consecutive sheds invite retries
            // back progressively sooner instead of piling everyone
            // onto the full nominal back-off.
            double scale =
                1.0 /
                std::sqrt(static_cast<double>(
                    std::max<std::uint64_t>(1, admission_.dropCount())));
            shedAtDequeue(job, false,
                          busyResponse(retryAfterMillis(scale),
                                       job.requestId));
            continue;
        }
        if (JCACHE_FAULT("service.delay")) {
            // Chaos/regression hook: make this job observably slow so
            // shutdown-drain races have a window to land in.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(300));
        }
        Clock::time_point start = Clock::now();
        JobOutcome outcome;
        {
            telemetry::Span run_span("job.run", "service");
            try {
                outcome.payload = renderPayload(
                    job.spec, executeCells(job.spec, job.deadline));
            } catch (const CodedError& e) {
                outcome.error = e.what();
                outcome.errorCode = e.code();
            } catch (const FatalError& e) {
                outcome.error = e.what();
            } catch (const std::exception& e) {
                outcome.error =
                    std::string("internal error: ") + e.what();
            }
        }
        // Account the job before answering it: a stats request
        // issued right after a run must already see it.
        jobWall_.observe(secondsSince(start));
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++jobsExecuted_;
        }
        if (telemetry::armed()) {
            static telemetry::Counter& jobs =
                telemetry::Registry::instance().counter(
                    "jcache_jobs_executed_total",
                    "Simulation jobs drained from the queue");
            jobs.inc();
        }
        job.reply(jobResponse(outcome, job.spec, job.requestId));
    }
}

void
Service::shedAtDequeue(Job& job, bool deadline, std::string response)
{
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        if (deadline)
            ++shedDeadline_;
        else
            ++shedCodel_;
    }
    countShed(deadline ? "deadline" : "codel");
    job.reply(std::move(response));
}

bool
Service::submitAsync(Job job)
{
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (stopping_.load() ||
            queue_.size() >= config_.queueCapacity ||
            JCACHE_FAULT("service.admit")) {
            countShed("queue_cap");
            std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++rejectedBusy_;
            return false;
        }
        job.submitted = admissionNow();
        queue_.push_back(std::move(job));
    }
    queue_cv_.notify_one();
    return true;
}

std::vector<sim::RunResult>
Service::executeCells(const JobSpec& spec, Clock::time_point deadline)
{
    Clock::time_point start = Clock::now();
    std::vector<sim::RunResult> results;
    sim::SweepReport report;
    if (shard_ && !spec.ref.empty()) {
        // Coordinator: the grid runs on the workers, which resolve
        // the forwarded ref themselves.  Timing still lands in the
        // job histogram (scatter wall time is the coordinator's job
        // wall time); busySeconds stays zero since no local executor
        // ran.
        results = shard_->execute(spec.ref, spec.flush, spec.configs,
                                  deadline);
    } else {
        // On a coordinator, which has no pool, a job without a ref
        // (an upload) starts `jobs` workers of its own.
        std::vector<sim::Request> requests;
        requests.reserve(spec.configs.size());
        for (const core::CacheConfig& c : spec.configs)
            requests.push_back({spec.resolved.trace.get(), c,
                                spec.flush,
                                spec.resolved.source.get()});
        sim::BatchOptions options;
        options.engine = config_.engine;
        options.jobs = executorThreads_;
        options.pool = pool_.get();
        sim::BatchOutcome batch = sim::runBatch(requests, options);
        results = std::move(batch.results);
        report = std::move(batch.report);
    }
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        jobBusySeconds_ += report.busySeconds();
        jobGridSeconds_ += secondsSince(start);
    }
    if (!report.allSucceeded())
        fatal(describeFailures(report));
    return results;
}

std::string
Service::renderPayload(const JobSpec& spec,
                       const std::vector<sim::RunResult>& results)
{
    // Result elements render exactly as the offline tools' do: the
    // coordinator's merge reuses the same writeRunResult round-trip
    // that keeps served sweeps byte-identical to jcache-sweep.
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("workload", spec.resolved.name);
    json.field("trace_digest", spec.resolved.digest);
    if (spec.type == "sweep") {
        json.field("axis", spec.axis);
        json.beginArray("labels");
        for (const std::string& label : spec.labels)
            json.element(label);
        json.endArray();
    } else {
        json.field("flushed", spec.flush);
    }
    if (spec.type == "upload")
        json.field("records",
                   static_cast<double>(spec.resolved.trace->size()));
    if (spec.type == "run" || spec.type == "upload") {
        writeRunResult(json, "result", results.front());
    } else {
        json.beginArray("results");
        for (const sim::RunResult& result : results) {
            json.beginObject();
            writeRunResult(json, "result", result);
            json.endObject();
        }
        json.endArray();
    }
    json.endObject();
    return oss.str();
}

sim::ResolvedTrace
Service::resolveRef(const sim::TraceRef& ref)
{
    // The per-cell engine replays trace::Trace records directly, so
    // a mapped-only resolution must be decoded up front.
    if (config_.engine == sim::Engine::PerCell && !shard_)
        return repo_.resolveMaterialized(ref);
    return repo_.resolve(ref);
}

std::optional<std::string>
Service::cacheLookup(const std::string& digest)
{
    telemetry::Span lookup_span("cache.lookup", "service");
    auto hit = cache_.lookup(digest);
    if (hit) {
        lookup_span.arg("hit", "memory");
        return hit;
    }
    if (writeBuffer_) {
        // A put still buffered answers like the blob it will become.
        auto disk = writeBuffer_->get(digest);
        if (disk) {
            // Promote: the next lookup of this key is a memory hit.
            cache_.insert(digest, *disk);
            lookup_span.arg("hit", "disk");
            return disk;
        }
    }
    lookup_span.arg("hit", "false");
    return std::nullopt;
}

void
Service::cacheInsert(const std::string& digest,
                     const std::string& payload)
{
    cache_.insert(digest, payload);
    if (writeBuffer_)
        writeBuffer_->append(digest, payload);
}

Service::Clock::time_point
Service::admissionNow() const
{
    return config_.clock ? config_.clock() : Clock::now();
}

std::size_t
Service::queueDepth() const
{
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return queue_.size();
}

ServiceSnapshot
Service::snapshot() const
{
    // One consistent view for stats, health and the metrics scrape:
    // each subsystem is sampled through its own lock (ResultCache,
    // ResultStore and the histograms are internally synchronized),
    // and every stats_mutex_-guarded counter is read under a single
    // acquisition, so a scrape never mixes counters from before and
    // after a concurrent job's accounting.
    ServiceSnapshot snap;
    snap.cache = cache_.stats();
    if (store_) {
        snap.storeEnabled = true;
        snap.store = store_->stats();
    }
    snap.queueDepth = queueDepth();
    snap.queueCapacity = config_.queueCapacity;
    if (pool_)
        snap.poolUtilization = pool_->utilization();
    snap.jobWallP50Seconds = jobWall_.percentile(50.0);
    snap.jobWallP90Seconds = jobWall_.percentile(90.0);
    snap.jobWallP99Seconds = jobWall_.percentile(99.0);
    snap.jobWallMaxSeconds = jobWall_.max();
    snap.queueWaitP50Seconds = queueWait_.percentile(50.0);
    snap.queueWaitP99Seconds = queueWait_.percentile(99.0);
    snap.queueWaitMaxSeconds = queueWait_.max();
    snap.admissionMode = admission_.config().mode;
    snap.admissionTargetMillis = admission_.config().targetMillis;
    snap.admissionIntervalMillis = admission_.config().intervalMillis;
    snap.admission = admission_.state();
    snap.role = shard_ ? "coordinator" : "single";
    if (shard_)
        snap.workers = shard_->health();
    snap.connectionsOpen =
        connectionsOpen_.load(std::memory_order_relaxed);
    snap.connectionsAccepted =
        connectionsAccepted_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snap.requests = requests_;
    snap.requestsByType = requestsByType_;
    snap.errors = errors_;
    snap.protocolErrors = protocolErrors_;
    snap.rejectedBusy = rejectedBusy_;
    snap.shedCodel = shedCodel_;
    snap.shedDeadline = shedDeadline_;
    snap.jobsExecuted = jobsExecuted_;
    snap.jobBusySeconds = jobBusySeconds_;
    snap.jobGridSeconds = jobGridSeconds_;
    snap.uptimeSeconds =
        std::chrono::duration<double>(Clock::now() - start_).count();
    return snap;
}

void
Service::noteProtocolError()
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++protocolErrors_;
}

void
Service::noteConnectionAccepted()
{
    connectionsAccepted_.fetch_add(1, std::memory_order_relaxed);
    connectionsOpen_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::armed()) {
        static telemetry::Counter& accepted =
            telemetry::Registry::instance().counter(
                "jcache_connections_accepted_total",
                "Transport connections accepted since start");
        accepted.inc();
    }
}

void
Service::noteConnectionClosed()
{
    connectionsOpen_.fetch_sub(1, std::memory_order_relaxed);
}

std::string
Service::handle(const std::string& request_json)
{
    // The blocking shape, rebuilt over the async one: park this
    // thread until the completion fires.  In-process callers and
    // tests keep their call-and-wait contract; the reactor uses
    // handleAsync directly.
    std::mutex done_mutex;
    std::condition_variable done_cv;
    bool finished = false;
    std::string response;
    handleAsync(request_json, [&](std::string text) {
        // Notify under the lock: once `finished` is visible this
        // frame may return and destroy done_cv, so an unlocked
        // notify could touch a dead condition variable.
        std::lock_guard<std::mutex> lock(done_mutex);
        response = std::move(text);
        finished = true;
        done_cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return finished; });
    return response;
}

void
Service::handleAsync(const std::string& request_json,
                     ResponseCallback done)
{
    Clock::time_point received = admissionNow();
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++requests_;
    }

    std::string parse_error;
    JsonValue request = JsonValue::parse(request_json, &parse_error);
    if (!parse_error.empty() || !request.isObject())
        return refuse("parse_error",
                      parse_error.empty()
                          ? "request must be a JSON object"
                          : parse_error,
                      "", done);
    std::string request_id = request.getString("request_id");

    double protocol = request.getNumber(
        "protocol", static_cast<double>(kProtocolVersion));
    if (protocol != static_cast<double>(kProtocolVersion))
        return refuse("protocol_mismatch",
                      "daemon speaks protocol " +
                          std::to_string(kProtocolVersion),
                      request_id, done);
    // Absent means a client predating the handshake (accepted).
    if (request.has("api_version") &&
        !speaksApiMajor(request.get("api_version")))
        return refuse("unsupported_version",
                      "daemon speaks api version " +
                          std::string(kApiVersion) +
                          "; compatible requests declare major " +
                          std::to_string(kApiVersionMajor),
                      request_id, done);

    std::string type = request.getString("type");
    // Label values come from a fixed vocabulary: an unrecognized type
    // counts as "unknown" so untrusted input cannot mint label sets.
    auto counted = std::find(kCountedRequestTypes.begin(),
                             kCountedRequestTypes.end(), type);
    bool known = counted != kCountedRequestTypes.end();
    countRequest(known || type == "shutdown" ? type : "unknown");
    if (known) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++requestsByType_[counted - kCountedRequestTypes.begin()];
    }
    dispatch(type, std::move(request), received, request_id,
             std::move(done));
}

void
Service::refuse(const std::string& code, const std::string& message,
                const std::string& request_id,
                const ResponseCallback& done)
{
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++errors_;
    }
    done(errorResponse(code, message, request_id));
}

void
Service::dispatch(const std::string& type, JsonValue request,
                  Clock::time_point received,
                  const std::string& request_id, ResponseCallback done)
{
    try {
        if (type == "run")
            return admit(describeRun(request), request, received,
                         request_id, done);
        if (type == "sweep")
            return admit(describeSweep(request), request, received,
                         request_id, done);
        if (type == "batch")
            return admit(describeBatch(request), request, received,
                         request_id, done);
        if (type == "upload")
            return admit(describeUpload(request), request, received,
                         request_id, done);
        if (type == "stats") {
            auto answer = [this, request_id, done] {
                done(okResponse("stats", "", false,
                                statsPayload(snapshot()), request_id));
            };
            // Behind the buffered puts, so that the store block counts
            // every result answered before it; the loop never waits.
            if (writeBuffer_)
                return writeBuffer_->afterPending(std::move(answer));
            return answer();
        }
        if (type == "health")
            return done(okResponse("health", "", false,
                                   healthPayload(snapshot()),
                                   request_id));
        if (type == "ping")
            return done(pingResponse(request_id));
        if (type == "shutdown") {
            shutdown_.store(true);
            return done(shutdownResponse(request_id));
        }
        refuse("unknown_type",
               "unknown request type: '" + type +
                   "' (use "
                   "run|sweep|batch|upload|stats|health|ping|shutdown)",
               request_id, done);
    } catch (const RegistryPending&) {
        // Dispatched again once the registry is built.  Its deadline
        // clock restarts then: a daemon that built the registry
        // before it took requests never charged a request for it.
        awaitRegistry({request_id, done,
                       [this, type, request = std::move(request),
                        request_id, done] {
                           dispatch(type, request, admissionNow(),
                                    request_id, done);
                       }});
    } catch (const sim::UnknownTraceError& e) {
        refuse("unknown_trace", e.what(), request_id, done);
    } catch (const CodedError& e) {
        refuse(e.code(), e.what(), request_id, done);
    } catch (const FatalError& e) {
        refuse("bad_request", e.what(), request_id, done);
    } catch (const std::exception& e) {
        refuse("internal_error", e.what(), request_id, done);
    }
}

void
Service::awaitRegistry(RegistryWaiter waiter)
{
    std::unique_lock<std::mutex> lock(registry_mutex_);
    if (registry_.load(std::memory_order_acquire)) {
        // Built since this request's resolve found it missing.
        lock.unlock();
        waiter.retry();
        return;
    }
    // The first waiter starts the build; later ones join its list.
    registryWaiters_.push_back(std::move(waiter));
    if (registryWaiters_.size() > 1)
        return;
    // A build that failed has answered its waiters; reap its thread.
    if (registryBuilder_.joinable())
        registryBuilder_.join();
    registryBuilder_ = std::thread([this] { buildRegistry(); });
}

void
Service::buildRegistry()
{
    const sim::TraceSet* registry = nullptr;
    std::string error;
    try {
        registry = &config_.registry();
    } catch (const std::exception& e) {
        error = e.what();
    }
    std::vector<RegistryWaiter> waiters;
    {
        std::lock_guard<std::mutex> lock(registry_mutex_);
        registry_.store(registry, std::memory_order_release);
        waiters.swap(registryWaiters_);
    }
    // In arrival order.  After a failed build each waiter is refused;
    // the next request that needs the registry starts another.
    for (RegistryWaiter& waiter : waiters) {
        if (registry)
            waiter.retry();
        else
            refuse("internal_error",
                   "building the trace registry failed: " + error,
                   waiter.requestId, waiter.done);
    }
}

Service::JobSpec
Service::describeRun(const JsonValue& request)
{
    JobSpec spec;
    spec.type = "run";
    spec.ref = parseTraceRef(request, spec.type);
    core::CacheConfig config =
        parseCacheConfig(request.get("config"));
    config.validate();
    spec.flush = request.getBool("flush", true);

    // Resolving the trace before queueing turns an unknown reference
    // into an immediate typed error rather than a queued failure.
    spec.resolved = resolveRef(spec.ref);
    spec.key = store::cellKey(store::KeyContext{config_.engine},
                              spec.resolved, canonicalConfigKey(config),
                              spec.flush);
    spec.configs = {config};
    return spec;
}

Service::JobSpec
Service::describeSweep(const JsonValue& request)
{
    JobSpec spec;
    spec.type = "sweep";
    spec.ref = parseTraceRef(request, spec.type);
    spec.axis = request.getString("axis");
    fatalIf(spec.axis.empty(), "sweep request needs an 'axis'");
    core::CacheConfig base = parseCacheConfig(request.get("config"));

    sim::AxisPoints points = sim::buildAxisPoints(spec.axis, base);
    for (const core::CacheConfig& c : points.configs)
        c.validate();

    spec.resolved = resolveRef(spec.ref);
    // The digest covers the axis and base config, not the metric:
    // every metric is derivable from the cached raw counts.
    spec.key = store::sweepKey(store::KeyContext{config_.engine},
                               spec.resolved, spec.axis,
                               canonicalConfigKey(base));
    spec.configs = std::move(points.configs);
    spec.labels = std::move(points.labels);
    return spec;
}

Service::JobSpec
Service::describeBatch(const JsonValue& request)
{
    JobSpec spec;
    spec.type = "batch";
    spec.ref = parseTraceRef(request, spec.type);
    const JsonValue& cells = request.get("configs");
    fatalIf(!cells.isArray() || cells.items().empty(),
            "batch request needs a non-empty 'configs' array");
    fatalIf(cells.items().size() > kBatchCapCells,
            "batch request has " +
                std::to_string(cells.items().size()) +
                " cells; this daemon accepts at most " +
                std::to_string(kBatchCapCells));
    // Unlike run, a batch defaults flush off: its cells are sweep
    // points, and sweeps replay without the end-of-run flush.
    spec.flush = request.getBool("flush", false);

    std::vector<std::string> config_keys;
    spec.configs.reserve(cells.items().size());
    config_keys.reserve(cells.items().size());
    for (const JsonValue& cell : cells.items()) {
        core::CacheConfig config =
            parseCacheConfig(cell.get("config"));
        config.validate();
        config_keys.push_back(canonicalConfigKey(config));
        spec.configs.push_back(config);
    }

    spec.resolved = resolveRef(spec.ref);
    spec.key = store::batchKey(store::KeyContext{config_.engine},
                               spec.resolved.identity, config_keys,
                               spec.flush);
    return spec;
}

Service::JobSpec
Service::describeUpload(const JsonValue& request)
{
    std::string body = request.getString("trace");
    fatalIf(body.empty(), "upload request needs a 'trace' body");
    std::string encoding = request.getString("encoding");
    fatalIf(!encoding.empty() && encoding != "text",
            "unsupported upload encoding '" + encoding +
                "' (this daemon accepts: text)");
    std::string name = request.getString("name");
    if (name.empty())
        name = "uploaded";
    fatalIf(name.size() > trace::kMaxTraceNameBytes,
            "upload 'name' is unreasonably long");
    core::CacheConfig config =
        parseCacheConfig(request.get("config"));
    config.validate();
    JobSpec spec;
    spec.type = "upload";
    spec.flush = request.getBool("flush", true);
    spec.configs = {config};

    // The cap guards the parse, not just the replay: an oversized
    // body is refused before any decoding work.
    if (body.size() > config_.uploadCapBytes) {
        countImport(false, body.size(), 0);
        throw CodedError("trace_too_large",
                         "uploaded trace is " +
                             std::to_string(body.size()) +
                             " bytes; this daemon accepts at most " +
                             std::to_string(config_.uploadCapBytes));
    }

    // Parsing and registration happen *before* the result-cache
    // lookup so a repeated upload still (re-)registers the trace for
    // later by-digest runs even when its own result is already
    // cached.  The job replays the registered resolution, which
    // shares its records even if the repository evicts the upload.
    trace::Trace parsed;
    try {
        telemetry::Span import_span("trace.import", "service");
        std::istringstream iss(body);
        parsed = trace::importTraceText(iss, name, "<upload>");
        import_span.arg("records", std::to_string(parsed.size()));
    } catch (const trace::CorruptTraceError& e) {
        countImport(false, body.size(), 0);
        throw CodedError("bad_trace", e.what());
    }
    countImport(true, body.size(), parsed.size());
    spec.resolved = repo_.addUpload(std::move(parsed));

    // Content-addressed caching: re-uploading the same bytes under
    // the same config is a cache hit, so the key hashes the body,
    // not the client-chosen name (which only rides along because it
    // appears in the rendered payload).
    spec.key = store::uploadKey(store::KeyContext{config_.engine},
                                util::fnv1aHex(body), name,
                                canonicalConfigKey(config), spec.flush);
    return spec;
}

void
Service::admit(JobSpec spec, const JsonValue& request,
               Clock::time_point received,
               const std::string& request_id,
               const ResponseCallback& done)
{
    if (auto hit = cacheLookup(spec.key))
        return done(
            okResponse(spec.type, spec.key, true, *hit, request_id));

    RequestDeadline deadline = parseDeadline(request, received);
    if (deadline.expired)
        return done(shedExpiredAtAdmission(request_id));

    // The job outlives this call (the submitter does not block), so
    // it owns its spec, whose resolution shares ownership of the
    // records (or mapping) even if the repository evicts the upload
    // that satisfied the ref meanwhile.
    Job job;
    job.spec = std::move(spec);
    job.requestId = request_id;
    job.reply = done;
    job.deadline = deadline.at;
    if (!submitAsync(std::move(job)))
        done(busyResponse(retryAfterMillis(), request_id));
}

unsigned
Service::retryAfterMillis(double scale) const
{
    // The scheduler threads drain the queue side by side, so the
    // jobs ahead clear in ⌈depth / schedulers⌉ rounds of one job each.
    std::size_t depth = queueDepth();
    std::size_t schedulers = schedulers_.size();
    std::size_t rounds =
        depth == 0 ? 1 : (depth + schedulers - 1) / schedulers;
    double p50_seconds = jobWall_.percentile(50.0);
    // With no completed jobs yet there is no wall-time signal; a
    // fixed middle-of-the-clamp guess beats advertising the minimum.
    double hint_millis = p50_seconds > 0.0
        ? static_cast<double>(rounds) * p50_seconds * 1000.0
        : 200.0;
    if (scale > 0.0)
        hint_millis *= scale;
    // Deterministic ±25% jitter, one draw per shed: identical hints
    // would march every shed client back in lockstep, re-colliding
    // at exactly the moment the queue was full last time.
    std::uint64_t draw = mixJitter(
        kRetryJitterSeed +
        jitterSeq_.fetch_add(1, std::memory_order_relaxed));
    double fraction =
        0.75 + 0.5 * (static_cast<double>(draw >> 11) /
                      static_cast<double>(1ull << 53));
    hint_millis *= fraction;
    if (hint_millis < 50.0)
        hint_millis = 50.0;
    if (hint_millis > 5000.0)
        hint_millis = 5000.0;
    return static_cast<unsigned>(hint_millis);
}

std::string
Service::shedExpiredAtAdmission(const std::string& request_id)
{
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++shedDeadline_;
    }
    countShed("deadline");
    return deadlineResponse(0.0, request_id);
}

std::string
Service::jobResponse(const JobOutcome& outcome, const JobSpec& spec,
                     const std::string& request_id)
{
    if (outcome.errorCode == "deadline_exceeded")
        return deadlineResponse(0.0, request_id);
    if (!outcome.error.empty())
        return errorResponse(outcome.errorCode.empty()
                                 ? "bad_request"
                                 : outcome.errorCode,
                             outcome.error, request_id);
    cacheInsert(spec.key, outcome.payload);
    return okResponse(spec.type, spec.key, false, outcome.payload,
                      request_id);
}

namespace
{

/**
 * The `node` block shared by stats and health (API 1.3): role,
 * transport connection gauges, and — on a coordinator — per-worker
 * scatter health.  `degraded` is the typed signal monitoring keys
 * on: true whenever any configured worker is marked unhealthy.
 */
void
writeNodeBlock(stats::JsonWriter& json, const ServiceSnapshot& snap)
{
    bool degraded = false;
    for (const WorkerHealth& w : snap.workers)
        if (!w.healthy)
            degraded = true;
    json.beginObject("node");
    json.field("role", snap.role);
    json.field("worker_count",
               static_cast<double>(snap.workers.size()));
    json.field("degraded", degraded);
    json.beginObject("connections");
    json.field("open", static_cast<double>(snap.connectionsOpen));
    json.field("accepted",
               static_cast<double>(snap.connectionsAccepted));
    json.endObject();
    if (!snap.workers.empty()) {
        json.beginArray("workers");
        for (const WorkerHealth& w : snap.workers) {
            json.beginObject();
            json.field("address", w.address);
            json.field("healthy", w.healthy);
            json.field("consecutive_failures",
                       static_cast<double>(w.consecutiveFailures));
            json.field("chunks_completed",
                       static_cast<double>(w.chunksCompleted));
            json.field("chunks_failed",
                       static_cast<double>(w.chunksFailed));
            json.field("rescatters",
                       static_cast<double>(w.rescatters));
            json.endObject();
        }
        json.endArray();
    }
    json.endObject();
}

} // namespace

std::string
Service::healthPayload(const ServiceSnapshot& snap) const
{
    bool accepting = !shutdown_.load();

    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("accepting", accepting);
    json.field("uptime_seconds", snap.uptimeSeconds);
    json.beginObject("queue");
    json.field("depth", static_cast<double>(snap.queueDepth));
    json.field("capacity",
               static_cast<double>(snap.queueCapacity));
    json.field("shed", static_cast<double>(snap.shedTotal()));
    json.field("shed_busy",
               static_cast<double>(snap.rejectedBusy));
    json.field("shed_codel", static_cast<double>(snap.shedCodel));
    json.field("shed_deadline",
               static_cast<double>(snap.shedDeadline));
    json.endObject();
    json.beginObject("admission");
    json.field("mode", name(snap.admissionMode));
    json.field("dropping", snap.admission.dropping);
    json.endObject();
    json.beginObject("result_cache");
    json.field("entries", static_cast<double>(snap.cache.entries));
    json.field("hits", static_cast<double>(snap.cache.hits));
    json.field("misses", static_cast<double>(snap.cache.misses));
    json.field("evictions",
               static_cast<double>(snap.cache.evictions));
    json.endObject();
    json.field("jobs_executed",
               static_cast<double>(snap.jobsExecuted));
    json.field("protocol_errors",
               static_cast<double>(snap.protocolErrors));
    writeNodeBlock(json, snap);
    json.endObject();
    return oss.str();
}

std::string
Service::statsPayload(const ServiceSnapshot& snap) const
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("version", std::string(kVersion));
    json.field("protocol", static_cast<double>(kProtocolVersion));
    json.field("api_version", std::string(kApiVersion));
    json.field("uptime_seconds", snap.uptimeSeconds);
    writeNodeBlock(json, snap);
    json.beginObject("requests");
    json.field("total", static_cast<double>(snap.requests));
    for (std::size_t t = 0; t < kCountedRequestTypes.size(); ++t)
        json.field(kCountedRequestTypes[t],
                   static_cast<double>(snap.requestsByType[t]));
    json.field("errors", static_cast<double>(snap.errors));
    json.field("protocol_errors",
               static_cast<double>(snap.protocolErrors));
    json.endObject();
    json.beginObject("result_cache");
    json.field("entries", static_cast<double>(snap.cache.entries));
    json.field("capacity",
               static_cast<double>(snap.cache.capacity));
    json.field("hits", static_cast<double>(snap.cache.hits));
    json.field("misses", static_cast<double>(snap.cache.misses));
    json.field("evictions",
               static_cast<double>(snap.cache.evictions));
    json.field("hit_rate", snap.cache.hitRate());
    json.endObject();
    json.beginObject("store");
    json.field("enabled", snap.storeEnabled);
    if (snap.storeEnabled) {
        json.field("dir", config_.storeDir);
        json.field("entries",
                   static_cast<double>(snap.store.entries));
        json.field("occupancy_bytes",
                   static_cast<double>(snap.store.occupancyBytes));
        json.field("cap_bytes",
                   static_cast<double>(snap.store.capBytes));
        json.field("hits", static_cast<double>(snap.store.hits));
        json.field("misses",
                   static_cast<double>(snap.store.misses));
        json.field("hit_rate", snap.store.hitRate());
        json.field("evictions",
                   static_cast<double>(snap.store.evictions));
        json.field("put_bytes",
                   static_cast<double>(snap.store.putBytes));
        json.field("torn_blobs",
                   static_cast<double>(snap.store.tornBlobs));
        json.field("put_failures",
                   static_cast<double>(snap.store.putFailures));
    }
    json.endObject();
    json.beginObject("queue");
    json.field("depth", static_cast<double>(snap.queueDepth));
    json.field("capacity",
               static_cast<double>(snap.queueCapacity));
    json.field("rejected_busy",
               static_cast<double>(snap.rejectedBusy));
    json.field("shed_codel", static_cast<double>(snap.shedCodel));
    json.field("shed_deadline",
               static_cast<double>(snap.shedDeadline));
    json.field("shed_total", static_cast<double>(snap.shedTotal()));
    json.beginObject("wait_seconds");
    json.field("p50", snap.queueWaitP50Seconds);
    json.field("p99", snap.queueWaitP99Seconds);
    json.field("max", snap.queueWaitMaxSeconds);
    json.endObject();
    json.endObject();
    json.beginObject("admission");
    json.field("mode", name(snap.admissionMode));
    json.field("target_ms", snap.admissionTargetMillis);
    json.field("interval_ms", snap.admissionIntervalMillis);
    json.field("dropping", snap.admission.dropping);
    json.field("drop_count",
               static_cast<double>(snap.admission.dropCount));
    json.field("dropped_total",
               static_cast<double>(snap.admission.totalDropped));
    json.field("window_p50_ms", snap.admission.windowP50Millis);
    json.field("window_samples",
               static_cast<double>(snap.admission.windowSamples));
    json.endObject();
    json.beginObject("jobs");
    json.field("executed", static_cast<double>(snap.jobsExecuted));
    json.field("executor_threads",
               static_cast<double>(executorThreads_));
    json.field("engine", sim::name(config_.engine));
    json.field("busy_seconds", snap.jobBusySeconds);
    json.field("grid_seconds", snap.jobGridSeconds);
    json.field("utilization", snap.poolUtilization);
    json.beginObject("wall_seconds");
    json.field("p50", snap.jobWallP50Seconds);
    json.field("p90", snap.jobWallP90Seconds);
    json.field("p99", snap.jobWallP99Seconds);
    json.field("max", snap.jobWallMaxSeconds);
    json.endObject();
    json.endObject();
    json.endObject();
    return oss.str();
}

} // namespace jcache::service
