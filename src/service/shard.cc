/**
 * @file
 * Implementation of the scatter/merge shard pool.
 */

#include "service/shard.hh"

#include <algorithm>
#include <sstream>

#include "net/frame.hh"
#include "service/json_value.hh"
#include "service/render.hh"
#include "stats/json.hh"
#include "telemetry/metrics.hh"
#include "util/version.hh"

namespace jcache::service
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Bump the armed-only per-worker scatter counter. */
void
countScatter(const std::string& worker_address)
{
    if (!telemetry::armed())
        return;
    telemetry::Registry::instance()
        .counter("jcache_shard_scatter_total",
                 "Chunks scattered to workers, by worker address",
                 {{"worker", worker_address}})
        .inc();
}

bool
parsePort(const std::string& text, std::uint16_t& port)
{
    if (text.empty() || text.size() > 5)
        return false;
    unsigned value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<unsigned>(c - '0');
    }
    if (value == 0 || value > 65535)
        return false;
    port = static_cast<std::uint16_t>(value);
    return true;
}

} // namespace

std::vector<WorkerSpec>
parseWorkerList(const std::string& text)
{
    std::vector<WorkerSpec> workers;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        std::string entry = text.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!entry.empty()) {
            WorkerSpec spec;
            std::size_t colon = entry.rfind(':');
            std::string port_text;
            if (colon == std::string::npos) {
                // A bare port targets a local worker.
                spec.host = "127.0.0.1";
                port_text = entry;
            } else {
                spec.host = entry.substr(0, colon);
                port_text = entry.substr(colon + 1);
            }
            fatalIf(spec.host.empty() ||
                        !parsePort(port_text, spec.port),
                    "malformed worker '" + entry +
                        "' (expected host:port or port)");
            workers.push_back(std::move(spec));
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    fatalIf(workers.empty(), "worker list is empty");
    return workers;
}

ShardPool::ShardPool(const ShardConfig& config) : config_(config)
{
    fatalIf(config_.workers.empty(),
            "ShardPool needs at least one worker");
    fatalIf(config_.chunkCells == 0,
            "ShardPool chunkCells must be positive");
    for (const WorkerSpec& spec : config_.workers) {
        auto worker = std::make_unique<Worker>();
        worker->spec = spec;
        workers_.push_back(std::move(worker));
    }
    for (auto& worker : workers_) {
        Worker* w = worker.get();
        w->thread = std::thread([this, w] { workerLoop(*w); });
    }
}

ShardPool::~ShardPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (auto& worker : workers_) {
        if (worker->thread.joinable())
            worker->thread.join();
    }
}

std::vector<WorkerHealth>
ShardPool::health() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<WorkerHealth> out;
    out.reserve(workers_.size());
    for (const auto& worker : workers_) {
        WorkerHealth h;
        h.address = worker->spec.address();
        h.healthy = worker->healthy;
        h.consecutiveFailures = worker->consecutiveFailures;
        h.chunksCompleted = worker->chunksCompleted;
        h.chunksFailed = worker->chunksFailed;
        h.rescatters = worker->rescatters;
        out.push_back(std::move(h));
    }
    return out;
}

std::vector<sim::RunResult>
ShardPool::execute(const sim::TraceRef& ref, bool flush,
                   const std::vector<core::CacheConfig>& configs,
                   Clock::time_point deadline)
{
    fatalIf(configs.empty(), "scatter needs at least one cell");

    Scatter scatter;
    scatter.ref = ref;
    scatter.flush = flush;
    scatter.deadline = deadline;
    scatter.results.resize(configs.size());
    for (std::size_t i = 0; i < configs.size();
         i += config_.chunkCells) {
        Chunk chunk;
        chunk.firstCell = i;
        std::size_t end =
            std::min(configs.size(), i + config_.chunkCells);
        chunk.configs.assign(configs.begin() + i,
                             configs.begin() + end);
        scatter.pending.push_back(std::move(chunk));
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        fatalIf(scatter_ != nullptr,
                "ShardPool::execute is not reentrant");
        scatter_ = &scatter;
    }
    workCv_.notify_all();

    std::unique_lock<std::mutex> lock(mutex_);
    // Wait until every taken chunk has been handed back, even on
    // failure: worker threads hold pointers into this stack frame.
    doneCv_.wait(lock, [&] {
        return scatter.outstanding == 0 &&
               (scatter.pending.empty() ||
                !scatter.failureCode.empty());
    });
    scatter_ = nullptr;
    if (!scatter.failureCode.empty())
        throw CodedError(scatter.failureCode,
                         scatter.failureMessage);
    return std::move(scatter.results);
}

void
ShardPool::noteSuccess(Worker& worker)
{
    worker.healthy = true;
    worker.consecutiveFailures = 0;
    ++worker.chunksCompleted;
}

void
ShardPool::noteFailure(Worker& worker)
{
    ++worker.consecutiveFailures;
    ++worker.chunksFailed;
    if (worker.consecutiveFailures >= config_.failuresToUnhealthy)
        worker.healthy = false;
}

void
ShardPool::failScatter(const std::string& code,
                       const std::string& message)
{
    // Caller holds mutex_.  First failure wins; later ones are
    // usually knock-on effects of the same outage.
    if (scatter_ == nullptr || !scatter_->failureCode.empty())
        return;
    scatter_->failureCode = code;
    scatter_->failureMessage = message;
    doneCv_.notify_all();
    workCv_.notify_all();
}

bool
ShardPool::ensureConnected(Worker& worker)
{
    if (worker.socket.valid())
        return true;
    std::string error;
    worker.socket = net::Socket::connectTo(worker.spec.host,
                                           worker.spec.port, &error);
    if (!worker.socket.valid())
        return false;
    worker.socket.setTimeout(config_.requestTimeoutMillis);
    return true;
}

bool
ShardPool::runChunk(Worker& worker, Scatter& s,
                    const Chunk& chunk, unsigned& retry_wait)
{
    // Called from workerLoop with mutex_ released; the Scatter's
    // ref/flush/deadline are immutable once published and
    // execute() cannot return while this chunk is outstanding.
    retry_wait = 0;
    if (!ensureConnected(worker))
        return false;

    double remaining_millis = 0.0;
    if (s.deadline.time_since_epoch().count() != 0) {
        remaining_millis =
            std::chrono::duration<double, std::milli>(
                s.deadline - Clock::now())
                .count();
        if (remaining_millis <= 0.0)
            return false;
    }

    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("type", "batch");
    json.field("api_version", std::string(kApiVersion));
    json.field("request_id",
               "scatter-" + std::to_string(chunk.firstCell));
    json.field("trace_ref", s.ref.spec());
    if (s.ref.kind() == sim::TraceRef::Kind::Name) {
        // Legacy field: a pre-1.4 worker only understands names.
        json.field("workload", s.ref.value());
    }
    json.field("flush", s.flush);
    if (remaining_millis > 0.0)
        json.field("deadline_ms", remaining_millis);
    json.beginArray("configs");
    for (const core::CacheConfig& config : chunk.configs) {
        json.beginObject();
        writeCacheConfig(json, "config", config);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    countScatter(worker.spec.address());
    if (net::writeFrame(worker.socket, oss.str()) !=
        net::FrameStatus::Ok) {
        worker.socket.close();
        return false;
    }
    std::string response_text;
    if (net::readFrame(worker.socket, response_text) !=
        net::FrameStatus::Ok) {
        worker.socket.close();
        return false;
    }

    std::string parse_error;
    JsonValue response =
        JsonValue::parse(response_text, &parse_error);
    if (!parse_error.empty() || !response.isObject()) {
        worker.socket.close();
        return false;
    }
    if (!response.getBool("ok", false)) {
        std::string code = response.getString("code");
        if (code == "busy") {
            double hint =
                response.getNumber("retry_after_ms", 100.0);
            retry_wait = static_cast<unsigned>(
                std::max(1.0, std::min(hint, 5000.0)));
            return false;
        }
        // Any other daemon-level refusal (bad_request, internal)
        // will refuse identically everywhere: re-scattering cannot
        // help, so surface it as the scatter's failure.
        std::lock_guard<std::mutex> lock(mutex_);
        failScatter(code == "deadline_exceeded"
                        ? "deadline_exceeded"
                        : "shard_error",
                    "worker " + worker.spec.address() +
                        " refused chunk: " +
                        response.getString("error", code));
        return false;
    }

    const JsonValue& results =
        response.get("payload").get("results");
    if (!results.isArray() ||
        results.items().size() != chunk.configs.size()) {
        worker.socket.close();
        return false;
    }
    std::vector<sim::RunResult> cells;
    cells.reserve(results.items().size());
    try {
        for (const JsonValue& item : results.items())
            cells.push_back(parseRunResult(item.get("result")));
    } catch (const FatalError&) {
        worker.socket.close();
        return false;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    std::copy(cells.begin(), cells.end(),
              s.results.begin() +
                  static_cast<std::ptrdiff_t>(chunk.firstCell));
    return true;
}

void
ShardPool::workerLoop(Worker& worker)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait_for(
            lock,
            std::chrono::milliseconds(config_.probeIntervalMillis),
            [&] {
                return stopping_ ||
                       (scatter_ != nullptr &&
                        scatter_->failureCode.empty() &&
                        !scatter_->pending.empty());
            });
        if (stopping_)
            return;
        if (scatter_ == nullptr || !scatter_->failureCode.empty() ||
            scatter_->pending.empty())
            continue;
        Scatter& s = *scatter_;

        if (!worker.healthy) {
            // Probe before taking work: a dead worker that kept
            // pulling chunks would churn the queue.
            lock.unlock();
            worker.socket.close();
            bool connected = ensureConnected(worker);
            lock.lock();
            if (!connected) {
                bool any_healthy = false;
                for (const auto& other : workers_)
                    if (other->healthy)
                        any_healthy = true;
                if (!any_healthy &&
                    ++s.probeFailures >
                        static_cast<std::size_t>(
                            config_.maxChunkAttempts) *
                            workers_.size()) {
                    failScatter("shard_unavailable",
                                "no healthy workers and probes "
                                "keep failing");
                }
                continue;
            }
            worker.healthy = true;
            worker.consecutiveFailures = 0;
        }

        if (s.deadline.time_since_epoch().count() != 0 &&
            Clock::now() >= s.deadline) {
            failScatter("deadline_exceeded",
                        "deadline expired mid-scatter");
            continue;
        }

        Chunk chunk = std::move(s.pending.front());
        s.pending.pop_front();
        ++s.outstanding;
        ++chunk.attempts;
        lock.unlock();

        unsigned retry_wait = 0;
        bool ok = runChunk(worker, s, chunk, retry_wait);

        lock.lock();
        --s.outstanding;
        if (ok) {
            noteSuccess(worker);
            if (s.pending.empty() && s.outstanding == 0)
                doneCv_.notify_all();
            continue;
        }
        if (!s.failureCode.empty()) {
            // runChunk already failed the scatter (typed refusal);
            // the chunk dies with it.
            doneCv_.notify_all();
            continue;
        }
        if (retry_wait > 0) {
            // The worker is alive but shedding; honor its back-off
            // hint without counting a failure.
            s.pending.push_back(std::move(chunk));
            workCv_.notify_all();
            lock.unlock();
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min(retry_wait, 250u)));
            lock.lock();
            continue;
        }
        noteFailure(worker);
        ++worker.rescatters;
        if (chunk.attempts >= config_.maxChunkAttempts) {
            failScatter("shard_unavailable",
                        "chunk at cell " +
                            std::to_string(chunk.firstCell) +
                            " failed after " +
                            std::to_string(chunk.attempts) +
                            " attempts");
            continue;
        }
        s.pending.push_back(std::move(chunk));
        workCv_.notify_all();
    }
}

} // namespace jcache::service
