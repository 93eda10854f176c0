/**
 * @file
 * The unified simulation entry point: Request in, Result out.
 *
 * Every caller that wants a replay — the CLI tools, the jcached
 * service, the figure experiments — goes through runOne() /
 * runBatch().  Callers describe *what* to simulate (a Request names a
 * trace, a configuration and the end-of-run flush choice); the engine
 * decides *how*:
 *
 *  - Engine::OnePass (the default) groups a batch's requests by
 *    trace, deduplicates identical cells, and replays each trace
 *    through its configurations via runTracePass() in as few passes
 *    as keep the workers busy — the trace is decoded once per pass
 *    instead of once per cell.
 *  - Engine::PerCell is the classic one-replay-per-cell path
 *    (runTrace() fanned out by ParallelExecutor), kept selectable via
 *    `--engine percell` as the reference and escape hatch.
 *
 * Both engines produce byte-identical Results for the same Request.
 * A caller that wants results before the whole batch finishes (a
 * sweep publishing cells to the result store as they land) sets
 * BatchOptions::onComplete.
 */

#ifndef JCACHE_SIM_ENGINE_HH
#define JCACHE_SIM_ENGINE_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "sim/parallel.hh"
#include "sim/run.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"

namespace jcache::sim
{

/** Which replay strategy executes a request. */
enum class Engine : std::uint8_t
{
    PerCell,  //!< one full trace replay per cell (reference path)
    OnePass,  //!< decode the trace once, feed every cell per block
};

/** The engine used when a caller expresses no preference. */
inline constexpr Engine kDefaultEngine = Engine::OnePass;

/** CLI spelling of an engine: "percell" / "onepass". */
std::string name(Engine engine);

/** Parse a CLI spelling; nullopt for unknown input. */
std::optional<Engine> parseEngine(const std::string& code);

/**
 * One simulation request: what to replay, not how.
 *
 * The reference stream comes in one of two forms.  `trace` is the
 * classic in-memory form and is what Engine::PerCell requires.
 * `source` is any block-decodable stream — typically an mmap'd
 * replay cache resolved through TraceRepository — which the one-pass
 * engine replays without materializing the records.  At least one
 * must be set; when both are, they must describe the same records
 * (the one-pass engine prefers `source`).
 */
struct Request
{
    /** In-memory records; must outlive the call when set. */
    const trace::Trace* trace = nullptr;

    core::CacheConfig config;

    /** Drain dirty lines at end of trace (flush-stop statistics). */
    bool flushAtEnd = false;

    /** Block stream to replay; must outlive the call when set. */
    const trace::ReplaySource* source = nullptr;
};

/**
 * What one request produces.  An alias: the redesign unified the
 * entry points, not the result type every renderer already consumes.
 */
using Result = RunResult;

/**
 * Called with (request index, result) once for each request of a
 * batch that succeeds, as soon as the work that computed it finishes:
 * one pass of the one-pass engine (every request its lanes serve,
 * duplicates included) or a single per-cell replay.  Never called for
 * a failed request.  Calls are serialized, so callbacks need no
 * locking of their own; an exception thrown by one fails the work it
 * reports, like a replay error would.
 */
using CompletionFn = std::function<void(std::size_t, const Result&)>;

/** Knobs for runBatch(). */
struct BatchOptions
{
    Engine engine = kDefaultEngine;

    /** Worker threads; 0 selects defaultJobs(). */
    unsigned jobs = 0;

    /**
     * Workers shared with other batches running at once (jcached's
     * pool), which then replace `jobs`; null starts `jobs` workers
     * for this call.  Must not be the pool the caller runs on.
     */
    WorkerPool* pool = nullptr;

    /** Optional per-request completion callback. */
    CompletionFn onComplete = nullptr;
};

/** Results plus observability of one batch. */
struct BatchOutcome
{
    /** One Result per request, ordered by request index. */
    std::vector<Result> results;

    /**
     * Per-request timings and failures.  Under Engine::OnePass a
     * request's wall time is its share of the pass that computed it
     * (a pass serves many requests at once).
     */
    SweepReport report;

    /** True when every request completed without throwing. */
    bool ok() const { return report.allSucceeded(); }
};

/**
 * Execute one request synchronously on the calling thread.
 *
 * @throws util::FatalError via config validation; any replay
 *         exception propagates.
 */
Result runOne(const Request& request, Engine engine = kDefaultEngine);

/**
 * Execute a batch of requests across a worker pool.
 *
 * Results are keyed by request index, so output is bit-for-bit
 * independent of thread count and engine.  A request whose replay
 * throws fails alone — its slot holds a default Result, the failure
 * is recorded in the report, and options.onComplete never sees it.
 */
BatchOutcome runBatch(const std::vector<Request>& requests,
                      const BatchOptions& options = {});

} // namespace jcache::sim

#endif // JCACHE_SIM_ENGINE_HH
