/**
 * @file
 * jcache-sweep: sweep one axis of a cache configuration over a trace
 * and print a metric matrix — the interactive counterpart of the
 * figure benches.
 *
 * Usage:
 *   jcache-sweep <trace.jct | workload> --axis size|line|assoc
 *       [--metric miss|traffic|dirty]
 *       [--hit wt|wb] [--miss fow|wv|wa|wi]
 *       [--jobs N] [--progress] [--json [path]]
 *       [--engine percell|onepass]
 *       [--trace-out <events.json>]
 *       [--store-dir <dir> [--store-cap-bytes N] [--incremental]]
 *       [--trace-cache-dir <dir>] [--version]
 *
 * Metrics:
 *   miss    — counted-miss ratio (%)
 *   traffic — back-side transactions per instruction
 *   dirty   — percent of writes to already-dirty lines
 *
 * The sweep runs through the unified engine API (sim::runBatch).
 * Under the default one-pass engine the whole axis shares a single
 * decode of the trace; --engine percell restores the classic
 * one-replay-per-point path.  Either way results are ordered by
 * sweep point, never by completion, so the table is identical at any
 * job count and for both engines — and the axis expansion and table
 * rendering are shared with jcache-client, so a service-served sweep
 * is byte-identical too.  --progress reports per-point completion
 * and a run summary on stderr; --json exports the SweepReport
 * (per-job wall time, throughput, utilization) for observability
 * tooling.
 *
 * --trace-out captures spans (trace generation, the sweep grid, every
 * grid cell or trace pass, rendering) and writes them as Chrome
 * trace-event JSON, loadable in chrome://tracing or ui.perfetto.dev.
 *
 * --trace-cache-dir keeps a compact delta-encoded replay cache of
 * the trace (docs/ENGINE.md): the first sweep writes
 * `<digest>.jcrc` once, and every later sweep over the same trace
 * content mmaps it and replays the blocks zero-copy instead of
 * re-decoding records from memory.  Counters are byte-identical
 * with and without the cache; the per-cell engine ignores it.
 *
 * --store-dir publishes every computed cell into the persistent
 * result store (docs/STORAGE.md) as soon as the engine finishes it,
 * keyed exactly like the daemon's cells; a cell that fails costs only
 * itself.  --incremental additionally reads the store first and
 * simulates only the missing cells, reporting `store: reused R
 * cells, simulated S cells` on stderr.  A sweep over a fully
 * populated store simulates nothing and prints a table
 * byte-identical to a cold one — which is also how a killed sweep
 * resumes: rerun it with --incremental.
 */

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "cli_common.hh"
#include "service/json_value.hh"
#include "service/render.hh"
#include "sim/engine.hh"
#include "sim/sweeps.hh"
#include "stats/json.hh"
#include "store/key.hh"
#include "store/store.hh"
#include "telemetry/trace_writer.hh"
#include "trace/import.hh"
#include "trace/replay_cache.hh"
#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/version.hh"
#include "workloads/workload.hh"

namespace
{

using namespace jcache;

constexpr unsigned kCommonFlags = tools::kFlagJobs |
                                  tools::kFlagProgress |
                                  tools::kFlagJson | tools::kFlagEngine;

int
usage()
{
    std::cerr <<
        "usage: jcache-sweep <trace.jct | workload> --axis "
        "size|line|assoc\n"
        "  [--metric miss|traffic|dirty] [--hit wt|wb] "
        "[--miss fow|wv|wa|wi]\n"
        "  " << tools::commonUsage(kCommonFlags) << "\n"
        "  [--trace-out <events.json>]\n"
        "  [--store-dir <dir> [--store-cap-bytes N] "
        "[--incremental]]\n"
        "  [--trace-cache-dir <dir>] [--version]\n";
    return 2;
}

/** The store blob of one sweep cell: `{"result": {...}}`. */
std::string
cellPayload(const sim::RunResult& result)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    service::writeRunResult(json, "result", result);
    json.endObject();
    return oss.str();
}

/**
 * Decode a stored cell blob back into a RunResult; nullopt when the
 * payload does not parse (the cell is then simulated afresh — a
 * stale or foreign blob can cost work, never correctness).
 */
std::optional<sim::RunResult>
parseCellPayload(const std::string& payload)
{
    std::string error;
    service::JsonValue doc =
        service::JsonValue::parse(payload, &error);
    if (!error.empty() || !doc.isObject() || !doc.has("result"))
        return std::nullopt;
    try {
        return service::parseRunResult(doc.get("result"));
    } catch (const FatalError&) {
        return std::nullopt;
    }
}

/** Print per-cell failures; returns true when any cell failed. */
bool
reportFailures(const sim::SweepReport& report)
{
    for (const sim::JobFailure& f : report.failures)
        std::cerr << "error: sweep point " << f.index
                  << " failed: " << f.message << "\n";
    return !report.allSucceeded();
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc >= 2 && std::string(argv[1]) == "--version") {
        std::cout << versionLine("jcache-sweep") << "\n";
        return 0;
    }
    if (argc < 2)
        return usage();

    std::string axis = "size";
    std::string metric = "miss";
    std::string trace_out;
    std::string store_dir;
    std::uint64_t store_cap_bytes = 256ull << 20;
    bool incremental = false;
    std::string trace_cache_dir;
    tools::CommonFlags common;
    core::CacheConfig base;
    base.hitPolicy = core::WriteHitPolicy::WriteBack;

    try {
        for (int i = 2; i < argc; ++i) {
            if (tools::parseCommonFlag(argc, argv, i, kCommonFlags,
                                       common))
                continue;
            std::string flag = argv[i];
            if (flag == "--incremental") {
                incremental = true;
                continue;
            }
            if (i + 1 >= argc)
                return usage();
            std::string value = argv[++i];
            if (flag == "--axis") {
                axis = value;
            } else if (flag == "--metric") {
                metric = value;
            } else if (flag == "--trace-out") {
                trace_out = value;
            } else if (flag == "--store-dir") {
                store_dir = value;
            } else if (flag == "--trace-cache-dir") {
                trace_cache_dir = value;
            } else if (flag == "--store-cap-bytes") {
                store_cap_bytes =
                    std::strtoull(value.c_str(), nullptr, 10);
            } else if (flag == "--hit") {
                auto policy = core::parseHitPolicy(value);
                if (!policy)
                    return usage();
                base.hitPolicy = *policy;
            } else if (flag == "--miss") {
                auto policy = core::parseMissPolicy(value);
                if (!policy)
                    return usage();
                base.missPolicy = *policy;
            } else {
                return usage();
            }
        }

        if (!service::isSweepMetric(metric))
            return usage();
        if (incremental && store_dir.empty()) {
            std::cerr << "error: --incremental requires "
                         "--store-dir\n";
            return usage();
        }

        if (!trace_out.empty())
            telemetry::SpanTracer::instance().start();

        std::string source = argv[1];
        trace::Trace trace = [&] {
            telemetry::Span span("trace.generate", "sim");
            span.arg("source", source);
            return std::filesystem::exists(source)
                ? trace::loadAnyTrace(source)
                : workloads::generateTrace(
                      *workloads::makeWorkload(source));
        }();

        sim::AxisPoints points = sim::buildAxisPoints(axis, base);

        // One digest names the replay cache and keys the store.
        const std::string digest =
            trace_cache_dir.empty() && store_dir.empty()
                ? std::string()
                : trace::contentDigest(trace);

        // With a replay-cache directory the one-pass engine replays
        // the mmap'd delta blocks instead of the in-memory records:
        // the cache is written once per trace content and mapped on
        // every later sweep.  The in-memory trace still rides along
        // for the per-cell engine and for rendering.
        std::unique_ptr<trace::MappedReplayCache> mapped;
        if (!trace_cache_dir.empty()) {
            telemetry::Span span("trace.replay_cache", "sim");
            // Temporaries of writers killed before their rename.
            trace::sweepReplayCacheDir(trace_cache_dir);
            std::string cache_path =
                trace::ensureReplayCache(trace, digest, trace_cache_dir);
            mapped = std::make_unique<trace::MappedReplayCache>(
                cache_path);
            span.arg("digest", mapped->digest());
        }

        // One request per sweep point; results come back in point
        // order regardless of completion order or engine.
        std::vector<sim::Request> requests;
        for (const core::CacheConfig& config : points.configs)
            requests.push_back({&trace, config, false, mapped.get()});

        // With --store-dir, derive every cell's canonical key and
        // reuse what the store already holds (--incremental); the
        // remaining cells run as one batch, so the one-pass engine
        // still shares a single decode across them.
        std::optional<store::ResultStore> result_store;
        std::vector<std::string> keys;
        sim::BatchOutcome outcome;
        outcome.results.resize(requests.size());
        std::vector<std::size_t> todo;
        std::size_t reused = 0;
        if (!store_dir.empty()) {
            store::StoreConfig store_config;
            store_config.dir = store_dir;
            store_config.capBytes = store_cap_bytes;
            result_store.emplace(store_config);

            store::KeyContext ctx;
            ctx.engine = common.engine;
            const std::string identity =
                trace::traceIdentity(trace.name(), digest, trace.size());
            for (const core::CacheConfig& config : points.configs)
                keys.push_back(store::cellKey(
                    ctx, identity,
                    service::canonicalConfigKey(config), false));
        }
        for (std::size_t i = 0; i < requests.size(); ++i) {
            if (incremental) {
                if (auto hit = result_store->get(keys[i])) {
                    if (auto cached = parseCellPayload(*hit)) {
                        outcome.results[i] = *cached;
                        ++reused;
                        continue;
                    }
                }
            }
            todo.push_back(i);
        }

        if (!todo.empty()) {
            std::vector<sim::Request> subset;
            subset.reserve(todo.size());
            for (std::size_t index : todo)
                subset.push_back(requests[index]);

            // Each cell is published and reported the moment the
            // engine finishes it, so a killed sweep keeps every cell
            // it completed and one failing cell discards no others.
            std::size_t done = 0;
            sim::BatchOptions options;
            options.engine = common.engine;
            options.jobs = common.jobs;
            options.onComplete = [&](std::size_t k,
                                     const sim::Result& result) {
                if (result_store)
                    result_store->put(keys[todo[k]],
                                      cellPayload(result));
                if (common.progress)
                    std::cerr << "\r[" << ++done << "/" << todo.size()
                              << "] points replayed" << std::flush;
            };
            sim::BatchOutcome fresh = sim::runBatch(subset, options);
            if (done > 0)
                std::cerr << "\n";
            for (std::size_t k = 0; k < todo.size(); ++k)
                outcome.results[todo[k]] = fresh.results[k];
            // Failure indices refer to the subset; report them in
            // sweep-point coordinates.
            for (sim::JobFailure& f : fresh.report.failures)
                f.index = todo[f.index];
            outcome.report = std::move(fresh.report);
        }
        if (result_store)
            std::cerr << "store: reused " << reused
                      << " cells, simulated " << todo.size()
                      << " cells\n";

        if (reportFailures(outcome.report))
            return 1;
        {
            telemetry::Span render_span("render.sweep_table",
                                        "service");
            service::renderSweepTable(std::cout, axis, metric,
                                      trace.name(), base,
                                      points.labels,
                                      outcome.results);
        }

        if (common.progress)
            std::cerr << outcome.report.summary() << "\n";
        tools::writeJsonSink(common, [&](std::ostream& os) {
            outcome.report.writeJson(os);
        });
        if (!trace_out.empty()) {
            telemetry::SpanTracer& tracer =
                telemetry::SpanTracer::instance();
            tracer.stop();
            std::string error;
            fatalIf(!tracer.save(trace_out, &error), error);
            std::cerr << "wrote " << tracer.eventCount()
                      << " trace events to " << trace_out << "\n";
        }
        return 0;
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
