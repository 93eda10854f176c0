/**
 * @file
 * The two grid workloads: paper-grid (every cell a fast lane) and
 * assoc-grid (every cell a generic lane).
 *
 * Set-up loads the nine seeded traces, writes and maps their JCRC
 * replay caches; it is repeated and its median reported.  The timed
 * window then repeats, until the run's seconds are spent: one
 * sim::runBatch call per trace over that trace's grid (one-pass
 * engine, two workers), then service::renderSweepTable for every
 * figure table.  The gate runs afterwards, outside the window.
 */

#include <filesystem>
#include <sstream>

#include <unistd.h>

#include "perfbench.hh"
#include "sim/engine.hh"
#include "sim/multiconfig.hh"

namespace fs = std::filesystem;

namespace perfbench
{

using jcache::core::CacheConfig;
using jcache::sim::RunResult;

namespace
{

constexpr unsigned kSetups = 5;
constexpr unsigned kMinReps = 3;
constexpr unsigned kJobs = 2;
constexpr unsigned kGateCellsPerTrace = 2;

RunOutput
runGrid(const Options& options, const std::vector<CacheConfig>& cells,
        const std::vector<TableSpec>& tables)
{
    RunOutput out;
    Inputs inputs = prepareInputs(options);
    std::string run_dir =
        options.workDir + "/run-" + std::to_string(::getpid());
    std::string jcrc_dir = run_dir + "/jcrc";

    std::vector<double> setups;
    LoadedTraces loaded;
    for (unsigned k = 0; k < kSetups; ++k) {
        loaded = LoadedTraces{};
        auto start = Clock::now();
        {
            Span span("bench", "set-up");
            loaded = loadTraces(inputs, jcrc_dir);
        }
        setups.push_back(secondsSince(start));
    }

    const std::size_t traces = loaded.maps.size();
    std::vector<std::vector<jcache::sim::Request>> requests(traces);
    for (std::size_t t = 0; t < traces; ++t)
        for (const CacheConfig& c : cells) {
            jcache::sim::Request r;
            r.source = loaded.maps[t].get();
            r.config = c;
            r.flushAtEnd = true;
            requests[t].push_back(r);
        }
    jcache::sim::BatchOptions batch_options;
    batch_options.engine = jcache::sim::Engine::OnePass;
    batch_options.jobs = kJobs;

    // The timed window.  A traced run alternates traced and untraced
    // repetitions so the difference between them is the tracing cost.
    std::vector<std::vector<RunResult>> results(traces);
    std::vector<std::string> first_json;
    std::string first_tables;
    std::vector<double> walls, traced_walls, batch_walls;
    std::vector<std::vector<double>> trace_ms(traces);
    double busy = 0.0, capacity = 0.0;
    std::uint64_t failed = 0;
    double render_seconds = 0.0;
    const unsigned min_reps = options.trace ? 2 * kMinReps : kMinReps;
    auto window = Clock::now();
    unsigned reps = 0;
    for (; reps < min_reps || secondsSince(window) < options.seconds;
         ++reps) {
        bool traced_rep = options.trace && reps % 2 == 1;
        Spans::arm(traced_rep);
        std::ostringstream rendered;
        double batch_wall = 0.0;
        auto start = Clock::now();
        {
            Span span("bench", "grid repetition");
            for (std::size_t t = 0; t < traces; ++t) {
                auto call = Clock::now();
                jcache::sim::BatchOutcome batch = [&] {
                    Span s("sim", "runBatch");
                    return jcache::sim::runBatch(requests[t],
                                                 batch_options);
                }();
                trace_ms[t].push_back(secondsSince(call) * 1e3);
                failed += batch.report.failures.size();
                batch_wall += batch.report.wallSeconds;
                busy += batch.report.utilization() *
                        batch.report.wallSeconds;
                capacity += batch.report.wallSeconds;
                results[t] = std::move(batch.results);
            }
            auto render = Clock::now();
            for (std::size_t t = 0; t < traces; ++t)
                renderTables(rendered, tables, loaded.traces[t]->name(),
                             results[t].data());
            render_seconds += secondsSince(render);
        }
        (traced_rep ? traced_walls : walls).push_back(secondsSince(start));
        batch_walls.push_back(batch_wall);

        // Every repetition must reproduce the first byte for byte.
        Spans::arm(false);
        std::size_t k = 0;
        for (std::size_t t = 0; t < traces; ++t)
            for (const RunResult& r : results[t]) {
                std::string json = resultJson(r);
                if (reps == 0)
                    first_json.push_back(std::move(json));
                else if (json != first_json[k])
                    ++failed;
                ++k;
            }
        if (reps == 0)
            first_tables = rendered.str();
        else if (rendered.str() != first_tables)
            ++failed;
    }
    Spans::arm(options.trace);

    // The gate: conservation on every cell, and a seeded sample
    // re-simulated by the per-cell reference engine.
    if (options.plantMismatch)
        ++results[0][0].cache.readHits;
    PerCellTally percell;
    Rng rng(options.seed ^ 0x6761746500ull);
    {
        Span span("bench", "gate");
        for (std::size_t t = 0; t < traces; ++t) {
            for (const RunResult& r : results[t])
                if (!conserves(r))
                    ++failed;
            std::vector<std::size_t> sample;
            while (sample.size() < kGateCellsPerTrace) {
                std::size_t i = rng.below(cells.size());
                if (std::find(sample.begin(), sample.end(), i) ==
                    sample.end())
                    sample.push_back(i);
            }
            for (std::size_t i : sample)
                if (!matchesPerCell(*loaded.traces[t], cells[i],
                                    resultJson(results[t][i]), percell))
                    ++failed;
        }
    }

    std::uint64_t digest = fnv1a(first_tables);
    for (const std::string& json : first_json)
        digest = fnv1a(json, digest);
    std::size_t fast = 0;
    for (const CacheConfig& c : cells)
        fast += jcache::sim::fastLaneEligible(c) ? 1 : 0;

    const double cells_per_rep = static_cast<double>(cells.size() * traces);
    out.attempted = static_cast<std::uint64_t>(cells_per_rep) * reps;
    out.failed = failed;
    out.correct = failed == 0;
    out.resultsDigest = hex64(digest);
    out.counts["cells"] = cells_per_rep;
    out.counts["records"] = static_cast<double>(loaded.records);
    out.counts["lanes_fast"] = static_cast<double>(fast * traces);
    out.counts["lanes_generic"] =
        static_cast<double>((cells.size() - fast) * traces);
    out.counts["tables"] = static_cast<double>(tables.size() * traces);
    out.counts["jcrc_bytes"] = static_cast<double>(loaded.jcrcBytes);

    if (!options.trace) {
        double wall = median(walls);
        out.add("setup_s", median(setups), "s");
        out.add("wall_s", wall, "s");
        out.add("cell_mrefs_per_s",
                static_cast<double>(cells.size()) *
                    static_cast<double>(loaded.records) / wall / 1e6,
                "Mref/s");
        out.add("requests_per_s", cells_per_rep / wall, "1/s");
        out.add("peak_rss_mb", selfPeakRssMb(), "MB");
        // A grid's answers are its traces' grids, each timed by its
        // median over the repetitions.
        std::vector<double> per_trace;
        for (const std::vector<double>& ms : trace_ms)
            per_trace.push_back(median(ms));
        out.add("miss_mean_ms", mean(per_trace), "ms");
        out.add("miss_p99_ms", quantile(per_trace, 0.99), "ms");
        fs::remove_all(run_dir);
        return out;
    }

    ProbeContext context;
    context.options = &options;
    context.loaded = &loaded;
    context.jcrcDir = jcrc_dir;
    context.scratchDir = run_dir + "/probe";
    for (std::size_t t = 0; t < traces; ++t) {
        for (const RunResult& r : results[t])
            context.results.push_back(r);
        for (const CacheConfig& c : cells)
            context.requests.push_back(
                runRequest(loaded.digests[t], c, true));
    }
    context.batchSeconds = median(batch_walls);
    context.utilization = capacity > 0.0 ? busy / capacity : 0.0;
    context.percell = percell;
    context.renderSeconds = render_seconds;
    context.tables = tables.size() * traces * reps;
    probeLayers(context, out);
    out.add("bench.tracing_overhead_pct",
            (median(traced_walls) / median(walls) - 1.0) * 100.0, "%");
    fs::remove_all(run_dir);
    return out;
}

} // namespace

RunOutput
runPaperGrid(const Options& options)
{
    return runGrid(options, paperCells(), paperTables());
}

RunOutput
runAssocGrid(const Options& options)
{
    return runGrid(options, assocCells(), assocTables());
}

} // namespace perfbench
