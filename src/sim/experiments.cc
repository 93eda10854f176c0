/**
 * @file
 * Implementation of the per-figure experiments.
 */

#include "sim/experiments.hh"

#include <functional>

#include "core/store_pipeline.hh"
#include "core/write_buffer.hh"
#include "core/write_cache.hh"
#include "sim/engine.hh"
#include "sim/parallel.hh"
#include "stats/counter.hh"
#include "stats/table.hh"
#include "util/logging.hh"

namespace jcache::sim
{

namespace
{

using core::CacheConfig;
using core::WriteHitPolicy;
using core::WriteMissPolicy;

CacheConfig
makeConfig(Count size, unsigned line, WriteHitPolicy hit,
           WriteMissPolicy miss)
{
    CacheConfig config;
    config.sizeBytes = size;
    config.lineBytes = line;
    config.assoc = 1;
    config.hitPolicy = hit;
    config.missPolicy = miss;
    return config;
}

/** A figure's title, x axis and x labels; no series yet. */
template <typename X>
FigureData
emptyFigure(const std::string& title, const std::string& x_axis,
            const std::vector<X>& xs,
            const std::function<std::string(X)>& x_label)
{
    FigureData figure;
    figure.title = title;
    figure.xAxis = x_axis;
    for (X x : xs)
        figure.xLabels.push_back(x_label(x));
    return figure;
}

/**
 * Per-benchmark sweep over one axis; metric(trace index, x) -> value.
 *
 * The (trace x x) grid fans out over the parallel executor; values
 * land in grid-index order, so the figure is identical to a serial
 * sweep regardless of thread count.
 */
template <typename X, typename Metric>
FigureData
sweep(const std::string& title, const std::string& x_axis,
      const std::vector<X>& xs,
      const std::function<std::string(X)>& x_label,
      const TraceSet& traces, Metric metric)
{
    FigureData figure = emptyFigure(title, x_axis, xs, x_label);
    std::size_t nx = xs.size();
    std::vector<double> values(traces.size() * nx);
    ParallelExecutor().runTasks(values.size(), [&](std::size_t i) {
        values[i] = metric(i / nx, xs[i % nx]);
        return Count{0};
    });

    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        Series series;
        series.label = traces.traces()[ti].name();
        series.values.assign(values.begin() + ti * nx,
                             values.begin() + (ti + 1) * nx);
        figure.series.push_back(std::move(series));
    }
    appendAverage(figure);
    return figure;
}

/**
 * Run a figure's (trace x config) grid as one batch through the
 * unified engine, so under the default one-pass engine every trace is
 * decoded once for the whole figure.  The result of trace `ti` under
 * config `ci` is at `ti * configs.size() + ci`.
 */
std::vector<RunResult>
runGrid(const TraceSet& traces, const std::vector<CacheConfig>& configs,
        bool flush_at_end)
{
    std::vector<Request> requests;
    requests.reserve(traces.size() * configs.size());
    for (const trace::Trace& t : traces.traces()) {
        for (const CacheConfig& config : configs)
            requests.push_back({&t, config, flush_at_end});
    }
    BatchOutcome outcome = runBatch(requests);
    if (!outcome.ok())
        fatal("figure batch failed: " +
              outcome.report.failures.front().message);
    return std::move(outcome.results);
}

/**
 * Per-benchmark sweep whose metric is a pure function of one
 * RunResult; the whole (trace x x) grid is one runGrid.
 */
template <typename X>
FigureData
resultSweep(const std::string& title, const std::string& x_axis,
            const std::vector<X>& xs,
            const std::function<std::string(X)>& x_label,
            const TraceSet& traces,
            const std::function<CacheConfig(X)>& config_for,
            const std::function<double(const RunResult&)>& metric,
            bool flush_at_end = false)
{
    FigureData figure = emptyFigure(title, x_axis, xs, x_label);
    std::vector<CacheConfig> configs;
    for (X x : xs)
        configs.push_back(config_for(x));
    std::vector<RunResult> results =
        runGrid(traces, configs, flush_at_end);

    std::size_t nx = xs.size();
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        Series series;
        series.label = traces.traces()[ti].name();
        for (std::size_t xi = 0; xi < nx; ++xi)
            series.values.push_back(metric(results[ti * nx + xi]));
        figure.series.push_back(std::move(series));
    }
    appendAverage(figure);
    return figure;
}

std::function<std::string(Count)>
sizeLabel()
{
    return [](Count bytes) { return stats::formatSize(bytes); };
}

std::function<std::string(unsigned)>
lineLabel()
{
    return [](unsigned bytes) {
        return std::to_string(bytes) + "B";
    };
}

constexpr Count kBaseCacheSize = 8 * 1024;
constexpr unsigned kBaseLineSize = 16;

/** Direct-mapped write-back fetch-on-write cache of `size` bytes. */
std::function<CacheConfig(Count)>
wbBySize()
{
    return [](Count size) {
        return makeConfig(size, kBaseLineSize,
                          WriteHitPolicy::WriteBack,
                          WriteMissPolicy::FetchOnWrite);
    };
}

/** Direct-mapped 8KB write-back cache with `line`-byte lines. */
std::function<CacheConfig(unsigned)>
wbByLine()
{
    return [](unsigned line) {
        return makeConfig(kBaseCacheSize, line,
                          WriteHitPolicy::WriteBack,
                          WriteMissPolicy::FetchOnWrite);
    };
}

/** Fraction of a trace's writes removed by an n-entry write cache. */
double
writeCacheRemovalPct(const trace::Trace& t, unsigned entries)
{
    if (entries == 0)
        return 0.0;
    core::WriteCache wc(entries, 8, nullptr);
    for (const trace::TraceRecord& record : t) {
        if (record.type == trace::RefType::Write)
            wc.writeThrough(record.addr, record.size);
    }
    return 100.0 * wc.fractionRemoved();
}

std::vector<unsigned>
writeCacheEntryAxis()
{
    std::vector<unsigned> entries;
    for (unsigned n = 0; n <= 16; ++n)
        entries.push_back(n);
    return entries;
}

/**
 * The four write-miss policies: the fetch-on-write baseline, then the
 * three no-fetch policies in paper order.
 */
const std::vector<WriteMissPolicy> kMissPolicies = {
    WriteMissPolicy::FetchOnWrite,
    WriteMissPolicy::WriteValidate,
    WriteMissPolicy::WriteAround,
    WriteMissPolicy::WriteInvalidate,
};

/**
 * Shared implementation of Figures 13-16.  For each no-fetch policy,
 * the reduction in counted misses relative to fetch-on-write is
 * normalized by the fetch-on-write write-miss count (write_basis =
 * true; Figures 13/15) or total-miss count (Figures 14/16).
 *
 * One batch replays all four policies per (trace, x) point through
 * the unified engine — the fetch-on-write baseline runs once and is
 * shared by the three reduction figures by construction (the one-pass
 * engine dedupes it into a single lane per trace pass), where the
 * serial version re-ran it per policy.
 */
template <typename X>
std::vector<FigureData>
missReductionSweep(const std::string& figure_name,
                   const std::string& x_axis, const std::vector<X>& xs,
                   const std::function<std::string(X)>& x_label,
                   const TraceSet& traces, bool write_basis,
                   const std::function<CacheConfig(X,
                                                   WriteMissPolicy)>&
                       config_for)
{
    // Configs: x-major, then policy.
    std::vector<CacheConfig> configs;
    for (X x : xs) {
        for (WriteMissPolicy p : kMissPolicies)
            configs.push_back(config_for(x, p));
    }
    std::vector<RunResult> results = runGrid(traces, configs, false);

    std::size_t np = kMissPolicies.size();
    std::size_t nx = xs.size();
    auto at = [&](std::size_t ti, std::size_t xi,
                  std::size_t pi) -> const RunResult& {
        return results[ti * configs.size() + xi * np + pi];
    };

    std::vector<FigureData> result;
    for (std::size_t pi = 1; pi < np; ++pi) {
        FigureData figure =
            emptyFigure(figure_name + " — " + core::name(kMissPolicies[pi]),
                        x_axis, xs, x_label);
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            Series series;
            series.label = traces.traces()[ti].name();
            for (std::size_t xi = 0; xi < nx; ++xi) {
                const RunResult& base = at(ti, xi, 0);
                const RunResult& alt = at(ti, xi, pi);
                Count basis = write_basis
                    ? base.cache.writeMisses
                    : base.cache.countedMisses();
                double delta =
                    static_cast<double>(base.cache.countedMisses()) -
                    static_cast<double>(alt.cache.countedMisses());
                series.values.push_back(
                    basis ? 100.0 * delta /
                                static_cast<double>(basis)
                          : 0.0);
            }
            figure.series.push_back(std::move(series));
        }
        appendAverage(figure);
        result.push_back(std::move(figure));
    }
    return result;
}

} // namespace

const Series&
FigureData::get(const std::string& label) const
{
    for (const Series& s : series) {
        if (s.label == label)
            return s;
    }
    fatal("figure '" + title + "' has no series '" + label + "'");
}

void
appendAverage(FigureData& figure)
{
    if (figure.series.empty())
        return;
    Series average;
    average.label = "average";
    std::size_t points = figure.series.front().values.size();
    for (std::size_t i = 0; i < points; ++i) {
        double sum = 0.0;
        for (const Series& s : figure.series)
            sum += s.values[i];
        average.values.push_back(
            sum / static_cast<double>(figure.series.size()));
    }
    figure.series.push_back(std::move(average));
}

FigureData
figure1WritesToDirtyVsLineSize(const TraceSet& traces)
{
    return resultSweep<unsigned>(
        "Figure 1: writes to already-dirty lines, 8KB write-back "
        "caches",
        "line size", standardLineSizes(), lineLabel(), traces,
        wbByLine(), [](const RunResult& r) {
            return r.percentWritesToDirtyLines();
        });
}

FigureData
figure2WritesToDirtyVsCacheSize(const TraceSet& traces)
{
    return resultSweep<Count>(
        "Figure 2: writes to already-dirty lines, 16B lines",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        wbBySize(), [](const RunResult& r) {
            return r.percentWritesToDirtyLines();
        });
}

FigureData
storePipelineComparison(const TraceSet& traces)
{
    FigureData figure;
    figure.title = "Figures 3/4: store-scheme CPI overhead, 8KB/16B";
    figure.xAxis = "benchmark";
    for (const trace::Trace& t : traces.traces())
        figure.xLabels.push_back(t.name());

    CacheConfig config = makeConfig(kBaseCacheSize, kBaseLineSize,
                                    WriteHitPolicy::WriteBack,
                                    WriteMissPolicy::FetchOnWrite);
    for (core::StoreScheme scheme :
         {core::StoreScheme::WriteThroughDirect,
          core::StoreScheme::ProbeThenWrite,
          core::StoreScheme::DelayedWrite}) {
        Series series;
        series.label = core::name(scheme);
        for (const trace::Trace& t : traces.traces()) {
            auto result =
                core::simulateStorePipeline(t, config, scheme);
            series.values.push_back(result.cpiOverhead());
        }
        figure.series.push_back(std::move(series));
    }
    return figure;
}

FigureData
figure5WriteBufferSweep(const TraceSet& traces)
{
    FigureData figure;
    figure.title = "Figure 5: coalescing write buffer merges vs CPI "
                   "(8 entries x 16B)";
    figure.xAxis = "cycles per write retire";

    std::vector<Cycles> retires;
    for (Cycles n = 0; n <= 48; n += 4)
        retires.push_back(n);
    for (Cycles n : retires)
        figure.xLabels.push_back(std::to_string(n));

    Series merged{"% merged (8-entry buffer)", {}};
    Series stall{"write buffer full stall CPI", {}};
    for (Cycles n : retires) {
        double merged_sum = 0.0;
        double stall_sum = 0.0;
        for (const trace::Trace& t : traces.traces()) {
            core::WriteBufferConfig config;
            config.entries = 8;
            config.entryBytes = 16;
            config.retireInterval = n;
            core::CoalescingWriteBuffer buffer(config);
            // The paper ignores cache-miss time here: the clock
            // advances one cycle per instruction plus buffer stalls.
            Cycles now = 0;
            Count instructions = 0;
            for (const trace::TraceRecord& record : t) {
                now += record.instrDelta;
                instructions += record.instrDelta;
                if (record.type == trace::RefType::Write)
                    now += buffer.write(record.addr, now);
            }
            merged_sum += 100.0 * buffer.mergeFraction();
            stall_sum += stats::ratio(buffer.stallCycles(),
                                      instructions);
        }
        auto n_traces = static_cast<double>(traces.size());
        merged.values.push_back(merged_sum / n_traces);
        stall.values.push_back(stall_sum / n_traces);
    }
    figure.series.push_back(std::move(merged));
    figure.series.push_back(std::move(stall));

    // Reference line: percent merged by a 6-entry write cache.
    double wc_sum = 0.0;
    for (const trace::Trace& t : traces.traces())
        wc_sum += writeCacheRemovalPct(t, 6);
    Series reference{"% merged by 6-entry write cache", {}};
    reference.values.assign(
        retires.size(), wc_sum / static_cast<double>(traces.size()));
    figure.series.push_back(std::move(reference));
    return figure;
}

FigureData
figure7WriteCacheAbsolute(const TraceSet& traces)
{
    return sweep<unsigned>(
        "Figure 7: write cache absolute traffic reduction",
        "write-cache entries (8B)", writeCacheEntryAxis(),
        [](unsigned n) { return std::to_string(n); }, traces,
        [&traces](std::size_t ti, unsigned entries) {
            return writeCacheRemovalPct(traces.traces()[ti], entries);
        });
}

FigureData
figure8WriteCacheRelative(const TraceSet& traces)
{
    // The 4KB write-back cell each trace is compared against; its
    // percent of writes to dirty lines is the writes it removes.
    std::vector<RunResult> wb =
        runGrid(traces, {wbBySize()(4 * 1024)}, false);
    return sweep<unsigned>(
        "Figure 8: write cache reduction relative to a 4KB "
        "write-back cache",
        "write-cache entries (8B)", writeCacheEntryAxis(),
        [](unsigned n) { return std::to_string(n); }, traces,
        [&](std::size_t ti, unsigned entries) {
            double removed = wb[ti].percentWritesToDirtyLines();
            if (removed == 0.0)
                return 0.0;
            return 100.0 *
                writeCacheRemovalPct(traces.traces()[ti], entries) /
                removed;
        });
}

FigureData
figure9WriteCacheVsWbSize(const TraceSet& traces)
{
    FigureData figure;
    figure.title = "Figure 9: relative traffic reduction of a write "
                   "cache vs write-back cache size";
    figure.xAxis = "write-back cache size";
    std::vector<CacheConfig> configs;
    for (Count kb = 1; kb <= 64; kb *= 2) {
        configs.push_back(wbBySize()(kb * 1024));
        figure.xLabels.push_back(stats::formatSize(kb * 1024));
    }
    std::vector<RunResult> wb = runGrid(traces, configs, false);

    // Each (entries, trace) write cache replays once, for every size.
    const std::vector<unsigned> entries = {15, 5, 1};
    std::size_t nt = traces.size();
    std::vector<double> wc;
    for (unsigned n : entries)
        for (const trace::Trace& t : traces.traces())
            wc.push_back(writeCacheRemovalPct(t, n));

    for (std::size_t ei = 0; ei < entries.size(); ++ei) {
        Series series;
        series.label =
            std::to_string(entries[ei]) + " entry write cache";
        for (std::size_t si = 0; si < configs.size(); ++si) {
            double sum = 0.0;
            for (std::size_t ti = 0; ti < nt; ++ti) {
                double removed = wb[ti * configs.size() + si]
                                     .percentWritesToDirtyLines();
                sum += removed > 0.0
                    ? 100.0 * wc[ei * nt + ti] / removed
                    : 0.0;
            }
            series.values.push_back(sum / static_cast<double>(nt));
        }
        figure.series.push_back(std::move(series));
    }
    return figure;
}

FigureData
figure10WriteMissShareVsCacheSize(const TraceSet& traces)
{
    return resultSweep<Count>(
        "Figure 10: write misses as a percent of all misses, 16B "
        "lines",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        wbBySize(), [](const RunResult& r) {
            return r.percentWriteMissesOfAllMisses();
        });
}

FigureData
figure11WriteMissShareVsLineSize(const TraceSet& traces)
{
    return resultSweep<unsigned>(
        "Figure 11: write misses as a percent of all misses, 8KB "
        "caches",
        "line size", standardLineSizes(), lineLabel(), traces,
        wbByLine(), [](const RunResult& r) {
            return r.percentWriteMissesOfAllMisses();
        });
}

std::vector<FigureData>
figure13WriteMissReductionVsCacheSize(const TraceSet& traces)
{
    return missReductionSweep<Count>(
        "Figure 13: write miss rate reductions, 16B lines",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        /*write_basis=*/true,
        [](Count size, WriteMissPolicy miss) {
            return makeConfig(size, kBaseLineSize,
                              WriteHitPolicy::WriteThrough, miss);
        });
}

std::vector<FigureData>
figure14TotalMissReductionVsCacheSize(const TraceSet& traces)
{
    return missReductionSweep<Count>(
        "Figure 14: total miss rate reductions, 16B lines",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        /*write_basis=*/false,
        [](Count size, WriteMissPolicy miss) {
            return makeConfig(size, kBaseLineSize,
                              WriteHitPolicy::WriteThrough, miss);
        });
}

std::vector<FigureData>
figure15WriteMissReductionVsLineSize(const TraceSet& traces)
{
    return missReductionSweep<unsigned>(
        "Figure 15: write miss rate reductions, 8KB caches",
        "line size", standardLineSizes(), lineLabel(), traces,
        /*write_basis=*/true,
        [](unsigned line, WriteMissPolicy miss) {
            return makeConfig(kBaseCacheSize, line,
                              WriteHitPolicy::WriteThrough, miss);
        });
}

std::vector<FigureData>
figure16TotalMissReductionVsLineSize(const TraceSet& traces)
{
    return missReductionSweep<unsigned>(
        "Figure 16: total miss rate reductions, 8KB caches",
        "line size", standardLineSizes(), lineLabel(), traces,
        /*write_basis=*/false,
        [](unsigned line, WriteMissPolicy miss) {
            return makeConfig(kBaseCacheSize, line,
                              WriteHitPolicy::WriteThrough, miss);
        });
}

bool
verifyFigure17PartialOrder(const TraceSet& traces, Count cache_size,
                           unsigned line_bytes,
                           std::vector<std::string>* violations)
{
    // All four policies per trace in one batch: write-through caches
    // throughout, so every policy is legal and comparisons are
    // policy-only.
    std::vector<CacheConfig> configs;
    for (WriteMissPolicy miss : kMissPolicies)
        configs.push_back(makeConfig(cache_size, line_bytes,
                                     WriteHitPolicy::WriteThrough, miss));
    std::vector<RunResult> results = runGrid(traces, configs, false);
    auto misses = [&](std::size_t ti, std::size_t pi) {
        return results[ti * configs.size() + pi].cache.countedMisses();
    };

    bool ok = true;
    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        const trace::Trace& t = traces.traces()[ti];
        Count fow = misses(ti, 0);
        Count wv = misses(ti, 1);
        Count wa = misses(ti, 2);
        Count wi = misses(ti, 3);
        auto check = [&](bool cond, const std::string& what) {
            if (cond)
                return;
            ok = false;
            if (violations) {
                violations->push_back(
                    t.name() + " @" + stats::formatSize(cache_size) +
                    "/" + std::to_string(line_bytes) + "B: " + what);
            }
        };
        check(wv <= wi, "write-validate > write-invalidate");
        check(wa <= wi, "write-around > write-invalidate");
        check(wi <= fow, "write-invalidate > fetch-on-write");
    }
    return ok;
}

namespace
{

/** Shared implementation of Figures 18/19. */
template <typename X>
FigureData
trafficComponents(const std::string& title, const std::string& x_axis,
                  const std::vector<X>& xs,
                  const std::function<std::string(X)>& x_label,
                  const TraceSet& traces,
                  const std::function<CacheConfig(X,
                                                  WriteHitPolicy)>&
                      config_for)
{
    FigureData figure = emptyFigure(title, x_axis, xs, x_label);
    // Configs: x-major, then hit policy (WT, WB).
    std::vector<CacheConfig> configs;
    for (X x : xs) {
        configs.push_back(config_for(x, WriteHitPolicy::WriteThrough));
        configs.push_back(config_for(x, WriteHitPolicy::WriteBack));
    }
    std::vector<RunResult> results = runGrid(traces, configs, false);

    std::size_t nx = xs.size();
    Series wt{"write-through", {}};
    Series wb{"write-back", {}};
    Series wm{"write misses", {}};
    Series rm{"read misses", {}};
    for (std::size_t xi = 0; xi < nx; ++xi) {
        double wt_sum = 0, wb_sum = 0, wm_sum = 0, rm_sum = 0;
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            const RunResult& r_wt =
                results[ti * configs.size() + xi * 2];
            const RunResult& r_wb =
                results[ti * configs.size() + xi * 2 + 1];
            wt_sum += r_wt.transactionsPerInstruction();
            wb_sum += r_wb.transactionsPerInstruction();
            wm_sum += stats::ratio(r_wb.cache.writeMissFetches,
                                   r_wb.instructions);
            rm_sum += stats::ratio(r_wb.cache.readMisses,
                                   r_wb.instructions);
        }
        auto n = static_cast<double>(traces.size());
        wt.values.push_back(wt_sum / n);
        wb.values.push_back(wb_sum / n);
        wm.values.push_back(wm_sum / n);
        rm.values.push_back(rm_sum / n);
    }
    figure.series = {std::move(wt), std::move(wb), std::move(wm),
                     std::move(rm)};
    return figure;
}

} // namespace

FigureData
figure18TrafficVsCacheSize(const TraceSet& traces)
{
    return trafficComponents<Count>(
        "Figure 18: back-side transactions per instruction vs cache "
        "size (16B lines)",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        [](Count size, WriteHitPolicy hit) {
            return makeConfig(size, kBaseLineSize, hit,
                              WriteMissPolicy::FetchOnWrite);
        });
}

FigureData
figure19TrafficVsLineSize(const TraceSet& traces)
{
    return trafficComponents<unsigned>(
        "Figure 19: back-side transactions per instruction vs line "
        "size (8KB caches)",
        "line size", standardLineSizes(), lineLabel(), traces,
        [](unsigned line, WriteHitPolicy hit) {
            return makeConfig(kBaseCacheSize, line, hit,
                              WriteMissPolicy::FetchOnWrite);
        });
}

FigureData
figure20VictimsDirtyVsCacheSize(const TraceSet& traces,
                                bool flush_stop)
{
    return resultSweep<Count>(
        std::string("Figure 20: percent of victims dirty vs cache "
                    "size, 16B lines (") +
            (flush_stop ? "flush stop)" : "cold stop)"),
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        wbBySize(), [flush_stop](const RunResult& r) {
            return r.percentVictimsDirty(flush_stop);
        }, /*flush_at_end=*/true);
}

FigureData
figure21BytesDirtyInDirtyVictimVsCacheSize(const TraceSet& traces,
                                           bool flush_stop)
{
    return resultSweep<Count>(
        std::string("Figure 21: percent of bytes dirty in a dirty "
                    "victim vs cache size, 16B lines (") +
            (flush_stop ? "flush stop)" : "cold stop)"),
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        wbBySize(), [flush_stop](const RunResult& r) {
            return r.percentBytesDirtyInDirtyVictims(flush_stop);
        }, /*flush_at_end=*/true);
}

FigureData
figure22BytesDirtyPerVictimVsCacheSize(const TraceSet& traces)
{
    return resultSweep<Count>(
        "Figure 22: percent of bytes dirty per victim vs cache size, "
        "16B lines (flush stop)",
        "cache size", standardCacheSizes(), sizeLabel(), traces,
        wbBySize(), [](const RunResult& r) {
            return r.percentBytesDirtyPerVictim(true);
        }, /*flush_at_end=*/true);
}

FigureData
figure23VictimsDirtyVsLineSize(const TraceSet& traces,
                               bool flush_stop)
{
    return resultSweep<unsigned>(
        std::string("Figure 23: percent of victims dirty vs line "
                    "size, 8KB caches (") +
            (flush_stop ? "flush stop)" : "cold stop)"),
        "line size", standardLineSizes(), lineLabel(), traces,
        wbByLine(), [flush_stop](const RunResult& r) {
            return r.percentVictimsDirty(flush_stop);
        }, /*flush_at_end=*/true);
}

FigureData
figure24BytesDirtyInDirtyVictimVsLineSize(const TraceSet& traces,
                                          bool flush_stop)
{
    return resultSweep<unsigned>(
        std::string("Figure 24: percent of bytes dirty in a dirty "
                    "victim vs line size, 8KB caches (") +
            (flush_stop ? "flush stop)" : "cold stop)"),
        "line size", standardLineSizes(), lineLabel(), traces,
        wbByLine(), [flush_stop](const RunResult& r) {
            return r.percentBytesDirtyInDirtyVictims(flush_stop);
        }, /*flush_at_end=*/true);
}

FigureData
figure25BytesDirtyPerVictimVsLineSize(const TraceSet& traces)
{
    return resultSweep<unsigned>(
        "Figure 25: percent of bytes dirty per victim vs line size, "
        "8KB caches (flush stop)",
        "line size", standardLineSizes(), lineLabel(), traces,
        wbByLine(), [](const RunResult& r) {
            return r.percentBytesDirtyPerVictim(true);
        }, /*flush_at_end=*/true);
}

std::vector<std::pair<std::string, trace::TraceSummary>>
table1Characteristics(const TraceSet& traces)
{
    std::vector<std::pair<std::string, trace::TraceSummary>> rows;
    for (const trace::Trace& t : traces.traces())
        rows.emplace_back(t.name(), trace::summarize(t));
    return rows;
}

} // namespace jcache::sim
