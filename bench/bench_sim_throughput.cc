/**
 * @file
 * Engineering microbenchmark (google-benchmark): raw simulation
 * throughput of the DataCache hot path under the policies and
 * geometries the paper sweeps, plus trace generation and replay
 * throughput.  Not a paper figure — this guards the simulator's
 * performance so the figure sweeps stay fast.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "core/data_cache.hh"
#include "mem/main_memory.hh"
#include "mem/traffic_meter.hh"
#include "sim/engine.hh"
#include "sim/parallel.hh"
#include "sim/run.hh"
#include "sim/sweeps.hh"
#include "trace/replay_cache.hh"
#include "workloads/workload.hh"

namespace
{

using namespace jcache;

/** Deterministic address stream shared by the access benchmarks. */
struct Lcg
{
    std::uint64_t x = 88172645463325252ull;

    Addr
    next()
    {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return (x >> 16) % (256 * 1024);
    }
};

void
cacheAccessMix(benchmark::State& state, core::WriteHitPolicy hit,
               core::WriteMissPolicy miss)
{
    core::CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.lineBytes = 16;
    config.hitPolicy = hit;
    config.missPolicy = miss;
    mem::MainMemory memory(0);
    mem::TrafficMeter meter(&memory);
    core::DataCache cache(config, meter);
    Lcg lcg;
    for (auto _ : state) {
        Addr addr = lcg.next() & ~Addr{3};
        if ((addr >> 5) & 1)
            cache.write(addr, 4);
        else
            cache.read(addr, 4);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_WriteBackFetchOnWrite(benchmark::State& state)
{
    cacheAccessMix(state, core::WriteHitPolicy::WriteBack,
                   core::WriteMissPolicy::FetchOnWrite);
}

void
BM_WriteThroughWriteValidate(benchmark::State& state)
{
    cacheAccessMix(state, core::WriteHitPolicy::WriteThrough,
                   core::WriteMissPolicy::WriteValidate);
}

void
BM_WriteThroughWriteAround(benchmark::State& state)
{
    cacheAccessMix(state, core::WriteHitPolicy::WriteThrough,
                   core::WriteMissPolicy::WriteAround);
}

void
BM_SetAssociativeLookup(benchmark::State& state)
{
    core::CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.lineBytes = 16;
    config.assoc = static_cast<unsigned>(state.range(0));
    mem::MainMemory memory(0);
    core::DataCache cache(config, memory);
    Lcg lcg;
    for (auto _ : state) {
        cache.read(lcg.next() & ~Addr{3}, 4);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
BM_TraceReplay(benchmark::State& state)
{
    const trace::Trace& trace = sim::TraceSet::standard().get("grr");
    core::CacheConfig config;
    for (auto _ : state) {
        sim::RunResult result = sim::runTrace(trace, config, false);
        benchmark::DoNotOptimize(result.cache.linesFetched);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * trace.size()));
}

void
BM_TraceGeneration(benchmark::State& state)
{
    for (auto _ : state) {
        workloads::WorkloadConfig config;
        auto workload = workloads::makeWorkload("liver", config);
        trace::Trace t = workloads::generateTrace(*workload);
        benchmark::DoNotOptimize(t.size());
    }
}

/**
 * Serial-vs-parallel grid sweep: the full policy matrix across the
 * cache-size axis on one trace, replayed by the per-cell engine at
 * the thread count given by the benchmark argument.  Compare
 * /threads:1 against /threads:N for the executor speedup; the
 * "speedup vs serial" counter reports wall time relative to the
 * thread-pool-free serial loop measured once up front.
 */
void
BM_GridSweepParallel(benchmark::State& state)
{
    const trace::Trace& trace = sim::TraceSet::standard().get("grr");
    std::vector<core::CacheConfig> configs;
    for (Count size : sim::standardCacheSizes()) {
        for (auto [hit, miss] : sim::legalPolicyPairs()) {
            core::CacheConfig c;
            c.sizeBytes = size;
            c.hitPolicy = hit;
            c.missPolicy = miss;
            configs.push_back(c);
        }
    }
    std::vector<sim::Request> grid;
    for (const core::CacheConfig& c : configs)
        grid.push_back({&trace, c, false});

    // Serial reference: a plain loop with no executor at all.
    static double serial_seconds = [&] {
        auto start = std::chrono::steady_clock::now();
        for (const sim::Request& request : grid) {
            sim::RunResult r = sim::runTrace(
                *request.trace, request.config, request.flushAtEnd);
            benchmark::DoNotOptimize(r.instructions);
        }
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }();

    sim::BatchOptions options;
    options.engine = sim::Engine::PerCell;
    options.jobs = static_cast<unsigned>(state.range(0));
    Count total = 0;
    double wall = 0.0;
    for (auto _ : state) {
        sim::BatchOutcome outcome = sim::runBatch(grid, options);
        total += outcome.report.totalInstructions();
        wall += outcome.report.wallSeconds;
        benchmark::DoNotOptimize(outcome.results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
    state.counters["speedup_vs_serial"] =
        wall > 0.0 ? serial_seconds *
                         static_cast<double>(state.iterations()) / wall
                   : 0.0;
    state.counters["grid_jobs"] =
        static_cast<double>(grid.size());
}

/**
 * Acceptance benchmark for the one-pass engine: the union Figure
 * 13-16 grid (all four write-miss policies over the cache-size axis
 * at 16B lines and the line-size axis at 8KB) on one trace, single
 * worker, one-pass vs per-cell.  The "speedup_vs_percell" counter is
 * the headline number: the one-pass engine decodes the trace once per
 * chunk of lanes instead of once per cell, and must come out >= 2x.
 */
/** The union Figure 13-16 grid for one trace (52 cells). */
std::vector<sim::Request>
onePassGrid(const trace::Trace& trace)
{
    const std::vector<core::WriteMissPolicy> policies = {
        core::WriteMissPolicy::FetchOnWrite,
        core::WriteMissPolicy::WriteValidate,
        core::WriteMissPolicy::WriteAround,
        core::WriteMissPolicy::WriteInvalidate,
    };
    auto cell = [](Count size, unsigned line,
                   core::WriteMissPolicy miss) {
        core::CacheConfig c;
        c.sizeBytes = size;
        c.lineBytes = line;
        c.hitPolicy = core::WriteHitPolicy::WriteThrough;
        c.missPolicy = miss;
        return c;
    };
    std::vector<sim::Request> requests;
    for (Count size : sim::standardCacheSizes())
        for (core::WriteMissPolicy miss : policies)
            requests.push_back({&trace, cell(size, 16, miss), false});
    for (unsigned line : sim::standardLineSizes())
        for (core::WriteMissPolicy miss : policies)
            requests.push_back(
                {&trace, cell(8 * 1024, line, miss), false});
    return requests;
}

void
BM_OnePassSweep(benchmark::State& state)
{
    const trace::Trace& trace = sim::TraceSet::standard().get("grr");
    std::vector<sim::Request> requests = onePassGrid(trace);

    sim::BatchOptions jobs1;
    jobs1.jobs = 1;

    // Per-cell reference at the same worker count, measured once.
    static double percell_seconds = [&] {
        sim::BatchOptions options = jobs1;
        options.engine = sim::Engine::PerCell;
        auto start = std::chrono::steady_clock::now();
        sim::BatchOutcome outcome = sim::runBatch(requests, options);
        benchmark::DoNotOptimize(outcome.results.data());
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }();

    sim::BatchOptions options = jobs1;
    options.engine = sim::Engine::OnePass;
    Count total = 0;
    double wall = 0.0;
    for (auto _ : state) {
        auto start = std::chrono::steady_clock::now();
        sim::BatchOutcome outcome = sim::runBatch(requests, options);
        wall += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
        total += outcome.report.totalInstructions();
        benchmark::DoNotOptimize(outcome.results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
    state.counters["speedup_vs_percell"] =
        wall > 0.0 ? percell_seconds *
                         static_cast<double>(state.iterations()) / wall
                   : 0.0;
    state.counters["grid_cells"] =
        static_cast<double>(requests.size());
}

/**
 * The same grid replayed from the mmap'd JCRC cache (the
 * --trace-cache-dir trajectory): the replay cache is written once per
 * process, then every pass decodes blocks straight off the mapping
 * instead of the in-memory record array.  speedup_vs_percell is
 * comparable with BM_OnePassSweep's counter — the gap between the two
 * is the cost (or win) of the mapped decode path.
 */
void
BM_OnePassSweepMapped(benchmark::State& state)
{
    const trace::Trace& trace = sim::TraceSet::standard().get("grr");
    static const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("jcache_bench_replay_" + std::to_string(::getpid())))
            .string();
    static const trace::MappedReplayCache mapped(
        trace::ensureReplayCache(trace, dir));
    std::vector<sim::Request> requests = onePassGrid(trace);
    for (sim::Request& r : requests)
        r.source = &mapped;

    sim::BatchOptions jobs1;
    jobs1.jobs = 1;

    static double percell_seconds = [&] {
        sim::BatchOptions options = jobs1;
        options.engine = sim::Engine::PerCell;
        auto start = std::chrono::steady_clock::now();
        sim::BatchOutcome outcome = sim::runBatch(requests, options);
        benchmark::DoNotOptimize(outcome.results.data());
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }();

    sim::BatchOptions options = jobs1;
    options.engine = sim::Engine::OnePass;
    Count total = 0;
    double wall = 0.0;
    for (auto _ : state) {
        auto start = std::chrono::steady_clock::now();
        sim::BatchOutcome outcome = sim::runBatch(requests, options);
        wall += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
        total += outcome.report.totalInstructions();
        benchmark::DoNotOptimize(outcome.results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
    state.counters["speedup_vs_percell"] =
        wall > 0.0 ? percell_seconds *
                         static_cast<double>(state.iterations()) / wall
                   : 0.0;
    state.counters["grid_cells"] =
        static_cast<double>(requests.size());
}

BENCHMARK(BM_WriteBackFetchOnWrite);
BENCHMARK(BM_WriteThroughWriteValidate);
BENCHMARK(BM_WriteThroughWriteAround);
BENCHMARK(BM_SetAssociativeLookup)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_TraceReplay)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GridSweepParallel)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OnePassSweep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OnePassSweepMapped)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
