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
#include <utility>
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

/**
 * The associativity and valid-granularity grid for one trace (26
 * cells), every cell a set-kernel lane: 8KB/16B caches at 2, 4 and 8
 * ways under LRU, FIFO and random replacement, write-back
 * fetch-on-write and write-through write-validate; plus direct-mapped
 * write-through write-validate with 4-byte valid granularity over the
 * cache-size axis.
 */
std::vector<sim::Request>
assocGrid(const trace::Trace& trace)
{
    const std::pair<core::WriteHitPolicy, core::WriteMissPolicy>
        policies[] = {
            {core::WriteHitPolicy::WriteBack,
             core::WriteMissPolicy::FetchOnWrite},
            {core::WriteHitPolicy::WriteThrough,
             core::WriteMissPolicy::WriteValidate},
        };
    std::vector<sim::Request> requests;
    for (core::ReplacementPolicy replacement :
         {core::ReplacementPolicy::Lru, core::ReplacementPolicy::Fifo,
          core::ReplacementPolicy::Random})
        for (auto [hit, miss] : policies)
            for (unsigned ways : {2u, 4u, 8u}) {
                core::CacheConfig c;
                c.hitPolicy = hit;
                c.missPolicy = miss;
                c.replacement = replacement;
                c.assoc = ways;
                requests.push_back({&trace, c, false});
            }
    for (Count size : sim::standardCacheSizes()) {
        core::CacheConfig c;
        c.sizeBytes = size;
        c.hitPolicy = core::WriteHitPolicy::WriteThrough;
        c.missPolicy = core::WriteMissPolicy::WriteValidate;
        c.validGranularity = 4;
        requests.push_back({&trace, c, false});
    }
    return requests;
}

/**
 * The paper grid for one trace (72 cells): the six legal (hit, miss)
 * pairs over the cache-size axis at 16B lines and the line-size axis
 * at 8KB, flush-stop, every cell a direct-mapped lane.  Its 24 wt+fow
 * and wt+wv cells are derived from their write-back twins.
 */
std::vector<sim::Request>
paperGrid(const trace::Trace& trace)
{
    std::vector<sim::Request> requests;
    for (auto [hit, miss] : sim::legalPolicyPairs()) {
        auto cell = [&](Count size, unsigned line) {
            core::CacheConfig c;
            c.sizeBytes = size;
            c.lineBytes = line;
            c.hitPolicy = hit;
            c.missPolicy = miss;
            return sim::Request{&trace, c, true};
        };
        for (Count size : sim::standardCacheSizes())
            requests.push_back(cell(size, 16));
        for (unsigned line : sim::standardLineSizes())
            if (line != 16)
                requests.push_back(cell(8 * 1024, line));
    }
    return requests;
}

/** The grid a BM_OnePassSweep* argument names: 0, 1 or 2. */
std::vector<sim::Request>
sweepGrid(const trace::Trace& trace, std::int64_t grid)
{
    switch (grid) {
      case 0:
        return onePassGrid(trace);
      case 1:
        return assocGrid(trace);
      default:
        return paperGrid(trace);
    }
}

/**
 * Time `requests` through the one-pass engine at `jobs` workers and
 * report `speedup_vs_percell`: the per-cell engine's time for the same
 * grid at the same worker count, measured once per process into
 * `percell_seconds`, over the one-pass time per iteration.
 */
void
timeOnePass(benchmark::State& state,
            const std::vector<sim::Request>& requests, unsigned jobs,
            double& percell_seconds)
{
    sim::BatchOptions options;
    options.jobs = jobs;
    if (percell_seconds == 0.0) {
        options.engine = sim::Engine::PerCell;
        auto start = std::chrono::steady_clock::now();
        sim::BatchOutcome outcome = sim::runBatch(requests, options);
        benchmark::DoNotOptimize(outcome.results.data());
        percell_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    }

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
 * Acceptance benchmark for the one-pass engine: one grid on one
 * trace, single worker, one-pass vs per-cell.  Argument 0 is the
 * union Figure 13-16 grid (all four write-miss policies over the
 * cache-size axis at 16B lines and the line-size axis at 8KB), every
 * cell a direct-mapped write-through lane, so no cell has a
 * write-back twin; argument 1 is the associativity and
 * valid-granularity grid, every cell a set-kernel lane; argument 2 is
 * the paper grid, whose write-through fetch-on-write and
 * write-validate cells are derived from their write-back twins.  The
 * "speedup_vs_percell" counter is the headline number: the one-pass
 * engine decodes the trace once per pass instead of once per cell,
 * and must come out >= 2x.
 */
void
BM_OnePassSweep(benchmark::State& state)
{
    const trace::Trace& trace = sim::TraceSet::standard().get("grr");
    static double percell_seconds[3] = {};
    timeOnePass(state, sweepGrid(trace, state.range(0)), 1,
                percell_seconds[state.range(0)]);
}

/**
 * The same grids replayed from the mmap'd JCRC cache (the
 * --trace-cache-dir trajectory): the replay cache is written once per
 * process, then every pass decodes blocks straight off the mapping
 * instead of the in-memory record array.  speedup_vs_percell is
 * comparable with BM_OnePassSweep's counter — the gap between the two
 * is the cost (or win) of the mapped decode path.  The second
 * argument is the worker count, 1 or 2: at two workers the engine
 * splits the grid into one pass per worker, the plan jcached and
 * two-job sweeps run.
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
    std::vector<sim::Request> requests =
        sweepGrid(trace, state.range(0));
    for (sim::Request& r : requests)
        r.source = &mapped;
    const auto jobs = static_cast<unsigned>(state.range(1));
    static double percell_seconds[3][2] = {};
    timeOnePass(state, requests, jobs,
                percell_seconds[state.range(0)][jobs - 1]);
}

/**
 * trace::contentDigest() on grr: the serial FNV-1a chain that names
 * replay-cache files and store keys.
 */
void
BM_ContentDigest(benchmark::State& state)
{
    const trace::Trace& trace = sim::TraceSet::standard().get("grr");
    for (auto _ : state)
        benchmark::DoNotOptimize(trace::contentDigest(trace));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}

/**
 * trace::ensureReplayCache() into an empty directory, as a cold
 * `jcache-sweep --trace-cache-dir` or a perfbench set-up runs it: one
 * walk that encodes and digests the records, then the atomic write
 * and its fsyncs.  Each iteration starts from a fresh directory.
 */
void
BM_EnsureReplayCacheCold(benchmark::State& state)
{
    const trace::Trace& trace = sim::TraceSet::standard().get("grr");
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("jcache_bench_cold_" + std::to_string(::getpid())))
            .string();
    for (auto _ : state) {
        state.PauseTiming();
        std::filesystem::remove_all(dir);
        state.ResumeTiming();
        benchmark::DoNotOptimize(trace::ensureReplayCache(trace, dir));
    }
    std::filesystem::remove_all(dir);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
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
BENCHMARK(BM_OnePassSweep)
    ->ArgName("grid")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OnePassSweepMapped)
    ->ArgNames({"grid", "jobs"})
    ->ArgsProduct({{0, 1, 2}, {1, 2}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ContentDigest)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EnsureReplayCacheCold)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
