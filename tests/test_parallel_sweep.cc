/**
 * @file
 * Tests for the parallel sweep executor and the batch fan-out built on
 * it: determinism across thread counts, oversubscription, report
 * accounting, CSV/JSON export, and the per-request completion
 * callback under both engines.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "service/render.hh"
#include "sim/engine.hh"
#include "sim/parallel.hh"
#include "sim/sweeps.hh"
#include "stats/json.hh"
#include "telemetry/metrics.hh"
#include "trace/recorder.hh"

namespace jcache::sim
{
namespace
{

using core::CacheConfig;
using core::WriteHitPolicy;
using core::WriteMissPolicy;
using trace::RefType;

/** A small trace with hits, misses, conflicts and dirty victims. */
trace::Trace
mixedTrace(const std::string& name, Addr seed, unsigned steps = 400)
{
    trace::Trace t(name);
    Addr base = seed * 0x40;
    for (unsigned i = 0; i < steps; ++i) {
        Addr addr = (base + i * 24) % 0x3000;
        t.append({addr & ~Addr{3}, 2, 4,
                  i % 3 ? RefType::Read : RefType::Write});
        // Conflicting line in a 1-4KB cache to force victims.
        if (i % 7 == 0)
            t.append({(addr + 0x1000) & ~Addr{3}, 1, 4,
                      RefType::Write});
    }
    return t;
}

/** The policy matrix crossed with two sizes and two line sizes. */
std::vector<CacheConfig>
policyMatrixConfigs()
{
    std::vector<CacheConfig> configs;
    for (auto [hit, miss] : legalPolicyPairs()) {
        for (Count size : {1024u, 4096u}) {
            for (unsigned line : {8u, 32u}) {
                CacheConfig c;
                c.sizeBytes = size;
                c.lineBytes = line;
                c.hitPolicy = hit;
                c.missPolicy = miss;
                configs.push_back(c);
            }
        }
    }
    return configs;
}

/** Every trace crossed with every configuration, trace-major. */
std::vector<Request>
matrixGrid(const std::vector<trace::Trace>& traces,
           const std::vector<CacheConfig>& configs)
{
    std::vector<Request> grid;
    for (const trace::Trace& t : traces) {
        for (const CacheConfig& c : configs)
            grid.push_back({&t, c, true});
    }
    return grid;
}

BatchOutcome
runPerCell(const std::vector<Request>& grid, unsigned jobs)
{
    BatchOptions options;
    options.engine = Engine::PerCell;
    options.jobs = jobs;
    return runBatch(grid, options);
}

/** Canonical wire text of one result, for byte comparisons. */
std::string
resultText(const RunResult& result)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    service::writeRunResult(json, "result", result);
    json.endObject();
    return oss.str();
}

/** Field-by-field equality of everything a RunResult carries. */
void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.instructions, b.instructions);

    const core::CacheStats& s = a.cache;
    const core::CacheStats& o = b.cache;
    EXPECT_EQ(s.reads, o.reads);
    EXPECT_EQ(s.writes, o.writes);
    EXPECT_EQ(s.readHits, o.readHits);
    EXPECT_EQ(s.writeHits, o.writeHits);
    EXPECT_EQ(s.readMisses, o.readMisses);
    EXPECT_EQ(s.partialValidReadMisses, o.partialValidReadMisses);
    EXPECT_EQ(s.writeMisses, o.writeMisses);
    EXPECT_EQ(s.writeMissFetches, o.writeMissFetches);
    EXPECT_EQ(s.linesFetched, o.linesFetched);
    EXPECT_EQ(s.writesToDirtyLines, o.writesToDirtyLines);
    EXPECT_EQ(s.writeThroughs, o.writeThroughs);
    EXPECT_EQ(s.invalidations, o.invalidations);
    EXPECT_EQ(s.victims, o.victims);
    EXPECT_EQ(s.dirtyVictims, o.dirtyVictims);
    EXPECT_EQ(s.dirtyVictimDirtyBytes, o.dirtyVictimDirtyBytes);
    EXPECT_EQ(s.flushedValidLines, o.flushedValidLines);
    EXPECT_EQ(s.flushedDirtyLines, o.flushedDirtyLines);
    EXPECT_EQ(s.flushedDirtyBytes, o.flushedDirtyBytes);

    auto traffic_eq = [](const mem::TrafficClass& x,
                         const mem::TrafficClass& y) {
        EXPECT_EQ(x.transactions, y.transactions);
        EXPECT_EQ(x.bytes, y.bytes);
    };
    traffic_eq(a.fetchTraffic, b.fetchTraffic);
    traffic_eq(a.writeThroughTraffic, b.writeThroughTraffic);
    traffic_eq(a.writeBackTraffic, b.writeBackTraffic);
    traffic_eq(a.flushTraffic, b.flushTraffic);
}

TEST(PerCellBatch, MultiThreadMatchesSingleThreadExactly)
{
    std::vector<trace::Trace> traces;
    traces.push_back(mixedTrace("alpha", 1));
    traces.push_back(mixedTrace("beta", 5));
    traces.push_back(mixedTrace("gamma", 11));
    std::vector<Request> grid =
        matrixGrid(traces, policyMatrixConfigs());

    BatchOutcome serial = runPerCell(grid, 1);
    BatchOutcome wide = runPerCell(grid, 4);

    ASSERT_EQ(serial.results.size(), grid.size());
    ASSERT_EQ(wide.results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectIdentical(serial.results[i], wide.results[i]);
}

TEST(PerCellBatch, OversubscribedPoolStillCoversEveryJob)
{
    std::vector<trace::Trace> traces;
    traces.push_back(mixedTrace("tiny", 3));
    std::vector<CacheConfig> configs(3);  // 3-job grid
    std::vector<Request> grid = matrixGrid(traces, configs);

    // Far more threads than jobs: every job must still run exactly
    // once and the report must reflect the clamped pool.
    BatchOutcome outcome = runPerCell(grid, 16);
    ASSERT_EQ(outcome.results.size(), 3u);
    EXPECT_EQ(outcome.report.threads, 3u);
    for (const RunResult& r : outcome.results)
        EXPECT_GT(r.instructions, 0u);

    BatchOutcome reference = runPerCell(grid, 1);
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectIdentical(reference.results[i], outcome.results[i]);
}

TEST(PerCellBatch, EmptyGrid)
{
    BatchOutcome outcome = runPerCell({}, 4);
    EXPECT_TRUE(outcome.results.empty());
    EXPECT_EQ(outcome.report.jobs(), 0u);
    EXPECT_EQ(outcome.report.totalInstructions(), 0u);
    EXPECT_DOUBLE_EQ(outcome.report.utilization(), 0.0);
}

TEST(ParallelExecutor, RunTasksVisitsEachIndexOnce)
{
    std::vector<std::atomic<int>> visits(100);
    ParallelExecutor(8).runTasks(100, [&](std::size_t i) {
        visits[i].fetch_add(1);
        return Count{i + 1};
    });
    for (const auto& v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(PerCellBatch, ReportAccountsInstructionsAndUtilization)
{
    std::vector<trace::Trace> traces;
    traces.push_back(mixedTrace("acct", 7));
    std::vector<CacheConfig> configs(4);
    std::vector<Request> grid = matrixGrid(traces, configs);

    BatchOutcome outcome = runPerCell(grid, 2);
    const SweepReport& report = outcome.report;
    ASSERT_EQ(report.jobs(), grid.size());

    Count expected = 0;
    for (const RunResult& r : outcome.results)
        expected += r.instructions;
    EXPECT_EQ(report.totalInstructions(), expected);
    EXPECT_GT(report.totalInstructions(), 0u);
    EXPECT_GE(report.wallSeconds, 0.0);
    EXPECT_GE(report.busySeconds(), 0.0);
    EXPECT_GE(report.utilization(), 0.0);
    EXPECT_LE(report.utilization(), 1.0);
    EXPECT_FALSE(report.summary().empty());
}

TEST(ParallelExecutor, ThrowingTaskFailsOnlyItsCell)
{
    // An exception escaping a pool thread would terminate the whole
    // process; the executor must confine it to the throwing cell.
    std::vector<std::atomic<int>> visits(8);
    SweepReport report =
        ParallelExecutor(4).runTasks(8, [&](std::size_t i) {
            visits[i].fetch_add(1);
            if (i == 2)
                throw std::runtime_error("boom at 2");
            if (i == 5)
                throw 42;  // non-std::exception path
            return Count{100};
        });

    // Every cell ran despite the two failures.
    for (const auto& v : visits)
        EXPECT_EQ(v.load(), 1);

    EXPECT_FALSE(report.allSucceeded());
    ASSERT_EQ(report.failures.size(), 2u);
    EXPECT_EQ(report.failures[0].index, 2u);
    EXPECT_EQ(report.failures[0].message, "boom at 2");
    EXPECT_EQ(report.failures[1].index, 5u);
    EXPECT_EQ(report.failures[1].message, "unknown error");

    // Failed cells contribute no instructions; healthy cells do.
    EXPECT_EQ(report.totalInstructions(), 600u);
    EXPECT_NE(report.summary().find("2 FAILED"), std::string::npos);

    std::ostringstream oss;
    report.writeJson(oss);
    EXPECT_NE(oss.str().find("\"failures\""), std::string::npos);
    EXPECT_NE(oss.str().find("boom at 2"), std::string::npos);
}

TEST(ParallelExecutor, AllSucceededOnCleanGrid)
{
    SweepReport report = ParallelExecutor(2).runTasks(
        4, [](std::size_t) { return Count{1}; });
    EXPECT_TRUE(report.allSucceeded());
    EXPECT_EQ(report.summary().find("FAILED"), std::string::npos);
}

TEST(BatchCompletion, SeesEveryRequestOnceWithItsResult)
{
    std::vector<trace::Trace> traces;
    traces.push_back(mixedTrace("alpha", 1));
    traces.push_back(mixedTrace("beta", 5));
    std::vector<Request> grid =
        matrixGrid(traces, policyMatrixConfigs());
    // Duplicate cells: the one-pass engine serves all three requests
    // from one shared lane, and each must still be reported.
    grid.push_back(grid[3]);
    grid.push_back(grid[3]);

    for (Engine engine : {Engine::PerCell, Engine::OnePass}) {
        for (unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(name(engine) + " jobs " + std::to_string(jobs));
            // Calls are serialized by runBatch, so plain counters
            // suffice (TSan checks that promise).
            std::vector<unsigned> calls(grid.size(), 0);
            std::vector<std::string> seen(grid.size());
            BatchOptions options;
            options.engine = engine;
            options.jobs = jobs;
            options.onComplete = [&](std::size_t i, const Result& r) {
                ASSERT_LT(i, grid.size());
                ++calls[i];
                seen[i] = resultText(r);
            };
            BatchOutcome outcome = runBatch(grid, options);
            ASSERT_TRUE(outcome.ok());
            for (std::size_t i = 0; i < grid.size(); ++i) {
                EXPECT_EQ(calls[i], 1u) << "request " << i;
                EXPECT_EQ(seen[i], resultText(outcome.results[i]))
                    << "request " << i;
            }
        }
    }
}

TEST(BatchCompletion, FailedRequestsNeverReachTheCallback)
{
    // Interleave two traces; every request against `broken` carries
    // an invalid configuration (size not a power of two), so its
    // cells fail.  `healthy` gets one invalid cell too: under
    // one-pass it would share a pass with valid lanes, and it must
    // fail alone, with the validation message percell reports.
    trace::Trace healthy = mixedTrace("healthy", 2);
    trace::Trace broken = mixedTrace("broken", 9);
    std::vector<Request> grid;
    std::vector<std::size_t> healthy_indices;
    std::vector<std::size_t> failing_indices;
    const std::vector<CacheConfig> configs = policyMatrixConfigs();
    for (std::size_t k = 0; k < configs.size(); ++k) {
        CacheConfig config = configs[k];
        if (k == 5) {
            CacheConfig invalid = config;
            invalid.sizeBytes = 1025;
            failing_indices.push_back(grid.size());
            grid.push_back({&healthy, invalid, true});
        }
        healthy_indices.push_back(grid.size());
        grid.push_back({&healthy, config, true});
        config.sizeBytes += 1;
        failing_indices.push_back(grid.size());
        grid.push_back({&broken, config, true});
    }

    std::vector<std::string> percell_messages;
    for (Engine engine : {Engine::PerCell, Engine::OnePass}) {
        for (unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(name(engine) + " jobs " + std::to_string(jobs));
            std::vector<unsigned> calls(grid.size(), 0);
            BatchOptions options;
            options.engine = engine;
            options.jobs = jobs;
            options.onComplete = [&](std::size_t i, const Result&) {
                ASSERT_LT(i, grid.size());
                ++calls[i];
            };
            BatchOutcome outcome = runBatch(grid, options);

            for (std::size_t i : healthy_indices)
                EXPECT_EQ(calls[i], 1u) << "healthy request " << i;
            for (std::size_t i : failing_indices)
                EXPECT_EQ(calls[i], 0u) << "failing request " << i;
            ASSERT_EQ(outcome.report.failures.size(),
                      failing_indices.size());
            std::vector<std::string> messages;
            for (std::size_t k = 0; k < failing_indices.size(); ++k) {
                EXPECT_EQ(outcome.report.failures[k].index,
                          failing_indices[k]);
                messages.push_back(outcome.report.failures[k].message);
            }
            if (percell_messages.empty())
                percell_messages = messages;
            EXPECT_EQ(messages, percell_messages);
        }
    }
}

/**
 * One trace's cells for the pass-plan tests: four line sizes, both
 * kernels (direct-mapped and 2-way) and both hit policies, listed so
 * that no two neighbours share a line size, plus duplicates of two
 * cells.  16 distinct lanes from 18 requests.
 */
std::vector<CacheConfig>
planConfigs()
{
    std::vector<CacheConfig> configs;
    for (unsigned ways : {2u, 1u})
        for (auto [hit, miss] :
             {std::pair{WriteHitPolicy::WriteThrough,
                        WriteMissPolicy::WriteValidate},
              std::pair{WriteHitPolicy::WriteBack,
                        WriteMissPolicy::FetchOnWrite}})
            for (unsigned line : {64u, 8u, 32u, 16u}) {
                CacheConfig c;
                c.sizeBytes = 2048;
                c.lineBytes = line;
                c.assoc = ways;
                c.hitPolicy = hit;
                c.missPolicy = miss;
                configs.push_back(c);
            }
    configs.push_back(configs[3]);
    configs.push_back(configs[12]);
    return configs;
}

/** Run `grid` one-pass; expect percell's wire JSON in every slot. */
void
expectOnePassMatchesPerCell(const std::vector<Request>& grid,
                            unsigned jobs,
                            std::uint64_t expected_records)
{
    auto& reg = telemetry::Registry::instance();
    const telemetry::Counter& records =
        reg.counter("jcache_engine_records_total",
                    "Trace records decoded by the one-pass engine");
    BatchOutcome reference = runPerCell(grid, 1);
    ASSERT_TRUE(reference.ok());

    BatchOptions options;
    options.engine = Engine::OnePass;
    options.jobs = jobs;
    const bool was_armed = telemetry::armed();
    telemetry::setArmed(true);
    const std::uint64_t before = records.value();
    BatchOutcome outcome = runBatch(grid, options);
    const std::uint64_t walked = records.value() - before;
    telemetry::setArmed(was_armed);

    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(resultText(outcome.results[i]),
                  resultText(reference.results[i]))
            << "request " << i;
    EXPECT_EQ(walked, expected_records);
}

TEST(OnePassPlan, OneTraceSplitsIntoOnePassPerWorker)
{
    // A one-trace batch becomes min(jobs, lanes) passes of
    // near-equal lane count; each pass walks every record once.
    trace::Trace t = mixedTrace("plan", 4);
    std::vector<Request> grid;
    for (const CacheConfig& c : planConfigs())
        grid.push_back({&t, c, true});
    const std::uint64_t n = t.size();

    for (auto [jobs, passes] :
         {std::pair{1u, 1u}, std::pair{2u, 2u}, std::pair{3u, 3u},
          std::pair{40u, 16u}}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        expectOnePassMatchesPerCell(grid, jobs, passes * n);
    }
}

TEST(OnePassPlan, WriteThroughTwinsRideWithTheirWriteBackLane)
{
    // planConfigs() plus a wt+fow twin of each write-back cell, listed
    // before it: 24 distinct lanes, of which 16 replay.  The plan
    // splits by replayed lanes and keeps each twin in its write-back
    // lane's pass, so jobs 40 plans 16 passes, not 24.
    trace::Trace t = mixedTrace("twins", 4);
    std::vector<Request> grid;
    for (const CacheConfig& c : planConfigs()) {
        if (c.hitPolicy == WriteHitPolicy::WriteBack) {
            CacheConfig twin = c;
            twin.hitPolicy = WriteHitPolicy::WriteThrough;
            grid.push_back({&t, twin, true});
        }
        grid.push_back({&t, c, true});
    }
    const std::uint64_t n = t.size();

    for (auto [jobs, passes] :
         {std::pair{1u, 1u}, std::pair{2u, 2u}, std::pair{3u, 3u},
          std::pair{40u, 16u}}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        expectOnePassMatchesPerCell(grid, jobs, passes * n);
    }
}

TEST(OnePassPlan, TwoTracesShareTheWorkers)
{
    // 16 lanes on `wide`, 6 on a shorter `narrow`.  At jobs 4 the
    // target is four passes of at most ⌈22 / 4⌉ = 6 lanes: `wide`
    // splits three ways and `narrow` stays whole.  At jobs 1 neither
    // trace splits, though `wide` exceeds ⌈22 / 2⌉ = 11 lanes.
    trace::Trace wide = mixedTrace("wide", 4);
    trace::Trace narrow = mixedTrace("narrow", 6, 150);
    const std::vector<CacheConfig> configs = planConfigs();
    std::vector<Request> grid;
    for (std::size_t k = 0; k < configs.size(); ++k) {
        grid.push_back({&wide, configs[k], true});
        if (k % 3 == 0)
            grid.push_back({&narrow, configs[k], false});
    }
    const std::uint64_t w = wide.size();
    const std::uint64_t m = narrow.size();
    ASSERT_NE(w, m);

    {
        SCOPED_TRACE("jobs 4");
        expectOnePassMatchesPerCell(grid, 4, 3 * w + m);
    }
    {
        SCOPED_TRACE("jobs 1");
        expectOnePassMatchesPerCell(grid, 1, w + m);
    }
}

TEST(SweepReport, CsvHasHeaderAndOneRowPerJob)
{
    SweepReport report;
    report.threads = 2;
    report.wallSeconds = 0.5;
    report.timings = {{0.25, 1000}, {0.25, 3000}};

    std::ostringstream oss;
    report.writeCsv(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("job,wall_seconds,instructions,m_ins_per_sec"),
              std::string::npos);
    std::size_t rows = 0;
    for (char ch : out)
        rows += ch == '\n';
    EXPECT_EQ(rows, 3u);  // header + 2 jobs
}

TEST(SweepReport, JsonIsBalancedAndCarriesTotals)
{
    SweepReport report;
    report.threads = 4;
    report.wallSeconds = 2.0;
    report.timings = {{1.0, 4000000}, {1.0, 4000000}};

    std::ostringstream oss;
    report.writeJson(oss);
    std::string out = oss.str();

    long depth = 0;
    for (char ch : out) {
        if (ch == '{' || ch == '[')
            ++depth;
        if (ch == '}' || ch == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_NE(out.find("\"threads\": 4"), std::string::npos);
    EXPECT_NE(out.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(out.find("\"instructions\": 8000000"),
              std::string::npos);
    EXPECT_NE(out.find("\"m_ins_per_sec\": 4"), std::string::npos);
    EXPECT_NE(out.find("\"utilization\": 0.25"), std::string::npos);
    EXPECT_NE(out.find("\"job_timings\""), std::string::npos);
}

TEST(TraceSetStandard, ConcurrentFirstUseYieldsOneInstance)
{
    // The once_flag guard must make racing first calls safe and give
    // every caller the same instance.
    std::vector<const TraceSet*> seen(4, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < seen.size(); ++i)
        threads.emplace_back(
            [&seen, i] { seen[i] = &TraceSet::standard(); });
    for (std::thread& t : threads)
        t.join();
    for (const TraceSet* p : seen) {
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p, seen.front());
    }
    EXPECT_EQ(seen.front()->size(), 6u);
}

TEST(DefaultJobs, OverrideAndRestore)
{
    setDefaultJobs(3);
    EXPECT_EQ(defaultJobs(), 3u);
    EXPECT_EQ(ParallelExecutor().threads(), 3u);
    setDefaultJobs(0);
    EXPECT_GE(defaultJobs(), 1u);
}

} // namespace
} // namespace jcache::sim
