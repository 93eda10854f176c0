/**
 * @file
 * Golden differential between the two simulation engines: every cell
 * of the Figure 13-16 grid replayed by the one-pass engine must be
 * byte-identical to the per-cell reference — every counter, every
 * traffic class, and the rendered table/JSON output — plus write-back
 * with flush, write-through cells derived from their write-back
 * twins, the set kernel's associativity, replacement and
 * valid-granularity grid, and the empty trace.
 */

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/json_value.hh"
#include "service/render.hh"
#include "store/store.hh"
#include "sim/engine.hh"
#include "sim/multiconfig.hh"
#include "sim/sweeps.hh"
#include "telemetry/metrics.hh"
#include "trace/import.hh"
#include "trace/replay_cache.hh"
#include "util/simd.hh"
#include "workloads/workload.hh"

namespace jcache::sim
{
namespace
{

using core::CacheConfig;
using core::ReplacementPolicy;
using core::WriteHitPolicy;
using core::WriteMissPolicy;

/** Small but realistic traces; generated once per test binary. */
const std::vector<trace::Trace>&
traces()
{
    static const std::vector<trace::Trace> ts = [] {
        workloads::WorkloadConfig config;
        config.scale = 1;
        std::vector<trace::Trace> out;
        out.push_back(workloads::generateTrace(
            *workloads::makeWorkload("ccom", config)));
        out.push_back(workloads::generateTrace(
            *workloads::makeWorkload("linpack", config)));
        return out;
    }();
    return ts;
}

CacheConfig
config(Count size, unsigned line, WriteHitPolicy hit,
       WriteMissPolicy miss)
{
    CacheConfig c;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.assoc = 1;
    c.hitPolicy = hit;
    c.missPolicy = miss;
    return c;
}

/**
 * The Figure 13-16 grid for one trace: every write-miss policy over
 * the standard cache-size axis (16B lines) and the standard line-size
 * axis (8KB caches), write-through throughout so all four policies
 * are legal.
 */
std::vector<Request>
fig13to16Grid(const trace::Trace& t)
{
    const std::vector<WriteMissPolicy> policies = {
        WriteMissPolicy::FetchOnWrite,
        WriteMissPolicy::WriteValidate,
        WriteMissPolicy::WriteAround,
        WriteMissPolicy::WriteInvalidate,
    };
    std::vector<Request> requests;
    for (Count size : standardCacheSizes())
        for (WriteMissPolicy miss : policies)
            requests.push_back(
                {&t, config(size, 16, WriteHitPolicy::WriteThrough,
                            miss),
                 false});
    for (unsigned line : standardLineSizes())
        for (WriteMissPolicy miss : policies)
            requests.push_back(
                {&t, config(8 * 1024, line,
                            WriteHitPolicy::WriteThrough, miss),
                 false});
    return requests;
}

void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.instructions, b.instructions);

    EXPECT_EQ(a.cache.reads, b.cache.reads);
    EXPECT_EQ(a.cache.writes, b.cache.writes);
    EXPECT_EQ(a.cache.readHits, b.cache.readHits);
    EXPECT_EQ(a.cache.writeHits, b.cache.writeHits);
    EXPECT_EQ(a.cache.readMisses, b.cache.readMisses);
    EXPECT_EQ(a.cache.partialValidReadMisses,
              b.cache.partialValidReadMisses);
    EXPECT_EQ(a.cache.writeMisses, b.cache.writeMisses);
    EXPECT_EQ(a.cache.writeMissFetches, b.cache.writeMissFetches);
    EXPECT_EQ(a.cache.linesFetched, b.cache.linesFetched);
    EXPECT_EQ(a.cache.writesToDirtyLines, b.cache.writesToDirtyLines);
    EXPECT_EQ(a.cache.writeThroughs, b.cache.writeThroughs);
    EXPECT_EQ(a.cache.invalidations, b.cache.invalidations);
    EXPECT_EQ(a.cache.victims, b.cache.victims);
    EXPECT_EQ(a.cache.dirtyVictims, b.cache.dirtyVictims);
    EXPECT_EQ(a.cache.dirtyVictimDirtyBytes,
              b.cache.dirtyVictimDirtyBytes);
    EXPECT_EQ(a.cache.flushedValidLines, b.cache.flushedValidLines);
    EXPECT_EQ(a.cache.flushedDirtyLines, b.cache.flushedDirtyLines);
    EXPECT_EQ(a.cache.flushedDirtyBytes, b.cache.flushedDirtyBytes);
    EXPECT_EQ(a.cache.victimCacheHits, b.cache.victimCacheHits);
    EXPECT_EQ(a.cache.lineAllocs, b.cache.lineAllocs);
    EXPECT_EQ(a.cache.validateFallbacks, b.cache.validateFallbacks);

    EXPECT_EQ(a.fetchTraffic.transactions, b.fetchTraffic.transactions);
    EXPECT_EQ(a.fetchTraffic.bytes, b.fetchTraffic.bytes);
    EXPECT_EQ(a.writeThroughTraffic.transactions,
              b.writeThroughTraffic.transactions);
    EXPECT_EQ(a.writeThroughTraffic.bytes, b.writeThroughTraffic.bytes);
    EXPECT_EQ(a.writeBackTraffic.transactions,
              b.writeBackTraffic.transactions);
    EXPECT_EQ(a.writeBackTraffic.bytes, b.writeBackTraffic.bytes);
    EXPECT_EQ(a.flushTraffic.transactions, b.flushTraffic.transactions);
    EXPECT_EQ(a.flushTraffic.bytes, b.flushTraffic.bytes);
}

BatchOutcome
runWith(const std::vector<Request>& requests, Engine engine)
{
    BatchOptions options;
    options.engine = engine;
    BatchOutcome outcome = runBatch(requests, options);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.results.size(), requests.size());
    return outcome;
}

/** One cell's wire JSON (raw counts), for byte-level comparison. */
std::string
resultJson(const RunResult& result)
{
    std::ostringstream os;
    stats::JsonWriter json(os);
    json.beginObject();
    service::writeRunResult(json, "result", result);
    json.endObject();
    return os.str();
}

TEST(EngineDifferential, Fig13To16GridIsByteIdentical)
{
    for (const trace::Trace& t : traces()) {
        std::vector<Request> requests = fig13to16Grid(t);
        BatchOutcome percell = runWith(requests, Engine::PerCell);
        BatchOutcome onepass = runWith(requests, Engine::OnePass);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            SCOPED_TRACE(t.name() + " cell " + std::to_string(i));
            expectIdentical(percell.results[i], onepass.results[i]);
            EXPECT_EQ(resultJson(percell.results[i]),
                      resultJson(onepass.results[i]));
        }
    }
}

TEST(EngineDifferential, WriteBackWithFlushIsIdentical)
{
    const trace::Trace& t = traces().front();
    std::vector<Request> requests;
    for (Count size : standardCacheSizes())
        requests.push_back(
            {&t, config(size, 16, WriteHitPolicy::WriteBack,
                        WriteMissPolicy::FetchOnWrite),
             true});
    BatchOutcome percell = runWith(requests, Engine::PerCell);
    BatchOutcome onepass = runWith(requests, Engine::OnePass);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdentical(percell.results[i], onepass.results[i]);
        EXPECT_GT(onepass.results[i].cache.flushedValidLines, 0u);
    }
}

/**
 * Write-through cells beside their write-back twins, 75 cells: the six
 * legal (hit, miss) pairs over the size axis (16B lines) and the line
 * axis (8KB), flush-stop, so each of the 12 geometries derives its
 * wt+fow and wt+wv cells; a wt+fow cell whose write-back twin has the
 * other flush setting, so it must replay itself; and a 2-way LRU
 * twin pair.  25 cells are derived.
 */
std::vector<Request>
twinGrid(const trace::Trace& t)
{
    std::vector<Request> requests;
    for (auto [hit, miss] : legalPolicyPairs()) {
        for (Count size : standardCacheSizes())
            requests.push_back({&t, config(size, 16, hit, miss), true});
        for (unsigned line : standardLineSizes())
            if (line != 16)
                requests.push_back(
                    {&t, config(8 * 1024, line, hit, miss), true});
    }
    requests.push_back({&t,
                        config(4 * 1024, 16, WriteHitPolicy::WriteThrough,
                               WriteMissPolicy::FetchOnWrite),
                        false});
    for (WriteHitPolicy hit :
         {WriteHitPolicy::WriteBack, WriteHitPolicy::WriteThrough}) {
        CacheConfig c = config(2 * 1024, 16, hit,
                               WriteMissPolicy::FetchOnWrite);
        c.assoc = 2;
        requests.push_back({&t, c, true});
    }
    return requests;
}

TEST(EngineDifferential, WriteThroughTwinsAreByteIdentical)
{
    const telemetry::Counter& derived =
        telemetry::Registry::instance().counter(
            "jcache_engine_lanes_total",
            "Lanes of one-pass engine passes, by the kernel that "
            "replayed them, or derived",
            {{"kind", "derived"}});
    const bool was_armed = telemetry::armed();
    telemetry::setArmed(true);
    for (const trace::Trace& t : traces()) {
        std::vector<Request> requests = twinGrid(t);
        BatchOutcome percell = runWith(requests, Engine::PerCell);
        for (bool scalar : {false, true})
            for (unsigned jobs : {1u, 2u, 3u}) {
                SCOPED_TRACE(t.name() + " jobs " + std::to_string(jobs) +
                             (scalar ? " scalar" : ""));
                BatchOptions options;
                options.engine = Engine::OnePass;
                options.jobs = jobs;
                const std::uint64_t before = derived.value();
                simd::forceScalar(scalar);
                BatchOutcome onepass = runBatch(requests, options);
                simd::forceScalar(false);
                ASSERT_TRUE(onepass.ok());
                // Every pass keeps a twin beside its write-back lane.
                EXPECT_EQ(derived.value() - before, 25u);
                for (std::size_t i = 0; i < requests.size(); ++i) {
                    SCOPED_TRACE("cell " + std::to_string(i));
                    expectIdentical(percell.results[i],
                                    onepass.results[i]);
                    EXPECT_EQ(resultJson(percell.results[i]),
                              resultJson(onepass.results[i]));
                }
            }
    }
    telemetry::setArmed(was_armed);
}

/**
 * The set kernel's grid for one trace, 162 cells: every second cell
 * of the product of the six legal (hit, miss) pairs, lru/fifo/random
 * replacement, direct-mapped, 2/4/8/16-way and fully associative 1 KB
 * caches, and three line shapes (4 B lines, 16 B lines, 16 B lines
 * with 8-byte valid granularity), with flush-stop on every other kept
 * cell.
 */
std::vector<Request>
setKernelGrid(const trace::Trace& t)
{
    struct Shape
    {
        unsigned line, granularity;
    };
    const Shape shapes[] = {{4, 1}, {16, 1}, {16, 8}};
    const ReplacementPolicy replacements[] = {ReplacementPolicy::Lru,
                                              ReplacementPolicy::Fifo,
                                              ReplacementPolicy::Random};
    constexpr Count kSize = 1024;
    std::vector<Request> requests;
    unsigned n = 0;
    for (auto [hit, miss] : legalPolicyPairs())
        for (ReplacementPolicy replacement : replacements)
            for (unsigned ways : {1u, 2u, 4u, 8u, 16u, 0u})
                for (const Shape& shape : shapes) {
                    if (n++ % 2 != 0)
                        continue;
                    CacheConfig c = config(kSize, shape.line, hit, miss);
                    c.assoc = ways != 0 ? ways : kSize / shape.line;
                    c.replacement = replacement;
                    c.validGranularity = shape.granularity;
                    requests.push_back({&t, c, requests.size() % 2 == 1});
                }
    return requests;
}

TEST(EngineDifferential, SetKernelGridIsByteIdentical)
{
    for (const trace::Trace& t : traces()) {
        std::vector<Request> requests = setKernelGrid(t);
        BatchOutcome percell = runWith(requests, Engine::PerCell);

        // The whole grid, then its write-through cells alone: in the
        // whole grid each wt+fow and wt+wv cell is derived from its
        // write-back twin, so only the second batch replays them on
        // the set kernel.
        std::vector<std::size_t> all, write_through;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            all.push_back(i);
            if (requests[i].config.hitPolicy ==
                WriteHitPolicy::WriteThrough)
                write_through.push_back(i);
        }
        for (const std::vector<std::size_t>* cells :
             {&all, &write_through}) {
            std::vector<Request> batch;
            for (std::size_t i : *cells)
                batch.push_back(requests[i]);
            for (bool scalar : {false, true}) {
                simd::forceScalar(scalar);
                BatchOutcome onepass = runWith(batch, Engine::OnePass);
                simd::forceScalar(false);
                for (std::size_t k = 0; k < cells->size(); ++k) {
                    const std::size_t i = (*cells)[k];
                    SCOPED_TRACE(t.name() + " cell " + std::to_string(i) +
                                 " of " + std::to_string(batch.size()) +
                                 (scalar ? " scalar" : ""));
                    expectIdentical(percell.results[i],
                                    onepass.results[k]);
                    EXPECT_EQ(resultJson(percell.results[i]),
                              resultJson(onepass.results[k]));
                }
            }
        }

        // Each rule the set kernel mirrors must fire somewhere, or
        // the grid proves nothing about it.
        bool fallback_direct = false, fallback_set = false;
        bool invalidated = false, random_victims = false;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const CacheConfig& c = requests[i].config;
            const core::CacheStats& s = percell.results[i].cache;
            if (s.validateFallbacks > 0)
                (c.assoc == 1 ? fallback_direct : fallback_set) = true;
            if (c.assoc == 1 && c.validGranularity == 8 &&
                c.missPolicy == WriteMissPolicy::WriteInvalidate &&
                s.invalidations > 0)
                invalidated = true;
            if (c.assoc > 1 &&
                c.replacement == ReplacementPolicy::Random &&
                s.victims > 0)
                random_victims = true;
        }
        SCOPED_TRACE(t.name());
        EXPECT_TRUE(fallback_direct);
        EXPECT_TRUE(fallback_set);
        EXPECT_TRUE(invalidated);
        EXPECT_TRUE(random_victims);
    }
}

TEST(EngineDifferential, EmptyTraceIsIdentical)
{
    trace::Trace empty("empty");
    Request request{&empty,
                    config(8 * 1024, 16, WriteHitPolicy::WriteBack,
                           WriteMissPolicy::FetchOnWrite),
                    true};
    RunResult percell = runOne(request, Engine::PerCell);
    RunResult onepass = runOne(request, Engine::OnePass);
    expectIdentical(percell, onepass);
    EXPECT_EQ(onepass.instructions, 0u);
    EXPECT_EQ(onepass.cache.accesses(), 0u);
}

TEST(EngineDifferential, ImportedTracesAreByteIdentical)
{
    // A trace round-tripped through either file format of
    // docs/TRACE_FORMAT.md (text, JCRC) replays to the same counters
    // as the original, on both engines, down to the wire JSON.
    const trace::Trace& original = traces().front();
    std::stringstream text;
    trace::exportTraceText(original, text);
    trace::Trace from_text =
        trace::importTraceText(text, original.name());
    const std::string jcrc =
        (std::filesystem::temp_directory_path() /
         ("jcache_differential_" + std::to_string(::getpid()) + ".jct"))
            .string();
    trace::writeReplayCache(original, jcrc);
    trace::Trace from_jcrc = trace::loadAnyTrace(jcrc);
    std::filesystem::remove(jcrc);
    ASSERT_EQ(from_text, original);
    ASSERT_EQ(from_jcrc, original);

    CacheConfig base = config(8 * 1024, 16, WriteHitPolicy::WriteBack,
                              WriteMissPolicy::FetchOnWrite);
    RunResult reference =
        runOne({&original, base, true}, Engine::PerCell);
    for (const trace::Trace* t : {&from_text, &from_jcrc}) {
        Request request{t, base, true};
        RunResult percell = runOne(request, Engine::PerCell);
        RunResult onepass = runOne(request, Engine::OnePass);
        expectIdentical(percell, onepass);
        expectIdentical(percell, reference);
        EXPECT_EQ(resultJson(onepass), resultJson(reference));
    }
}

TEST(EngineDifferential, RunOneMatchesBatch)
{
    const trace::Trace& t = traces().front();
    Request request{&t,
                    config(16 * 1024, 32, WriteHitPolicy::WriteBack,
                           WriteMissPolicy::FetchOnWrite),
                    false};
    RunResult one = runOne(request, Engine::OnePass);
    BatchOutcome batch = runWith({request}, Engine::OnePass);
    expectIdentical(one, batch.results.front());
}

TEST(EngineDifferential, RenderedTablesAreByteIdentical)
{
    const trace::Trace& t = traces().front();
    CacheConfig base = config(8 * 1024, 16, WriteHitPolicy::WriteBack,
                              WriteMissPolicy::FetchOnWrite);

    // The jcache-sweep table for the size axis, both engines.
    AxisPoints points = buildAxisPoints("size", base);
    std::vector<Request> requests;
    for (const CacheConfig& c : points.configs)
        requests.push_back({&t, c, false});
    BatchOutcome percell = runWith(requests, Engine::PerCell);
    BatchOutcome onepass = runWith(requests, Engine::OnePass);
    for (const char* metric : {"miss", "traffic", "dirty"}) {
        std::ostringstream a;
        std::ostringstream b;
        service::renderSweepTable(a, "size", metric, t.name(), base,
                                  points.labels, percell.results);
        service::renderSweepTable(b, "size", metric, t.name(), base,
                                  points.labels, onepass.results);
        EXPECT_EQ(a.str(), b.str()) << metric;
    }

    // The jcache-sim statistics block for one cell, both engines.
    Request cell{&t, base, true};
    std::ostringstream a;
    std::ostringstream b;
    service::renderRunTable(a, runOne(cell, Engine::PerCell),
                            t.name(), true);
    service::renderRunTable(b, runOne(cell, Engine::OnePass),
                            t.name(), true);
    EXPECT_EQ(a.str(), b.str());
}

TEST(EngineDifferential, StoreRoundTripIsByteIdentical)
{
    // The persistence property behind incremental sweeps: a result
    // that went result -> wire JSON -> disk blob -> wire JSON ->
    // result must re-serialize and re-render byte-identically to the
    // fresh simulation, so a table assembled from store hits cannot
    // be told apart from one simulated from scratch.
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() /
         ("jcache_store_differential_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    store::StoreConfig store_config;
    store_config.dir = dir;
    store::ResultStore store(store_config);

    const trace::Trace& t = traces().front();
    std::vector<Request> requests = fig13to16Grid(t);
    requests.resize(8); // one policy row is plenty for a round trip
    BatchOutcome fresh = runWith(requests, Engine::OnePass);

    std::vector<RunResult> replayed;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::string key = "000000000000000" + std::to_string(i);
        store.put(key, resultJson(fresh.results[i]));
        auto blob = store.get(key);
        ASSERT_TRUE(blob.has_value());
        EXPECT_EQ(*blob, resultJson(fresh.results[i]));

        std::string error;
        service::JsonValue v = service::JsonValue::parse(*blob,
                                                         &error);
        ASSERT_EQ(error, "");
        RunResult parsed = service::parseRunResult(v.get("result"));
        expectIdentical(fresh.results[i], parsed);
        EXPECT_EQ(resultJson(parsed), resultJson(fresh.results[i]));
        replayed.push_back(parsed);
    }

    // The rendered run table — derived metrics included — is
    // identical whether the counts came from memory or from disk.
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        std::ostringstream a;
        std::ostringstream b;
        service::renderRunTable(a, fresh.results[i], t.name(), false);
        service::renderRunTable(b, replayed[i], t.name(), false);
        EXPECT_EQ(a.str(), b.str());
    }
    fs::remove_all(dir);
}

TEST(EngineDifferential, ForcedScalarIsByteIdentical)
{
    // The AVX2 replay tiles must be invisible in the counters: the
    // same grid replayed with the vector path disabled renders the
    // same wire JSON for every cell.  (On machines without AVX2 both
    // passes take the scalar path and the test is a tautology — the
    // CI x86-64 runners are the real audience.)
    const trace::Trace& t = traces().front();
    std::vector<Request> requests = fig13to16Grid(t);
    BatchOutcome vectored = runWith(requests, Engine::OnePass);
    simd::forceScalar(true);
    BatchOutcome scalar = runWith(requests, Engine::OnePass);
    simd::forceScalar(false);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdentical(vectored.results[i], scalar.results[i]);
        EXPECT_EQ(resultJson(vectored.results[i]),
                  resultJson(scalar.results[i]));
    }
}

TEST(EngineDifferential, MappedReplaySourceIsByteIdentical)
{
    // Replaying from the mmap'd JCRC cache must equal replaying the
    // in-memory trace, across both engines' comparison baseline.
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() /
         ("jcache_replay_differential_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);

    const trace::Trace& t = traces().front();
    trace::MappedReplayCache mapped(trace::ensureReplayCache(t, dir));
    EXPECT_EQ(mapped.digest(), trace::contentDigest(t));

    std::vector<Request> memory = fig13to16Grid(t);
    std::vector<Request> via_cache = memory;
    for (Request& r : via_cache)
        r.source = &mapped;
    BatchOutcome percell = runWith(memory, Engine::PerCell);
    BatchOutcome from_memory = runWith(memory, Engine::OnePass);
    BatchOutcome from_cache = runWith(via_cache, Engine::OnePass);
    for (std::size_t i = 0; i < memory.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdentical(percell.results[i], from_cache.results[i]);
        EXPECT_EQ(resultJson(from_memory.results[i]),
                  resultJson(from_cache.results[i]));
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace jcache::sim
