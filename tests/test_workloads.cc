/**
 * @file
 * Integration tests for the six reconstructed Table 1 workloads:
 * registry, the trace set's digests and threads, determinism, scale
 * behaviour, and the trace characteristics the paper's analysis
 * leans on.
 */

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "service/json_value.hh"
#include "sim/parallel.hh"
#include "sim/sweeps.hh"
#include "telemetry/trace_writer.hh"
#include "trace/summary.hh"
#include "trace/trace.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

namespace jcache::workloads
{
namespace
{

TEST(WorkloadRegistry, SixBenchmarksInPaperOrder)
{
    const auto& names = benchmarkNames();
    ASSERT_EQ(names.size(), 6u);
    EXPECT_EQ(names[0], "ccom");
    EXPECT_EQ(names[1], "grr");
    EXPECT_EQ(names[2], "yacc");
    EXPECT_EQ(names[3], "met");
    EXPECT_EQ(names[4], "linpack");
    EXPECT_EQ(names[5], "liver");
}

TEST(WorkloadRegistry, MakeWorkloadByName)
{
    for (const std::string& name : benchmarkNames()) {
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->name(), name);
        EXPECT_FALSE(w->description().empty());
    }
}

TEST(WorkloadRegistry, UnknownNameThrows)
{
    EXPECT_THROW(makeWorkload("spice"), FatalError);
}

TEST(WorkloadRegistry, MakeAllProducesAllSix)
{
    auto all = makeAllWorkloads();
    ASSERT_EQ(all.size(), 6u);
}

class WorkloadTraces : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTraces, DeterministicForFixedSeed)
{
    WorkloadConfig config;
    config.seed = 42;
    trace::Trace a = generateTrace(*makeWorkload(GetParam(), config));
    trace::Trace b = generateTrace(*makeWorkload(GetParam(), config));
    EXPECT_EQ(a, b);
}

TEST_P(WorkloadTraces, SeedChangesTheTrace)
{
    WorkloadConfig c1, c2;
    c1.seed = 1;
    c2.seed = 2;
    trace::Trace a = generateTrace(*makeWorkload(GetParam(), c1));
    trace::Trace b = generateTrace(*makeWorkload(GetParam(), c2));
    EXPECT_NE(a, b);
}

TEST_P(WorkloadTraces, AllRecordsWellFormed)
{
    trace::Trace t = generateTrace(*makeWorkload(GetParam()));
    EXPECT_NO_THROW(trace::validate(t));
    EXPECT_EQ(t.name(), GetParam());
}

TEST_P(WorkloadTraces, SubstantialLength)
{
    trace::Trace t = generateTrace(*makeWorkload(GetParam()));
    trace::TraceSummary s = summarize(t);
    // Each benchmark contributes at least a quarter-million
    // references at scale 1 and has a sane instruction mix.
    EXPECT_GT(s.references(), 250'000u);
    EXPECT_GT(s.writes, 10'000u);
    EXPECT_GT(s.instructions, s.references());
    double rpi = s.refsPerInstruction();
    EXPECT_GT(rpi, 0.15);
    EXPECT_LT(rpi, 0.75);
}

TEST_P(WorkloadTraces, AccessesAreWordOrDoubleword)
{
    // MultiTitan had no byte stores: workloads emit 4B/8B only.
    trace::Trace t = generateTrace(*makeWorkload(GetParam()));
    for (const trace::TraceRecord& r : t) {
        ASSERT_TRUE(r.size == 4 || r.size == 8);
        ASSERT_EQ(r.addr % r.size, 0u) << "unaligned access";
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadTraces,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto& info) { return info.param; });

TEST(WorkloadRegistry, ProductionNamesExtendTheSuite)
{
    // The production-style generators live beside, not inside, the
    // Table 1 suite: the six-benchmark contracts stay untouched and
    // the full registry is their concatenation.
    const auto& production = productionNames();
    ASSERT_EQ(production.size(), 3u);
    EXPECT_EQ(production[0], "kvstore");
    EXPECT_EQ(production[1], "bfs");
    EXPECT_EQ(production[2], "marksweep");

    const auto& all = allWorkloadNames();
    ASSERT_EQ(all.size(), 9u);
    EXPECT_TRUE(std::equal(benchmarkNames().begin(),
                           benchmarkNames().end(), all.begin()));
    EXPECT_TRUE(std::equal(production.begin(), production.end(),
                           all.begin() + 6));

    for (const std::string& name : production) {
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->name(), name);
        EXPECT_FALSE(w->description().empty());
    }
    // makeAllWorkloads still builds exactly the paper's six.
    EXPECT_EQ(makeAllWorkloads().size(), 6u);
}

class ProductionTraces : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ProductionTraces, DeterministicForFixedSeed)
{
    WorkloadConfig config;
    config.seed = 7;
    trace::Trace a = generateTrace(*makeWorkload(GetParam(), config));
    trace::Trace b = generateTrace(*makeWorkload(GetParam(), config));
    EXPECT_EQ(a, b);

    WorkloadConfig other = config;
    other.seed = 8;
    EXPECT_NE(a, generateTrace(*makeWorkload(GetParam(), other)));
}

TEST_P(ProductionTraces, WellFormedAndSubstantial)
{
    trace::Trace t = generateTrace(*makeWorkload(GetParam()));
    EXPECT_NO_THROW(trace::validate(t));
    EXPECT_EQ(t.name(), GetParam());
    for (const trace::TraceRecord& r : t) {
        ASSERT_TRUE(r.size == 4 || r.size == 8);
        ASSERT_EQ(r.addr % r.size, 0u) << "unaligned access";
    }
    trace::TraceSummary s = summarize(t);
    EXPECT_GT(s.references(), 100'000u);
    EXPECT_GT(s.writes, 5'000u);
    EXPECT_GE(s.instructions, s.references());
}

INSTANTIATE_TEST_SUITE_P(AllProduction, ProductionTraces,
                         ::testing::ValuesIn(productionNames()),
                         [](const auto& info) { return info.param; });

TEST(WorkloadRegistry, ExtendedTraceSetServesAllNine)
{
    const sim::TraceSet& extended = sim::TraceSet::extended();
    ASSERT_EQ(extended.size(), 9u);
    const auto& all = allWorkloadNames();
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(extended.traces()[i].name(), all[i]) << i;
    EXPECT_EQ(extended.get("kvstore").name(), "kvstore");
    EXPECT_FALSE(extended.get("bfs").empty());
    EXPECT_THROW(extended.get("nonesuch"), FatalError);
    // The singleton never moves.
    EXPECT_EQ(&sim::TraceSet::extended(), &extended);
}

TEST(WorkloadRegistry, ExtendedTraceSetPinsEveryDigest)
{
    // Every digest ref, result identity and store key that names a
    // registry trace is built from these values.
    const std::vector<std::pair<std::string, std::string>> pinned = {
        {"ccom", "a89303e9c499eec7"},    {"grr", "317d7ef2c1fc1a14"},
        {"yacc", "46348b38e85bf705"},    {"met", "920429a03f33ce91"},
        {"linpack", "d76644bdf375ca53"}, {"liver", "c52ded1730e3d976"},
        {"kvstore", "419a11939d89362d"}, {"bfs", "810ee55f1c87afcc"},
        {"marksweep", "4b56c553e3a9d5d6"},
    };
    const sim::TraceSet& extended = sim::TraceSet::extended();
    ASSERT_EQ(extended.digests().size(), pinned.size());
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        const trace::Trace& t = extended.traces()[i];
        EXPECT_EQ(t.name(), pinned[i].first);
        EXPECT_EQ(extended.digests()[i], trace::contentDigest(t))
            << t.name();
        EXPECT_EQ(extended.digests()[i], pinned[i].second) << t.name();
    }
}

/** A two-workload TraceSet built while defaultJobs() is `jobs`. */
sim::TraceSet
twoWorkloadSet(unsigned jobs)
{
    struct RestoreDefaultJobs
    {
        ~RestoreDefaultJobs() { sim::setDefaultJobs(0); }
    } restore;
    sim::setDefaultJobs(jobs);
    return sim::TraceSet({}, {"ccom", "liver"});
}

TEST(TraceSetDigests, SameTracesAndDigestsAtAnyJobs)
{
    const sim::TraceSet inline_digests = twoWorkloadSet(1);
    const sim::TraceSet beside = twoWorkloadSet(3);
    ASSERT_EQ(inline_digests.size(), 2u);
    EXPECT_EQ(inline_digests.traces(), beside.traces());
    EXPECT_EQ(inline_digests.digests(), beside.digests());
    for (std::size_t i = 0; i < beside.size(); ++i)
        EXPECT_EQ(beside.digests()[i],
                  trace::contentDigest(beside.traces()[i]));
}

TEST(TraceSetDigests, GenerationStaysOnOneThread)
{
    telemetry::SpanTracer& tracer = telemetry::SpanTracer::instance();
    for (unsigned jobs : {1u, 3u}) {
        tracer.start();
        twoWorkloadSet(jobs);
        tracer.stop();
        std::ostringstream json;
        tracer.writeJson(json);
        std::string error;
        service::JsonValue doc =
            service::JsonValue::parse(json.str(), &error);
        ASSERT_TRUE(error.empty()) << error;

        // Thread ids and workload args of each span name, in order.
        std::map<std::string, std::vector<double>> tids;
        std::map<std::string, std::vector<std::string>> workloads;
        for (const service::JsonValue& event : doc.items()) {
            const std::string name = event.getString("name");
            EXPECT_EQ(event.getString("cat"), "sim");
            tids[name].push_back(event.getNumber("tid", -1.0));
            workloads[name].push_back(
                event.get("args").getString("workload"));
        }
        const std::vector<std::string> order = {"ccom", "liver"};
        EXPECT_EQ(workloads["trace.generate"], order) << jobs;
        // A digest span may close after the next generate span.
        std::vector<std::string> digested = workloads["trace.digest"];
        std::sort(digested.begin(), digested.end());
        EXPECT_EQ(digested, order) << jobs;

        ASSERT_EQ(tids["trace.generate"].size(), 2u);
        const double generator = tids["trace.generate"][0];
        EXPECT_EQ(tids["trace.generate"][1], generator) << jobs;
        for (double tid : tids["trace.digest"]) {
            if (jobs == 1)
                EXPECT_EQ(tid, generator) << "no thread at one job";
            else
                EXPECT_NE(tid, generator) << "digest beside generation";
        }
    }
}

TEST(WorkloadScale, ScaleGrowsWorkNotFootprint)
{
    WorkloadConfig small, big;
    small.scale = 1;
    big.scale = 2;
    trace::Trace a = generateTrace(*makeWorkload("liver", small));
    trace::Trace b = generateTrace(*makeWorkload("liver", big));
    EXPECT_GT(summarize(b).references(),
              summarize(a).references() * 3 / 2);
}

TEST(WorkloadMix, NumericCodesUseDoubles)
{
    for (const char* name : {"linpack", "liver"}) {
        trace::Trace t = generateTrace(*makeWorkload(name));
        Count doubles = 0, words = 0;
        for (const trace::TraceRecord& r : t)
            (r.size == 8 ? doubles : words) += 1;
        EXPECT_GT(doubles, words) << name;
    }
}

TEST(WorkloadMix, LoadsOutnumberStoresOverall)
{
    // Paper Table 1: loads:stores ~ 2.4:1 over the suite.
    Count reads = 0, writes = 0;
    for (const std::string& name : benchmarkNames()) {
        trace::TraceSummary s =
            summarize(generateTrace(*makeWorkload(name)));
        reads += s.reads;
        writes += s.writes;
    }
    double ratio = static_cast<double>(reads) /
                   static_cast<double>(writes);
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 4.0);
}

} // namespace
} // namespace jcache::workloads
