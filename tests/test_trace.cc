/**
 * @file
 * Unit tests for the trace substrate: records, the Trace container,
 * the content digest, TraceRecorder instruction accounting, and
 * summaries.
 */

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/recorder.hh"
#include "trace/replay_cache.hh"
#include "trace/summary.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace jcache::trace
{
namespace
{

namespace fs = std::filesystem;

/**
 * contentDigest() as docs/TRACE_FORMAT.md defines it, written out one
 * byte at a time so that it shares no code with the library: FNV-1a
 * 64 over each record's address (8 bytes) and instruction delta (4
 * bytes), least significant byte first, then its size and type bytes.
 */
std::string
byteSerialDigest(const Trace& trace)
{
    std::uint64_t state = 0xcbf29ce484222325ull;
    auto fold = [&state](std::uint64_t value, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i) {
            state ^= (value >> (8 * i)) & 0xff;
            state *= 0x100000001b3ull;
        }
    };
    for (const TraceRecord& r : trace) {
        fold(r.addr, 8);
        fold(r.instrDelta, 4);
        fold(r.size, 1);
        fold(static_cast<std::uint8_t>(r.type), 1);
    }
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(state));
    return text;
}

/**
 * Every combination of field values whose bytes are zero in
 * different places: none, all, only low, only high, and interior.
 */
Trace
fieldEdgeTrace()
{
    const Addr addrs[] = {0,          1,    0x100, 0x0100000000000001ull,
                          1ull << 63, ~0ull};
    const std::uint32_t deltas[] = {0, 1, 0x10000, 0xffffffffu};
    const std::uint8_t sizes[] = {1, 2, 4, 8};
    Trace t("edges");
    for (Addr addr : addrs)
        for (std::uint32_t delta : deltas)
            for (std::uint8_t size : sizes)
                for (RefType type : {RefType::Read, RefType::Write})
                    t.append({addr, delta, size, type});
    return t;
}

/**
 * A seeded stream of 100,000 records whose every field byte is zero
 * half the time, so every width and every run of zero bytes occurs.
 */
Trace
randomTrace()
{
    std::mt19937_64 rng(20261020);
    auto halfZeroBytes = [&rng](unsigned bytes) {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < bytes; ++i)
            if (rng() & 1)
                value |= (rng() & 0xff) << (8 * i);
        return value;
    };
    Trace t("random");
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t bits = rng();
        t.append({halfZeroBytes(8),
                  static_cast<std::uint32_t>(halfZeroBytes(4)),
                  static_cast<std::uint8_t>(1u << (bits & 3)),
                  (bits & 4) ? RefType::Write : RefType::Read});
    }
    return t;
}

TEST(TraceRecord, Defaults)
{
    TraceRecord r;
    EXPECT_EQ(r.addr, 0u);
    EXPECT_EQ(r.size, 4u);
    EXPECT_EQ(r.instrDelta, 1u);
    EXPECT_EQ(r.type, RefType::Read);
}

TEST(TraceRecord, Names)
{
    EXPECT_EQ(refTypeName(RefType::Read), "read");
    EXPECT_EQ(refTypeName(RefType::Write), "write");
}

TEST(TraceRecord, Validity)
{
    TraceRecord r;
    EXPECT_TRUE(isValid(r));
    r.size = 8;
    EXPECT_TRUE(isValid(r));
    r.size = 0;
    EXPECT_FALSE(isValid(r));
    r.size = 3;
    EXPECT_FALSE(isValid(r));
    r.size = 16;
    EXPECT_FALSE(isValid(r));
    r.size = 4;
    r.type = static_cast<RefType>(7);
    EXPECT_FALSE(isValid(r));
}

TEST(Trace, AppendAndIterate)
{
    Trace t("demo");
    EXPECT_TRUE(t.empty());
    t.append({0x100, 1, 4, RefType::Read});
    t.append({0x104, 2, 4, RefType::Write});
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.name(), "demo");
    EXPECT_EQ(t[1].addr, 0x104u);
    unsigned count = 0;
    for (const TraceRecord& r : t) {
        (void)r;
        ++count;
    }
    EXPECT_EQ(count, 2u);
}

TEST(Trace, ValidateRejectsMalformedRecords)
{
    Trace t("bad");
    t.append({0x100, 1, 3, RefType::Read});
    EXPECT_THROW(validate(t), FatalError);
}

TEST(ContentDigest, MatchesAByteSerialFnv1a)
{
    EXPECT_EQ(contentDigest(Trace("empty")), "cbf29ce484222325");
    EXPECT_EQ(byteSerialDigest(Trace("empty")), "cbf29ce484222325");

    const Trace edges = fieldEdgeTrace();
    for (const TraceRecord& r : edges) {
        Trace one("one");
        one.append(r);
        EXPECT_EQ(contentDigest(one), byteSerialDigest(one))
            << "addr " << r.addr << " delta " << r.instrDelta << " size "
            << unsigned{r.size} << " " << refTypeName(r.type);
    }
    EXPECT_EQ(contentDigest(edges), byteSerialDigest(edges));

    const Trace random = randomTrace();
    EXPECT_EQ(contentDigest(random), byteSerialDigest(random));
}

TEST(ContentDigest, JcrcHeaderCarriesTheSameDigest)
{
    // The JCRC writer digests the records in the walk that encodes
    // them; its header must read what contentDigest() computes, for
    // traces that fill their last block and traces that do not.
    const fs::path dir = fs::temp_directory_path() /
                         ("jcache_digest_header_" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::vector<Trace> traces = {Trace("empty"), fieldEdgeTrace(),
                                       randomTrace()};
    for (const Trace& t : traces) {
        const std::string expected = byteSerialDigest(t);
        // 192 edge records fill 64-record blocks and 100,000 random
        // ones fill 1,000-record blocks; 7 and 2,048 leave a short
        // last block for both.
        for (std::size_t block : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000},
                                  kDefaultBlockRecords}) {
            const std::string path = (dir / "t.jcrc").string();
            writeReplayCache(t, path, block);
            EXPECT_EQ(MappedReplayCache(path).digest(), expected)
                << t.name() << " at " << block << " records a block";
        }
        EXPECT_EQ(contentDigest(t), expected) << t.name();
    }
    fs::remove_all(dir);
}

TEST(TraceRecorder, FoldsTicksIntoNextReference)
{
    TraceRecorder rec("demo");
    rec.tick(3);
    rec.read(0x100, 4);
    rec.write(0x200, 8);
    rec.tick(5);
    rec.write(0x208, 4);
    Trace t = rec.take();
    ASSERT_EQ(t.size(), 3u);
    // 3 ticks + the load itself.
    EXPECT_EQ(t[0].instrDelta, 4u);
    EXPECT_EQ(t[0].type, RefType::Read);
    // Back-to-back store.
    EXPECT_EQ(t[1].instrDelta, 1u);
    EXPECT_EQ(t[1].size, 8u);
    EXPECT_EQ(t[2].instrDelta, 6u);
}

TEST(TraceRecorder, InstructionCountIncludesPendingTicks)
{
    TraceRecorder rec("demo");
    rec.read(0x0, 4);
    rec.tick(10);
    EXPECT_EQ(rec.instructions(), 11u);
}

TEST(Summary, CountsByType)
{
    TraceRecorder rec("demo");
    rec.tick(2);
    rec.read(0x100, 4);
    rec.read(0x104, 8);
    rec.write(0x200, 4);
    Trace t = rec.take();
    TraceSummary s = summarize(t);
    EXPECT_EQ(s.reads, 2u);
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.references(), 3u);
    EXPECT_EQ(s.readBytes, 12u);
    EXPECT_EQ(s.writeBytes, 4u);
    EXPECT_EQ(s.instructions, 5u);  // 2 ticks + 3 refs
    EXPECT_DOUBLE_EQ(s.loadStoreRatio(), 2.0);
    EXPECT_DOUBLE_EQ(s.refsPerInstruction(), 3.0 / 5.0);
}

TEST(Summary, EmptyTrace)
{
    Trace t("empty");
    TraceSummary s = summarize(t);
    EXPECT_EQ(s.references(), 0u);
    EXPECT_DOUBLE_EQ(s.loadStoreRatio(), 0.0);
    EXPECT_DOUBLE_EQ(s.refsPerInstruction(), 0.0);
}

} // namespace
} // namespace jcache::trace
