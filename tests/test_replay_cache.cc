/**
 * @file
 * Tests for the JCRC on-disk replay cache (trace/replay_cache.hh):
 * write/mmap round trips, header metadata, digest-addressed naming,
 * and rejection of corrupt, truncated or forged files.
 */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/import.hh"
#include "trace/replay_cache.hh"
#include "trace/trace.hh"
#include "trace/varint.hh"
#include "workloads/workload.hh"

namespace jcache::trace
{
namespace
{

namespace fs = std::filesystem;
using namespace std::string_literals;

/** A per-test scratch directory, removed on destruction. */
struct TempDir
{
    std::string path;

    explicit TempDir(const std::string& tag)
        : path((fs::temp_directory_path() /
                (tag + "_" + std::to_string(::getpid())))
                   .string())
    {
        fs::remove_all(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

Trace
sampleTrace()
{
    workloads::WorkloadConfig config;
    config.scale = 1;
    return workloads::generateTrace(
        *workloads::makeWorkload("ccom", config));
}

/** Drain every record out of a replay source through its cursor. */
std::vector<TraceRecord>
drain(const ReplaySource& source)
{
    std::vector<TraceRecord> records;
    auto cursor = source.blocks(kDefaultBlockRecords);
    TraceBlock block;
    while (cursor->next(block))
        records.insert(records.end(), block.records,
                       block.records + block.count);
    return records;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * A JCRC file built field by field: the given counts, an empty name,
 * a well-formed digest, then `offsets` and `payload` verbatim.  The
 * payload of a file with B blocks starts at byte 52 + 8 * B.
 */
std::string
jcrcFile(std::uint64_t count, std::uint64_t blockRecords,
         std::uint64_t blockCount,
         const std::vector<std::uint64_t>& offsets,
         const std::string& payload = "")
{
    std::string out(kReplayCacheMagic.begin(), kReplayCacheMagic.end());
    appendLe<std::uint16_t>(out, kReplayCacheVersion);
    appendLe<std::uint16_t>(out, 0);
    appendLe<std::uint64_t>(out, count);
    appendLe<std::uint64_t>(out, blockRecords);
    appendLe<std::uint64_t>(out, blockCount);
    out += "0123456789abcdef";
    appendLe<std::uint32_t>(out, 0);
    for (std::uint64_t offset : offsets)
        appendLe<std::uint64_t>(out, offset);
    return out + payload;
}

TEST(ReplayCache, RoundTripsEveryRecord)
{
    TempDir dir("jcache_replay_roundtrip");
    Trace trace = sampleTrace();
    std::string path = ensureReplayCache(trace, dir.path);
    EXPECT_EQ(path, replayCachePath(dir.path, contentDigest(trace)));

    MappedReplayCache cache(path);
    EXPECT_EQ(cache.name(), trace.name());
    EXPECT_EQ(cache.records(), trace.records().size());
    EXPECT_EQ(cache.digest(), contentDigest(trace));
    EXPECT_EQ(cache.identity(), traceIdentity(trace));
    EXPECT_EQ(drain(cache), trace.records());
}

TEST(ReplayCache, ShortBlocksDecodeIndependently)
{
    // A tiny block size forces many blocks plus a short tail block;
    // every boundary must still reproduce the exact record stream.
    TempDir dir("jcache_replay_blocks");
    Trace trace = sampleTrace();
    std::string path = replayCachePath(dir.path, contentDigest(trace));
    fs::create_directories(dir.path);
    writeReplayCache(trace, path, 7);

    MappedReplayCache cache(path);
    EXPECT_EQ(cache.blockRecords(), 7u);
    EXPECT_EQ(cache.blockCount(),
              (trace.records().size() + 6) / 7);
    EXPECT_EQ(drain(cache), trace.records());

    // Two concurrent cursors do not disturb each other.
    auto a = cache.blocks(0);
    auto b = cache.blocks(0);
    TraceBlock first_a;
    TraceBlock first_b;
    ASSERT_TRUE(a->next(first_a));
    ASSERT_TRUE(b->next(first_b));
    ASSERT_GT(first_a.count, 0u);
    EXPECT_EQ(first_a.records[0], first_b.records[0]);
}

TEST(ReplayCache, EnsureIsIdempotent)
{
    TempDir dir("jcache_replay_idem");
    Trace trace = sampleTrace();
    std::string first = ensureReplayCache(trace, dir.path);
    std::string bytes = readFile(first);
    std::string second = ensureReplayCache(trace, dir.path);
    EXPECT_EQ(first, second);
    EXPECT_EQ(readFile(second), bytes);
}

TEST(ReplayCache, RejectsBadMagicAndVersion)
{
    TempDir dir("jcache_replay_magic");
    Trace trace = sampleTrace();
    std::string path = ensureReplayCache(trace, dir.path);
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 8u);

    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    writeFile(path, bad_magic);
    EXPECT_THROW(MappedReplayCache{path}, ReplayCacheError);

    std::string bad_version = bytes;
    bad_version[4] = static_cast<char>(kReplayCacheVersion + 1);
    writeFile(path, bad_version);
    EXPECT_THROW(MappedReplayCache{path}, ReplayCacheError);
}

TEST(ReplayCache, RejectsTruncation)
{
    TempDir dir("jcache_replay_trunc");
    Trace trace = sampleTrace();
    std::string path = ensureReplayCache(trace, dir.path);
    std::string bytes = readFile(path);

    // Headerless stub: fails structural validation on open.
    writeFile(path, bytes.substr(0, 10));
    EXPECT_THROW(MappedReplayCache{path}, ReplayCacheError);

    // Payload cut short: opens (the header is intact) but the cursor
    // must hit the damage rather than fabricate records.
    writeFile(path, bytes.substr(0, bytes.size() - 8));
    EXPECT_THROW(
        {
            MappedReplayCache cache(path);
            drain(cache);
        },
        ReplayCacheError);
}

TEST(ReplayCache, EmptyTraceRoundTrips)
{
    TempDir dir("jcache_replay_empty");
    Trace empty("empty");
    std::string path = ensureReplayCache(empty, dir.path);
    MappedReplayCache cache(path);
    EXPECT_EQ(cache.records(), 0u);
    EXPECT_TRUE(drain(cache).empty());
}

TEST(ReplayCache, HandBuiltFileDecodes)
{
    // jcrcFile(), which the forged-header tests below use, builds a
    // file the reader accepts: one 4-byte read of address 0.
    TempDir dir("jcache_replay_handbuilt");
    fs::create_directories(dir.path);
    std::string path = dir.path + "/one.jcrc";
    writeFile(path, jcrcFile(1, 1, 1, {60}, "\x04\x00\x01"s));
    MappedReplayCache cache(path);
    EXPECT_EQ(drain(cache),
              (std::vector<TraceRecord>{{0, 1, 4, RefType::Read}}));
}

TEST(ReplayCache, RejectsARecordCountThePayloadCannotHold)
{
    // 2^40 records in one block and no payload bytes: refused at
    // open, not left to throw bad_alloc from the first cursor.
    TempDir dir("jcache_replay_forged_count");
    fs::create_directories(dir.path);
    std::string path = dir.path + "/forged.jcrc";
    writeFile(path, jcrcFile(1ull << 40, 1ull << 40, 1, {60}));
    EXPECT_THROW(MappedReplayCache{path}, ReplayCacheError);
    EXPECT_THROW(loadAnyTrace(path), ReplayCacheError);
}

TEST(ReplayCache, RejectsABlockCountThatWrapsAround)
{
    // 10 records at 2^64-1 records per block need one block; a header
    // claiming none must not open as a silently empty trace.
    TempDir dir("jcache_replay_forged_blocks");
    fs::create_directories(dir.path);
    std::string path = dir.path + "/forged.jcrc";
    writeFile(path, jcrcFile(10, ~std::uint64_t{0}, 0, {}));
    EXPECT_THROW(MappedReplayCache{path}, ReplayCacheError);
    EXPECT_THROW(loadAnyTrace(path), ReplayCacheError);
}

TEST(ReplayCache, RejectsCorruptRecords)
{
    // Each payload holds one bad record; the header is sound, so the
    // damage surfaces when the block is decoded.
    TempDir dir("jcache_replay_records");
    fs::create_directories(dir.path);
    std::string path = dir.path + "/bad.jcrc";
    const std::string payloads[] = {
        "\x44\x00\x01"s,                    // reserved meta bit set
        "\x04"s + std::string(10, '\x80'),  // runaway address varint
        "\x04\x00\x80\x80\x80\x80\x10"s,    // instr delta 2^32
        "\x04\x00\x01x"s,                   // trailing byte
    };
    for (const std::string& payload : payloads) {
        writeFile(path, jcrcFile(1, 1, 1, {60}, payload));
        MappedReplayCache cache(path);
        EXPECT_THROW(drain(cache), ReplayCacheError);
        EXPECT_THROW(loadAnyTrace(path), ReplayCacheError);
    }
}

TEST(ReplayCache, WidestRecordsMatchTheFormatByteForByte)
{
    // Every record takes the widest encoding docs/TRACE_FORMAT.md
    // allows: each address jumps by 2^63, a delta of -2^63 modulo
    // 2^64 that zigzag-maps to 2^64 - 1 and takes a 10-byte varint,
    // and an instruction delta of 2^32 - 1 takes 5.  With the meta
    // byte that is 16 bytes a record, the most the writer leaves room
    // for.  The reference is spelled out from the format's rules.
    constexpr std::size_t kBlock = 1000;
    constexpr std::size_t kRecords = 2 * kBlock + 1;
    Trace t("wide");
    for (std::size_t i = 0; i < kRecords; ++i)
        t.append({i % 2 == 0 ? Addr{1} << 63 : Addr{0}, 0xffffffffu, 8,
                  RefType::Write});
    const std::string record =
        "\x07"s                                    // write, 8 bytes
        "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"s // zigzag(-2^63)
        "\xff\xff\xff\xff\x0f"s;                   // 2^32 - 1
    ASSERT_EQ(record.size(), 16u);

    std::string expected(kReplayCacheMagic.begin(),
                         kReplayCacheMagic.end());
    appendLe<std::uint16_t>(expected, kReplayCacheVersion);
    appendLe<std::uint16_t>(expected, 0);
    appendLe<std::uint64_t>(expected, kRecords);
    appendLe<std::uint64_t>(expected, kBlock);
    appendLe<std::uint64_t>(expected, 3);
    expected += contentDigest(t);
    appendLe<std::uint32_t>(expected, 4);
    expected += "wide";
    const std::uint64_t payload = 52 + 4 + 3 * 8;
    for (std::uint64_t b = 0; b < 3; ++b)
        appendLe<std::uint64_t>(expected, payload + b * kBlock * 16);
    for (std::size_t i = 0; i < kRecords; ++i)
        expected += record;

    TempDir dir("jcache_replay_widest");
    fs::create_directories(dir.path);
    const std::string path = dir.path + "/wide.jcrc";
    writeReplayCache(t, path, kBlock);
    EXPECT_EQ(readFile(path), expected);
    MappedReplayCache cache(path);
    EXPECT_EQ(drain(cache), t.records());
}

TEST(ReplayCache, EnsureTrustsAnExistingFile)
{
    // The digest name is the invalidation key: whatever bytes sit
    // under `<digest>.jcrc` are returned as they are, not rewritten,
    // even though the trace was encoded to learn that name.
    TempDir dir("jcache_replay_trusted");
    fs::create_directories(dir.path);
    Trace trace = sampleTrace();
    const std::string planted = "not the bytes the encoder writes";
    const std::string path = replayCachePath(dir.path, contentDigest(trace));
    writeFile(path, planted);
    EXPECT_EQ(ensureReplayCache(trace, dir.path), path);
    EXPECT_EQ(readFile(path), planted);
}

#ifdef __linux__
TEST(ReplayCache, FailedOpenReleasesTheMapping)
{
    // A file refused at open must not stay mapped: jcached may be
    // handed any number of them.
    TempDir dir("jcache_replay_unmap");
    fs::create_directories(dir.path);
    std::string path = dir.path + "/forged.jcrc";
    writeFile(path, jcrcFile(10, ~std::uint64_t{0}, 0, {}));
    EXPECT_THROW(MappedReplayCache{path}, ReplayCacheError);
    EXPECT_EQ(readFile("/proc/self/maps").find(path), std::string::npos);
}
#endif

} // namespace
} // namespace jcache::trace
