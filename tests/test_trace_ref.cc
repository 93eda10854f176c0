/**
 * @file
 * Tests for the unified trace-addressing API (sim/trace_ref.hh):
 * TraceRef parsing and canonical specs, and TraceRepository
 * resolution across the registry, uploaded traces, replay-cache
 * directories, and the workload generator.
 */

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "sim/sweeps.hh"
#include "sim/trace_ref.hh"
#include "trace/file_io.hh"
#include "trace/replay_cache.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace jcache::sim
{
namespace
{

namespace fs = std::filesystem;

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

trace::Trace
miniTrace(const std::string& name, unsigned records)
{
    trace::Trace t(name);
    for (unsigned i = 0; i < records; ++i) {
        trace::TraceRecord r;
        r.addr = 0x1000 + i * 64;
        r.type = i % 2 == 0 ? trace::RefType::Read
                            : trace::RefType::Write;
        t.append(r);
    }
    return t;
}

TEST(TraceRef, ParsesEverySpelling)
{
    auto bare = TraceRef::parse("ccom");
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->kind(), TraceRef::Kind::Name);
    EXPECT_EQ(bare->value(), "ccom");
    EXPECT_EQ(bare->spec(), "name:ccom");
    EXPECT_EQ(*bare, TraceRef::byName("ccom"));

    auto path = TraceRef::parse("path:/tmp/trace.jct");
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->kind(), TraceRef::Kind::Path);
    EXPECT_EQ(path->value(), "/tmp/trace.jct");

    auto digest = TraceRef::parse("digest:0123456789abcdef");
    ASSERT_TRUE(digest.has_value());
    EXPECT_EQ(digest->kind(), TraceRef::Kind::Digest);
    EXPECT_EQ(digest->value(), "0123456789abcdef");

    // The canonical spec round-trips through parse() for all kinds.
    for (const TraceRef& ref : {*bare, *path, *digest}) {
        auto again = TraceRef::parse(ref.spec());
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(*again, ref);
    }
}

TEST(TraceRef, RejectsMalformedSpecs)
{
    EXPECT_FALSE(TraceRef::parse("").has_value());
    EXPECT_FALSE(TraceRef::parse("name:").has_value());
    EXPECT_FALSE(TraceRef::parse("digest:").has_value());
    EXPECT_FALSE(TraceRef::parse("digest:short").has_value());
    EXPECT_FALSE(
        TraceRef::parse("digest:0123456789ABCDEF").has_value());
    EXPECT_FALSE(
        TraceRef::parse("digest:0123456789abcdefff").has_value());
    EXPECT_THROW(TraceRef::byDigest("nope"), FatalError);
    EXPECT_TRUE(TraceRef().empty());
}

TEST(TraceRepository, ResolvesRegistryNamesAndDigests)
{
    TraceRepository::Config config;
    config.registry = &TraceSet::standard();
    TraceRepository repo(config);

    ResolvedTrace by_name = repo.resolve(TraceRef::byName("ccom"));
    ASSERT_NE(by_name.trace, nullptr);
    ASSERT_NE(by_name.source, nullptr);
    EXPECT_EQ(by_name.name, "ccom");
    EXPECT_EQ(by_name.digest,
              trace::contentDigest(*by_name.trace));
    EXPECT_EQ(by_name.identity,
              trace::traceIdentity(*by_name.trace));

    // The registry trace is reachable by its digest too.
    EXPECT_TRUE(repo.knowsDigest(by_name.digest));
    ResolvedTrace by_digest =
        repo.resolve(TraceRef::byDigest(by_name.digest));
    EXPECT_EQ(by_digest.identity, by_name.identity);

    EXPECT_THROW(repo.resolve(TraceRef::byName("nonesuch")),
                 UnknownTraceError);
    EXPECT_THROW(
        repo.resolve(TraceRef::byDigest("ffffffffffffffff")),
        UnknownTraceError);
    EXPECT_FALSE(repo.knowsDigest("ffffffffffffffff"));
}

TEST(TraceRepository, GeneratesUnknownNamesWhenAllowed)
{
    TraceRepository strict;
    EXPECT_THROW(strict.resolve(TraceRef::byName("ccom")),
                 UnknownTraceError);

    TraceRepository::Config config;
    config.generateUnknownNames = true;
    TraceRepository repo(config);
    ResolvedTrace generated = repo.resolve(TraceRef::byName("ccom"));
    ASSERT_NE(generated.trace, nullptr);
    EXPECT_EQ(generated.name, "ccom");
    EXPECT_THROW(repo.resolve(TraceRef::byName("nonesuch")),
                 UnknownTraceError);
}

TEST(TraceRepository, PathRefsHonorAllowPaths)
{
    TempDir dir("jcache_ref_path");
    fs::create_directories(dir.path);
    trace::Trace t = miniTrace("filed", 16);
    std::string file = dir.path + "/filed.jct";
    trace::saveTrace(t, file);

    TraceRepository open;
    ResolvedTrace resolved = open.resolve(TraceRef::byPath(file));
    ASSERT_NE(resolved.trace, nullptr);
    EXPECT_EQ(resolved.digest, trace::contentDigest(t));

    TraceRepository::Config closed_config;
    closed_config.allowPaths = false;
    TraceRepository closed(closed_config);
    EXPECT_THROW(closed.resolve(TraceRef::byPath(file)), FatalError);
}

TEST(TraceRepository, UploadsResolveByDigestAndEvictFifo)
{
    TraceRepository::Config config;
    config.uploadCapacity = 2;
    TraceRepository repo(config);

    std::string first = repo.addUpload(miniTrace("first", 8)).digest;
    std::string second = repo.addUpload(miniTrace("second", 12)).digest;
    ASSERT_EQ(first.size(), 16u);
    EXPECT_NE(first, second);
    EXPECT_TRUE(repo.knowsDigest(first));
    EXPECT_TRUE(repo.knowsDigest(second));

    ResolvedTrace resolved = repo.resolve(TraceRef::byDigest(first));
    EXPECT_EQ(resolved.name, "first");
    EXPECT_EQ(resolved.digest, first);

    // Re-uploading refreshes rather than duplicating, so the third
    // distinct upload evicts `second` (now the oldest), not `first`.
    EXPECT_EQ(repo.addUpload(miniTrace("first", 8)).digest, first);
    std::string third = repo.addUpload(miniTrace("third", 16)).digest;
    EXPECT_TRUE(repo.knowsDigest(first));
    EXPECT_TRUE(repo.knowsDigest(third));
    EXPECT_FALSE(repo.knowsDigest(second));
    EXPECT_THROW(repo.resolve(TraceRef::byDigest(second)),
                 UnknownTraceError);
}

TEST(TraceRepository, CacheDirMapsDigestsAndReusesNames)
{
    TempDir dir("jcache_ref_cachedir");
    trace::Trace t = miniTrace("cached", 32);
    std::string digest = trace::contentDigest(t);
    trace::ensureReplayCache(t, dir.path);

    TraceRepository::Config config;
    config.cacheDir = dir.path;
    TraceRepository repo(config);

    // A digest ref resolves straight off the .jcrc file: mapped-only,
    // no in-memory records until materialization is asked for.
    ASSERT_TRUE(repo.knowsDigest(digest));
    ResolvedTrace mapped = repo.resolve(TraceRef::byDigest(digest));
    EXPECT_EQ(mapped.trace, nullptr);
    ASSERT_NE(mapped.source, nullptr);
    EXPECT_EQ(mapped.name, "cached");
    EXPECT_EQ(mapped.identity, trace::traceIdentity(t));

    ResolvedTrace materialized =
        repo.resolveMaterialized(TraceRef::byDigest(digest));
    ASSERT_NE(materialized.trace, nullptr);
    EXPECT_EQ(materialized.trace->records(), t.records());
    EXPECT_EQ(materialized.digest, mapped.digest);
    EXPECT_EQ(materialized.identity, mapped.identity);

    // A generating repository writes the cache files once; a second
    // repository then serves the name from the cache directory via
    // the name-ref file instead of regenerating.
    TraceRepository::Config gen_config;
    gen_config.generateUnknownNames = true;
    gen_config.cacheDir = dir.path;
    TraceRepository generator(gen_config);
    ResolvedTrace generated =
        generator.resolve(TraceRef::byName("ccom"));

    TraceRepository reader(gen_config);
    ResolvedTrace reread = reader.resolve(TraceRef::byName("ccom"));
    EXPECT_EQ(reread.identity, generated.identity);
    EXPECT_TRUE(
        fs::exists(trace::replayCachePath(dir.path,
                                          generated.digest)));
}

} // namespace
} // namespace jcache::sim
