/**
 * @file
 * Tests for the unified trace-addressing API (sim/trace_ref.hh):
 * TraceRef parsing and canonical specs, and TraceRepository
 * resolution across the registry, uploaded traces and replay-cache
 * directories; the registry is reached only when a ref needs it, a
 * path ref never resolves, and opening a cache directory sweeps the
 * temporaries of dead writers only.
 */

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "sim/sweeps.hh"
#include "sim/trace_ref.hh"
#include "trace/replay_cache.hh"
#include "trace/trace.hh"

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

/** A registry getter over TraceSet::standard() that counts its calls. */
struct CountingRegistry
{
    std::atomic<int> calls{0};

    std::function<const TraceSet&()> getter()
    {
        return [this]() -> const TraceSet& {
            ++calls;
            return TraceSet::standard();
        };
    }
};

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
    config.registry = &TraceSet::standard;
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
    ResolvedTrace by_digest;
    EXPECT_NO_THROW(
        by_digest = repo.resolve(TraceRef::byDigest(by_name.digest)));
    EXPECT_EQ(by_digest.identity, by_name.identity);

    EXPECT_THROW(repo.resolve(TraceRef::byName("nonesuch")),
                 UnknownTraceError);
    EXPECT_THROW(
        repo.resolve(TraceRef::byDigest("ffffffffffffffff")),
        UnknownTraceError);
    // The repository never opens a file a ref names, and without a
    // registry it resolves no name at all.
    EXPECT_THROW(repo.resolve(*TraceRef::parse("path:/tmp/trace.jct")),
                 UnknownTraceError);
    EXPECT_THROW(TraceRepository().resolve(TraceRef::byName("ccom")),
                 UnknownTraceError);
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
    EXPECT_NO_THROW(repo.resolve(TraceRef::byDigest(first)));
    EXPECT_NO_THROW(repo.resolve(TraceRef::byDigest(second)));

    ResolvedTrace resolved = repo.resolve(TraceRef::byDigest(first));
    EXPECT_EQ(resolved.name, "first");
    EXPECT_EQ(resolved.digest, first);

    // Re-uploading refreshes rather than duplicating, so the third
    // distinct upload evicts `second` (now the oldest), not `first`.
    EXPECT_EQ(repo.addUpload(miniTrace("first", 8)).digest, first);
    std::string third = repo.addUpload(miniTrace("third", 16)).digest;
    EXPECT_NO_THROW(repo.resolve(TraceRef::byDigest(first)));
    EXPECT_NO_THROW(repo.resolve(TraceRef::byDigest(third)));
    EXPECT_THROW(repo.resolve(TraceRef::byDigest(second)),
                 UnknownTraceError);
}

TEST(TraceRepository, CacheDirMapsDigests)
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
    ResolvedTrace mapped;
    ASSERT_NO_THROW(mapped = repo.resolve(TraceRef::byDigest(digest)));
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
}

TEST(TraceRepository, UploadAndCacheFileDigestsNeverCallTheRegistry)
{
    TempDir dir("jcache_ref_lazy_digests");
    trace::Trace cached = miniTrace("cached", 32);
    std::string cached_digest = trace::contentDigest(cached);
    trace::ensureReplayCache(cached, dir.path);

    CountingRegistry registry;
    TraceRepository::Config config;
    config.registry = registry.getter();
    config.cacheDir = dir.path;
    TraceRepository repo(config);

    std::string uploaded = repo.addUpload(miniTrace("up", 8)).digest;
    EXPECT_EQ(repo.resolve(TraceRef::byDigest(uploaded)).name, "up");
    EXPECT_EQ(repo.resolve(TraceRef::byDigest(cached_digest)).name,
              "cached");
    EXPECT_EQ(
        repo.resolveMaterialized(TraceRef::byDigest(cached_digest))
            .name,
        "cached");
    EXPECT_EQ(registry.calls.load(), 0);
}

TEST(TraceRepository, NamesAndUnknownDigestsCallTheRegistry)
{
    CountingRegistry registry;
    TraceRepository::Config config;
    config.registry = registry.getter();
    TraceRepository repo(config);

    EXPECT_EQ(repo.resolve(TraceRef::byName("grr")).name, "grr");
    EXPECT_EQ(registry.calls.load(), 1);
    // A resolved name is cached by spec: no second call.
    EXPECT_EQ(repo.resolve(TraceRef::byName("grr")).name, "grr");
    EXPECT_EQ(registry.calls.load(), 1);

    EXPECT_THROW(repo.resolve(TraceRef::byDigest("ffffffffffffffff")),
                 UnknownTraceError);
    EXPECT_EQ(registry.calls.load(), 2);
}

TEST(TraceRepository, CacheFileOfARegistryTraceKeepsItsIdentity)
{
    TempDir dir("jcache_ref_registry_file");
    const TraceSet& standard = TraceSet::standard();
    const trace::Trace& ccom = standard.get("ccom");
    trace::ensureReplayCache(ccom, dir.path);

    CountingRegistry registry;
    TraceRepository::Config config;
    config.registry = registry.getter();
    config.cacheDir = dir.path;
    TraceRepository repo(config);

    // The digest resolves to the mapped file, before the registry,
    // under the identity the registry gives the same trace.
    ResolvedTrace mapped =
        repo.resolve(TraceRef::byDigest(trace::contentDigest(ccom)));
    EXPECT_EQ(mapped.trace, nullptr);
    EXPECT_EQ(mapped.name, "ccom");
    EXPECT_EQ(mapped.identity, trace::traceIdentity(ccom));
    EXPECT_EQ(registry.calls.load(), 0);

    ResolvedTrace by_name = repo.resolve(TraceRef::byName("ccom"));
    EXPECT_NE(by_name.trace, nullptr);
    EXPECT_EQ(by_name.identity, mapped.identity);
    EXPECT_EQ(registry.calls.load(), 1);
}

TEST(TraceRepository, CacheFileNameWinsOverTheRegistryForItsDigest)
{
    // The same records as the registry's ccom, recorded under another
    // name (as `jcache-trace import --name` would write them): the
    // digest resolves to the file, whose header names the trace.
    TempDir dir("jcache_ref_renamed_file");
    trace::Trace renamed = TraceSet::standard().get("ccom");
    renamed.setName("renamed");
    trace::ensureReplayCache(renamed, dir.path);

    CountingRegistry registry;
    TraceRepository::Config config;
    config.registry = registry.getter();
    config.cacheDir = dir.path;
    TraceRepository repo(config);

    ResolvedTrace mapped =
        repo.resolve(TraceRef::byDigest(trace::contentDigest(renamed)));
    EXPECT_EQ(mapped.name, "renamed");
    EXPECT_EQ(mapped.identity, trace::traceIdentity(renamed));
    EXPECT_NE(mapped.identity,
              trace::traceIdentity(TraceSet::standard().get("ccom")));
    EXPECT_EQ(registry.calls.load(), 0);
}

TEST(TraceRepository, OpeningACacheDirSweepsStaleTemporaries)
{
    TempDir dir("jcache_ref_sweep");
    trace::Trace t = miniTrace("kept", 32);
    const std::string kept = trace::ensureReplayCache(t, dir.path);
    // What a JCRC writer killed before its rename leaves behind, and
    // a name-ref temporary an older build's writer could have left.
    const std::string stale_cache = kept + ".a1B2c3.tmp";
    const std::string stale_ref =
        dir.path + "/n0123456789abcdef.ref.d4E5f6.tmp";
    std::ofstream(stale_cache) << "half a cache file";
    std::ofstream(stale_ref) << "01234567";

    TraceRepository::Config config;
    config.cacheDir = dir.path;
    TraceRepository repo(config);
    EXPECT_FALSE(fs::exists(stale_cache));
    EXPECT_FALSE(fs::exists(stale_ref));
    EXPECT_EQ(
        repo.resolve(TraceRef::byDigest(trace::contentDigest(t))).name,
        "kept");
}

TEST(TraceRepository, OpeningACacheDirNeverSweepsAWriteInFlight)
{
    // A second repository on the same directory takes its own flock,
    // so one process stands in for two: the peer's opens sweep stale
    // temporaries, and must never sweep the temporary of a cache file
    // that is still being written.
    TempDir dir("jcache_ref_sweep_race");
    fs::create_directories(dir.path);
    TraceRepository::Config config;
    config.cacheDir = dir.path;
    std::atomic<bool> stop{false};
    std::thread reopener([&] {
        while (!stop.load())
            TraceRepository peer(config);
    });
    unsigned failures = 0;
    for (unsigned i = 0; i < 100; ++i) {
        try {
            trace::ensureReplayCache(miniTrace("writer", 1024 + i),
                                     dir.path);
        } catch (const FatalError& e) {
            ADD_FAILURE() << "write " << i << ": " << e.what();
            ++failures;
        }
    }
    stop.store(true);
    reopener.join();
    EXPECT_EQ(failures, 0u);
    std::size_t caches = 0;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
        EXPECT_NE(entry.path().extension(), ".tmp");
        if (entry.path().extension() == ".jcrc")
            ++caches;
    }
    EXPECT_EQ(caches, 100u);
}

} // namespace
} // namespace jcache::sim
