/**
 * @file
 * Tests for the persistent content-addressed result store
 * (store/store.hh) and the canonical result keys (store/key.hh):
 * round trips, persistence across instances, torn blob tolerance,
 * a failed put, LRU eviction, the mid-put SIGKILL recovery property,
 * key versioning (an engine or API bump must miss, never alias), a
 * concurrent get/put stress, and opens of the directory racing a put.
 */

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/result_cache.hh"
#include "store/key.hh"
#include "store/store.hh"
#include "util/fault.hh"
#include "util/fs.hh"

using namespace jcache;
using store::KeyContext;
using store::ResultStore;
using store::StoreConfig;

namespace
{

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("jcache_store_test_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        config_.dir = dir_;
    }

    void TearDown() override
    {
        fault::reset();
        fs::remove_all(dir_);
    }

    /** Digest-shaped key: 16 hex chars, distinct per salt. */
    static std::string key(unsigned salt)
    {
        std::string digest = "00000000000000k0";
        digest[13] = static_cast<char>('a' + salt % 26);
        digest[15] = static_cast<char>('a' + (salt / 26) % 26);
        return digest;
    }

    std::string dir_;
    StoreConfig config_;
};

/** Count the *.jcr blobs currently on disk. */
std::size_t
blobsOnDisk(const std::string& dir)
{
    std::size_t count = 0;
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir) / "objects")) {
        if (entry.path().extension() == ".jcr")
            ++count;
    }
    return count;
}

} // namespace

TEST_F(StoreTest, PutGetRoundTripsAndCounts)
{
    ResultStore store(config_);
    EXPECT_FALSE(store.get(key(1)).has_value());
    store.put(key(1), "payload-one");
    store.put(key(2), std::string(4096, 'x'));

    auto one = store.get(key(1));
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(*one, "payload-one");
    EXPECT_EQ(store.get(key(2)).value(), std::string(4096, 'x'));
    EXPECT_TRUE(store.contains(key(1)));
    EXPECT_FALSE(store.contains(key(3)));

    store::StoreStats stats = store.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GT(stats.occupancyBytes, 4096u);
    EXPECT_GT(stats.putBytes, 0u);
    EXPECT_EQ(stats.putFailures, 0u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 2.0 / 3.0);
}

TEST_F(StoreTest, RePutRefreshesInsteadOfDuplicating)
{
    ResultStore store(config_);
    store.put(key(1), "v1");
    std::uint64_t occupancy_v1 = store.stats().occupancyBytes;
    store.put(key(1), "version-two-longer");
    EXPECT_EQ(store.stats().entries, 1u);
    EXPECT_GT(store.stats().occupancyBytes, occupancy_v1);
    EXPECT_EQ(store.get(key(1)).value(), "version-two-longer");
    EXPECT_EQ(blobsOnDisk(dir_), 1u);
}

TEST_F(StoreTest, PersistsAcrossInstances)
{
    {
        ResultStore store(config_);
        store.put(key(1), "survives");
        store.put(key(2), "also survives");
    }
    ResultStore reopened(config_);
    EXPECT_EQ(reopened.stats().entries, 2u);
    EXPECT_EQ(reopened.get(key(1)).value(), "survives");
    EXPECT_EQ(reopened.get(key(2)).value(), "also survives");
    // A fresh open starts its session counters at zero.
    EXPECT_EQ(reopened.stats().hits, 2u);
    EXPECT_EQ(reopened.stats().misses, 0u);
}

TEST_F(StoreTest, TornBlobOnDiskIsDroppedAtOpen)
{
    {
        ResultStore store(config_);
        store.put(key(1), "good");
    }
    // A blob torn at the filesystem level: valid prefix, missing
    // tail — exactly what a crash between write and fsync leaves.
    std::ofstream(
        (fs::path(dir_) / "objects" / (key(9) + ".jcr")).string(),
        std::ios::binary)
        << "JCRO-this-is-not-a-valid-blob";

    ResultStore reopened(config_);
    store::StoreStats stats = reopened.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.tornBlobs, 1u);
    EXPECT_EQ(reopened.get(key(1)).value(), "good");
    // The corpse was deleted, not just skipped.
    EXPECT_EQ(blobsOnDisk(dir_), 1u);
}

TEST_F(StoreTest, TornWriteFaultSurfacesAsMissOnGet)
{
    ResultStore store(config_);
    store.put(key(1), "good");
    fault::configure("store.blob.torn=always");
    store.put(key(2), "will be torn on disk");
    fault::reset();

    // The torn blob passed put() accounting but fails validation on
    // read: dropped, deleted, reported as a miss — and the good
    // entry is untouched.
    EXPECT_FALSE(store.get(key(2)).has_value());
    EXPECT_GE(store.stats().tornBlobs, 1u);
    EXPECT_FALSE(store.contains(key(2)));
    EXPECT_EQ(store.get(key(1)).value(), "good");
    EXPECT_EQ(blobsOnDisk(dir_), 1u);
}

TEST_F(StoreTest, FailedPutThrowsCountsAndLeavesTheStoreAsItWas)
{
    ResultStore store(config_);
    store.put(key(1), "kept");
    std::uint64_t occupancy = store.stats().occupancyBytes;
    // objects/ removed under a live store: no temporary can be made.
    fs::remove_all(fs::path(dir_) / "objects");
    EXPECT_THROW(store.put(key(2), "lost"), util::FsError);

    store::StoreStats stats = store.stats();
    EXPECT_EQ(stats.putFailures, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.occupancyBytes, occupancy);
    EXPECT_FALSE(store.contains(key(2)));
}

TEST_F(StoreTest, TornIndexIsToleratedAndRebuilt)
{
    {
        ResultStore store(config_);
        store.put(key(1), "payload");
    }
    // A torn index file left by an older store: nothing reads it, so
    // the open deletes it instead of parsing it.
    std::string index = (fs::path(dir_) / "index.jci").string();
    std::ofstream(index, std::ios::trunc)
        << "jcache-store-index 1\n"
        << key(1) << " 40";

    ResultStore reopened(config_);
    EXPECT_FALSE(fs::exists(index));
    // The blobs themselves are the truth; the entry is still served.
    EXPECT_EQ(reopened.get(key(1)).value(), "payload");
}

TEST_F(StoreTest, StaleTempFilesAreSweptAtOpen)
{
    {
        ResultStore store(config_);
        store.put(key(1), "kept");
    }
    std::string stale =
        (fs::path(dir_) / "objects" / (key(2) + ".jcr.tmp"))
            .string();
    std::ofstream(stale, std::ios::binary) << "half a blob";

    ResultStore reopened(config_);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_EQ(reopened.stats().entries, 1u);
}

TEST_F(StoreTest, LruEvictionStaysUnderCapAndDeletesFiles)
{
    std::string payload(1000, 'p');
    config_.capBytes = 3200; // fits ~3 framed 1000-byte blobs
    ResultStore store(config_);
    store.put(key(1), payload);
    store.put(key(2), payload);
    store.put(key(3), payload);
    // Refresh 1 so 2 is the least recently used, then overflow.
    EXPECT_TRUE(store.get(key(1)).has_value());
    store.put(key(4), payload);

    EXPECT_FALSE(store.contains(key(2)));
    EXPECT_TRUE(store.contains(key(1)));
    EXPECT_TRUE(store.contains(key(3)));
    EXPECT_TRUE(store.contains(key(4)));
    store::StoreStats stats = store.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.occupancyBytes, stats.capBytes);
    EXPECT_EQ(blobsOnDisk(dir_), 3u);
}

TEST_F(StoreTest, HotBlobStillLosesToALaterPut)
{
    // A is hit repeatedly but B is written later: eviction ranks by
    // recency alone, so the victim is A however often it was hit.
    std::string payload(1000, 'p');
    config_.capBytes = 2200; // fits 2 framed blobs
    ResultStore store(config_);
    store.put(key(1), payload); // A
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(store.get(key(1)).has_value());
    store.put(key(2), payload); // B, most recent
    store.put(key(3), payload); // overflow: someone is evicted
    EXPECT_FALSE(store.contains(key(1)));
    EXPECT_TRUE(store.contains(key(2)));
}

TEST_F(StoreTest, OversizedPayloadIsNotStored)
{
    config_.capBytes = 512;
    ResultStore store(config_);
    store.put(key(1), std::string(4096, 'x'));
    EXPECT_FALSE(store.contains(key(1)));
    EXPECT_EQ(store.stats().entries, 0u);
    EXPECT_EQ(store.stats().occupancyBytes, 0u);
}

TEST_F(StoreTest, MtimeSeedsRecencyAcrossReopen)
{
    {
        ResultStore store(config_);
        store.put(key(1), std::string(1000, 'a'));
        store.put(key(2), std::string(1000, 'b'));
        store.put(key(3), std::string(1000, 'c'));
    }
    // Reopen with a cap that forces one eviction on the next put;
    // the victim must be the oldest blob even though this instance
    // never saw the original access order.
    StoreConfig config = config_;
    config.capBytes = 3200;
    ResultStore reopened(config);
    EXPECT_TRUE(reopened.get(key(1)).has_value()); // refresh oldest
    reopened.put(key(4), std::string(1000, 'd'));
    EXPECT_TRUE(reopened.contains(key(1)));
    EXPECT_FALSE(reopened.contains(key(2)));
}

TEST_F(StoreTest, CrashMidPutLeavesStoreOpenableWithSurvivors)
{
    {
        ResultStore store(config_);
        store.put(key(1), "survivor");
    }
    // The fault site dies by SIGKILL after writing half a temporary
    // — no unwind, no rename, exactly a mid-put power cut.
    EXPECT_EXIT(
        {
            fault::configure("store.put.crash=always");
            ResultStore store(config_);
            store.put(key(2), "never lands");
        },
        ::testing::KilledBySignal(SIGKILL), "");

    ResultStore reopened(config_);
    EXPECT_EQ(reopened.get(key(1)).value(), "survivor");
    EXPECT_FALSE(reopened.contains(key(2)));
    EXPECT_EQ(reopened.stats().entries, 1u);
    // The half-written temporary was swept at open.
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir_) / "objects"))
        EXPECT_NE(entry.path().extension(), ".tmp");
}

TEST_F(StoreTest, ConcurrentGetPutEvictIsSafe)
{
    config_.capBytes = 64 * 1024;
    ResultStore store(config_);
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            std::string payload(512 + 97 * t, 'q');
            for (unsigned i = 0; i < 200; ++i) {
                unsigned salt = (t * 7 + i) % 32;
                if (i % 3 == 0) {
                    store.put(key(salt), payload);
                } else {
                    auto hit = store.get(key(salt));
                    if (hit && hit->empty())
                        failures.fetch_add(1);
                }
                if (i % 17 == 0)
                    store.contains(key(salt));
            }
        });
    }
    for (std::thread& thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0u);
    store::StoreStats stats = store.stats();
    EXPECT_LE(stats.occupancyBytes, stats.capBytes);
    EXPECT_EQ(stats.entries, blobsOnDisk(dir_));
}

TEST_F(StoreTest, ReopenDuringPutsNeverSweepsAPutInFlight)
{
    // A second store on the same directory takes its own flock, so
    // one process stands in for two: the peer's opens sweep stale
    // temporaries, and must never sweep the temporary of a put that
    // is still in flight.
    ResultStore writer(config_);
    std::atomic<bool> stop{false};
    std::thread reopener([&] {
        while (!stop.load())
            ResultStore peer(config_);
    });
    const std::string payload(64 * 1024, 'r');
    unsigned failures = 0;
    for (unsigned i = 0; i < 200; ++i) {
        try {
            writer.put(key(i), payload);
        } catch (const FatalError& e) {
            ADD_FAILURE() << "put " << i << ": " << e.what();
            ++failures;
        }
    }
    stop.store(true);
    reopener.join();
    EXPECT_EQ(failures, 0u);
    EXPECT_EQ(writer.stats().entries, 200u);
    EXPECT_EQ(blobsOnDisk(dir_), 200u);
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir_) / "objects"))
        EXPECT_NE(entry.path().extension(), ".tmp");
}

// --- Canonical result keys -------------------------------------------

TEST(StoreKey, TextIsCanonicalAndVersioned)
{
    KeyContext ctx;
    std::string text = store::cellKeyText(
        ctx, "ccom#0011223344556677#1000", "8192|16|1|wt|fow|lru|1",
        false);
    // The text names every input: context, identity, config, flush.
    EXPECT_NE(text.find("cell|"), std::string::npos);
    EXPECT_NE(text.find("ev" + std::to_string(kEngineVersion)),
              std::string::npos);
    EXPECT_NE(text.find("ccom#0011223344556677#1000"),
              std::string::npos);
    EXPECT_NE(text.find("|f0"), std::string::npos);

    std::string digest = store::cellKey(
        ctx, "ccom#0011223344556677#1000", "8192|16|1|wt|fow|lru|1",
        false);
    EXPECT_EQ(digest.size(), 16u);
    EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

TEST(StoreKey, EveryContextFieldChangesTheKey)
{
    KeyContext base;
    std::string identity = "ccom#0011223344556677#1000";
    std::string config_key = "8192|16|1|wt|fow|lru|1";
    std::string reference =
        store::cellKey(base, identity, config_key, false);

    KeyContext bumped_engine = base;
    bumped_engine.engineVersion = base.engineVersion + 1;
    EXPECT_NE(store::cellKey(bumped_engine, identity, config_key,
                             false),
              reference);

    KeyContext bumped_api = base;
    bumped_api.apiMinor = base.apiMinor + 1;
    EXPECT_NE(store::cellKey(bumped_api, identity, config_key, false),
              reference);

    KeyContext other_engine = base;
    other_engine.engine = base.engine == sim::Engine::OnePass
        ? sim::Engine::PerCell
        : sim::Engine::OnePass;
    EXPECT_NE(store::cellKey(other_engine, identity, config_key,
                             false),
              reference);

    EXPECT_NE(store::cellKey(base, identity, config_key, true),
              reference);
    EXPECT_NE(store::cellKey(base, "other#88#1", config_key, false),
              reference);
    EXPECT_NE(store::cellKey(base, identity, "4096|16|1|wt|fow|lru|1",
                             false),
              reference);
    // Same inputs, same key: the derivation is deterministic.
    EXPECT_EQ(store::cellKey(base, identity, config_key, false),
              reference);
}

TEST(StoreKey, EngineVersionBumpMissesInResultCache)
{
    // The satellite regression: a result cached by engine version N
    // must be a miss — not a stale hit — when the engine is bumped
    // to N+1, in both cache tiers (they share the key derivation).
    service::ResultCache cache(8);
    KeyContext v1;
    std::string identity = "ccom#0011223344556677#1000";
    std::string config_key = "8192|16|1|wt|fow|lru|1";
    cache.insert(store::cellKey(v1, identity, config_key, false),
                 "result from engine v" +
                     std::to_string(v1.engineVersion));

    KeyContext v2 = v1;
    v2.engineVersion = v1.engineVersion + 1;
    EXPECT_FALSE(
        cache.lookup(store::cellKey(v2, identity, config_key, false))
            .has_value());
    EXPECT_TRUE(
        cache.lookup(store::cellKey(v1, identity, config_key, false))
            .has_value());
}

TEST(StoreKey, SweepAndUploadKeysAreDistinctNamespaces)
{
    KeyContext ctx;
    std::string identity = "ccom#0011223344556677#1000";
    std::string config_key = "8192|16|1|wt|fow|lru|1";
    std::string cell =
        store::cellKey(ctx, identity, config_key, false);
    std::string sweep =
        store::sweepKey(ctx, identity, "size", config_key);
    std::string upload = store::uploadKey(ctx, "aabbccddeeff0011",
                                          "ccom", config_key, false);
    EXPECT_NE(cell, sweep);
    EXPECT_NE(cell, upload);
    EXPECT_NE(sweep, upload);
    EXPECT_NE(store::sweepKey(ctx, identity, "line", config_key),
              sweep);
}
