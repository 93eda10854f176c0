/**
 * @file
 * Tests for the LRU result cache and the request-key digest
 * (service/result_cache.hh).
 */

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/result_cache.hh"

using jcache::service::digestKey;
using jcache::service::ResultCache;
using jcache::service::ResultCacheStats;

TEST(DigestKey, IsStableAndCollisionResistant)
{
    // FNV-1a 64 of the empty string — a published constant, so the
    // digest is pinned across platforms and refactors.
    EXPECT_EQ(digestKey(""), "cbf29ce484222325");
    EXPECT_EQ(digestKey("run|ccom|16384"),
              digestKey("run|ccom|16384"));
    EXPECT_NE(digestKey("run|ccom|16384"),
              digestKey("run|ccom|16385"));
    EXPECT_EQ(digestKey("x").size(), 16u);
}

TEST(ResultCache, MissThenHit)
{
    ResultCache cache(4);
    EXPECT_FALSE(cache.lookup("d1").has_value());
    cache.insert("d1", "payload-1");
    auto hit = cache.lookup("d1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "payload-1");

    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.capacity, 4u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

TEST(ResultCache, EvictsLeastRecentlyUsed)
{
    ResultCache cache(2);
    cache.insert("a", "A");
    cache.insert("b", "B");
    // Touch "a" so "b" becomes the LRU entry.
    EXPECT_TRUE(cache.lookup("a").has_value());
    cache.insert("c", "C");

    EXPECT_TRUE(cache.lookup("a").has_value());
    EXPECT_FALSE(cache.lookup("b").has_value());
    EXPECT_TRUE(cache.lookup("c").has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCache, ReinsertRefreshesInsteadOfDuplicating)
{
    ResultCache cache(2);
    cache.insert("a", "old");
    cache.insert("b", "B");
    cache.insert("a", "new");
    // Refreshing "a" made it MRU; inserting "c" must evict "b".
    cache.insert("c", "C");
    auto a = cache.lookup("a");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, "new");
    EXPECT_FALSE(cache.lookup("b").has_value());
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCache, ZeroCapacityDisablesCaching)
{
    ResultCache cache(0);
    cache.insert("a", "A");
    EXPECT_FALSE(cache.lookup("a").has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().capacity, 0u);
}

TEST(ResultCache, HitRateBeforeAnyLookupIsZero)
{
    EXPECT_DOUBLE_EQ(ResultCacheStats{}.hitRate(), 0.0);
}

TEST(ResultCache, EvictionUnderConcurrentLookupsStaysCoherent)
{
    // A capacity-2 cache with writers churning unique keys forces an
    // eviction on nearly every insert; readers hammering a hot key
    // must only ever observe its exact value or a clean miss — never
    // a torn entry or a crash.
    ResultCache cache(2);
    const std::string hot_key = "hot";
    const std::string hot_value = "payload-of-the-hot-key";
    std::atomic<bool> stop{false};
    std::atomic<int> hot_hits{0};

    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                if (auto hit = cache.lookup(hot_key)) {
                    EXPECT_EQ(*hit, hot_value);
                    hot_hits.fetch_add(1);
                } else {
                    cache.insert(hot_key, hot_value);
                }
            }
        });
    }

    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
        writers.emplace_back([&cache, w] {
            for (int i = 0; i < 2000; ++i) {
                std::string key = "churn-" + std::to_string(w) +
                                  "-" + std::to_string(i);
                cache.insert(key, "value-" + key);
                if (auto hit = cache.lookup(key)) {
                    EXPECT_EQ(*hit, "value-" + key);
                }
            }
        });
    }
    for (std::thread& t : writers)
        t.join();
    stop.store(true);
    for (std::thread& t : readers)
        t.join();

    ResultCacheStats s = cache.stats();
    EXPECT_LE(s.entries, 2u);
    EXPECT_GE(s.evictions, 3998u);  // 4000 churn inserts, capacity 2
    EXPECT_GT(hot_hits.load() + 1, 0);
}

TEST(ResultCache, ConcurrentLookupsAndInsertsStayConsistent)
{
    ResultCache cache(16);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&cache, t] {
            for (int i = 0; i < 500; ++i) {
                std::string key =
                    "k" + std::to_string((t * 7 + i) % 32);
                if (auto hit = cache.lookup(key))
                    EXPECT_EQ(*hit, "v-" + key);
                else
                    cache.insert(key, "v-" + key);
            }
        });
    }
    for (std::thread& t : threads)
        t.join();

    ResultCacheStats s = cache.stats();
    EXPECT_LE(s.entries, 16u);
    EXPECT_EQ(s.hits + s.misses, 2000u);
}
