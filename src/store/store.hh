/**
 * @file
 * The persistent, content-addressed result store.
 *
 * The in-memory ResultCache dies with the daemon; this store is the
 * disk tier underneath it, shared across restarts and across every
 * tool that derives the same result keys (store/key.hh).  It is,
 * quite literally, a cache of simulation results — so its design
 * borrows the paper's write-policy framing:
 *
 *  - **Each put writes one blob, and nothing else.**  A put() writes
 *    its blob atomically (util/fs.hh: unique temporary + fsync +
 *    rename).  The in-memory index is rebuilt from a scan of the
 *    blobs at every open, so no index file is ever written.
 *  - **Eviction is size-capped LRU**, with recency seeded from file
 *    mtimes at open.
 *  - **Torn writes are expected, typed and tolerated.**  Every blob
 *    carries a header with its payload size and content digest; a
 *    torn blob (injectable via the `store.blob.torn` fault site)
 *    raises CorruptStoreError internally, is counted, dropped and
 *    deleted — the store always opens.
 *
 * On-disk layout (docs/STORAGE.md):
 *
 *     <dir>/objects/<digest>.jcr   one blob per result key
 *     <dir>/lock                   cross-process mutation flock
 *
 * Thread-safe: one mutex serializes get/put/eviction, so concurrent
 * connection handlers and sweep workers may share an instance.
 * Cross-process safe: processes pointed at one directory take an
 * advisory flock on `<dir>/lock` around mutations (put + eviction,
 * and the open-time sweep of stale temporaries), and a blob evicted
 * by a peer surfaces as a plain miss on lookup, never as corruption.
 */

#ifndef JCACHE_STORE_STORE_HH
#define JCACHE_STORE_STORE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "util/logging.hh"

namespace jcache::store
{

/**
 * Thrown (and caught internally) for any on-disk entry that is not a
 * well-formed store artifact: bad magic, version or size, or a
 * payload whose digest does not match its header.  A
 * subtype of FatalError; it never escapes the public store API —
 * corrupt entries surface as misses plus a `torn` counter, because a
 * cache must degrade, not fail.
 */
class CorruptStoreError : public FatalError
{
  public:
    explicit CorruptStoreError(const std::string& what)
        : FatalError(what)
    {}
};

/** Tunables of one ResultStore. */
struct StoreConfig
{
    /** Root directory; created (with parents) on open. */
    std::string dir;

    /**
     * Byte cap over all resident blobs; exceeding it evicts the least
     * recently used blobs until back under.  0 means unbounded.
     */
    std::uint64_t capBytes = 256ull << 20;
};

/** Point-in-time counters and occupancy of one store. */
struct StoreStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    /** Total blob bytes written by put() since open. */
    std::uint64_t putBytes = 0;

    /** Torn/corrupt blobs dropped (at open or on lookup). */
    std::uint64_t tornBlobs = 0;

    /** Puts whose blob could not be written (put() threw FsError). */
    std::uint64_t putFailures = 0;

    /** Blobs currently resident. */
    std::size_t entries = 0;

    /** Bytes currently resident. */
    std::uint64_t occupancyBytes = 0;

    /** Configured cap (0 = unbounded). */
    std::uint64_t capBytes = 0;

    /** hits / (hits + misses); 0 before any lookup. */
    double hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/**
 * A content-addressed map from result digest to payload bytes,
 * persistent under StoreConfig::dir.
 */
class ResultStore
{
  public:
    /**
     * Open (or create) the store: make the directories, then, holding
     * `<dir>/lock`, sweep stale `*.tmp` files and a leftover
     * `index.jci`, and scan `objects/` rebuilding the in-memory index
     * (torn blobs are dropped and counted).  Throws FsError when the
     * directory cannot be created at all.
     */
    explicit ResultStore(const StoreConfig& config);

    ResultStore(const ResultStore&) = delete;
    ResultStore& operator=(const ResultStore&) = delete;

    /**
     * Fetch a payload by digest, refreshing its recency.  A resident
     * blob that fails validation (torn write that survived a crash)
     * is dropped, deleted and reported as a miss.
     */
    std::optional<std::string> get(const std::string& digest);

    /**
     * Store a payload under its digest: write the blob atomically,
     * account it, and evict LRU blobs while over the byte cap.  A
     * payload larger than the whole cap is not stored.  Re-putting
     * an existing digest refreshes it.  A blob that cannot be
     * written (full disk, a removed `objects/`) leaves the store as
     * it was, counts in StoreStats::putFailures and rethrows the
     * FsError.
     *
     * Fault sites: `store.put.crash` SIGKILLs mid-put (after the
     * temporary file, before the rename) — the crash-recovery
     * deterministic death; `store.blob.torn` makes the visible blob
     * a torn prefix (see util/fs.hh).
     */
    void put(const std::string& digest, const std::string& payload);

    /** True when `digest` is resident; does not touch recency. */
    bool contains(const std::string& digest) const;

    /** Counters and occupancy snapshot under the store mutex. */
    StoreStats stats() const;

    /** The configuration the store was opened with. */
    const StoreConfig& config() const { return config_; }

  private:
    struct Entry
    {
        std::uint64_t bytes = 0;

        /** Logical recency tick; larger = more recent. */
        std::uint64_t lastUse = 0;
    };

    std::string blobPath(const std::string& digest) const;

    /** The `<dir>/lock` flock file guarding cross-process mutation. */
    std::string lockPath() const;

    /**
     * Under `<dir>/lock`: sweep stale temporaries and a leftover
     * index file, scan objects/, validate headers, seed recency from
     * mtime.
     */
    void openScan();

    /** Evict least recently used entries until occupancy fits. */
    void evictToFit();

    StoreConfig config_;

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
    std::uint64_t occupancy_ = 0;
    std::uint64_t tick_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t putBytes_ = 0;
    std::uint64_t tornBlobs_ = 0;
    std::uint64_t putFailures_ = 0;
};

} // namespace jcache::store

#endif // JCACHE_STORE_STORE_HH
