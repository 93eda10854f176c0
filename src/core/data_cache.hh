/**
 * @file
 * DataCache: the first-level data cache model at the heart of the
 * reproduction.
 *
 * Implements every policy combination the paper studies:
 *
 *  - write hits: write-through or write-back (Section 3);
 *  - write misses: fetch-on-write, write-validate, write-around, or
 *    write-invalidate (Section 4), with the paper's legality rules
 *    (no-write-allocate policies require write-through);
 *  - per-byte valid bits (write-validate sub-blocking) and per-byte
 *    dirty bits (Section 5.2 byte-level victim accounting);
 *  - direct-mapped or set-associative placement, with LRU, FIFO or
 *    random replacement;
 *  - flush() for flush-stop accounting vs. the default cold stop.
 *
 * Miss accounting follows Section 4's "eliminated miss" definitions
 * naturally: a miss is charged when and only when a line fetch is
 * actually required, so the deferred misses of the no-fetch policies
 * (a read touching invalid bytes, a read of around-written or
 * invalidated data) surface as ordinary read misses.
 */

#ifndef JCACHE_CORE_DATA_CACHE_HH
#define JCACHE_CORE_DATA_CACHE_HH

#include <vector>

#include "core/config.hh"
#include "core/geometry.hh"
#include "core/line.hh"
#include "mem/mem_level.hh"
#include "trace/record.hh"

namespace jcache::core
{

class VictimCache;

/**
 * Event counters for one DataCache.
 *
 * "Counted" misses equal lines fetched, matching the paper's metric:
 * under the no-fetch write-miss policies a write miss that never
 * forces a fetch is an eliminated miss and is not counted.
 */
struct CacheStats
{
    Count reads = 0;              //!< read accesses (per line piece)
    Count writes = 0;             //!< write accesses (per line piece)
    Count readHits = 0;
    Count writeHits = 0;

    Count readMisses = 0;         //!< reads that required a fetch
    Count partialValidReadMisses = 0; //!< subset: tag hit, bytes invalid
    Count writeMisses = 0;        //!< writes whose tag lookup missed
    Count writeMissFetches = 0;   //!< fetches caused by write misses
    Count linesFetched = 0;       //!< all line fetches from below

    Count writesToDirtyLines = 0; //!< writes hitting an already-dirty line
    Count writeThroughs = 0;      //!< writes passed to the next level
    Count invalidations = 0;      //!< lines killed by write-invalidate

    Count victims = 0;            //!< valid lines replaced (cold stop)
    Count dirtyVictims = 0;
    Count dirtyVictimDirtyBytes = 0;

    Count flushedValidLines = 0;  //!< valid lines drained by flush()
    Count flushedDirtyLines = 0;
    Count flushedDirtyBytes = 0;

    Count victimCacheHits = 0;    //!< misses satisfied by a victim cache
    Count lineAllocs = 0;         //!< allocateLine() instructions
    Count validateFallbacks = 0;  //!< write-validate misses fetched
                                  //!< because the write was narrower
                                  //!< than the valid-bit granularity

    /** Misses as the paper counts them: line fetches. */
    Count countedMisses() const { return linesFetched; }

    Count accesses() const { return reads + writes; }
};

/**
 * Trace-driven first-level data cache.
 */
class DataCache
{
  public:
    /**
     * @param config cache configuration; validated on construction.
     * @param next   next lower level of the hierarchy (not owned; must
     *               outlive the cache).
     */
    DataCache(const CacheConfig& config, mem::MemLevel& next);

    /** Apply one data read of `size` bytes at `addr`. */
    void read(Addr addr, unsigned size);

    /** Apply one data write of `size` bytes at `addr`. */
    void write(Addr addr, unsigned size);

    /** Dispatch a trace record to read()/write(). */
    void access(const trace::TraceRecord& record);

    /**
     * Execute a cache-line allocation instruction (paper Section 4;
     * the 801 [12], MultiTitan [9] and PA-RISC [4] provided these):
     * install addr's line fully valid without fetching its memory
     * contents.  Software guarantees the whole line will be written
     * before any read — the simulator trusts that contract, as the
     * hardware does.  The line is marked fully dirty in a write-back
     * cache (its contents must eventually be written back).
     */
    void allocateLine(Addr addr);

    /**
     * Drain all dirty lines to the next level (flush-stop accounting,
     * Section 5).  Lines become clean but stay valid.
     */
    void flush();

    /** Invalidate every line and zero the statistics. */
    void reset();

    /**
     * Attach a victim cache (extension per Jouppi [10]): victims are
     * inserted into it and genuine misses probe it before fetching.
     * The victim cache's line size must match; it must outlive the
     * data cache.  Pass nullptr to detach.
     */
    void attachVictimCache(VictimCache* victim_cache);

    const CacheStats& stats() const { return stats_; }
    const CacheConfig& config() const { return config_; }
    const CacheGeometry& geometry() const { return geom_; }

    /** @name Introspection for tests. */
    /// @{
    /** Is the line containing addr present (tag match, any valid)? */
    bool contains(Addr addr) const;

    /** Valid mask of the line containing addr (0 if absent). */
    ByteMask validMask(Addr addr) const;

    /** Dirty mask of the line containing addr (0 if absent). */
    ByteMask dirtyMask(Addr addr) const;

    /** Number of lines currently valid. */
    Count validLineCount() const;

    /** Number of lines currently dirty. */
    Count dirtyLineCount() const;
    /// @}

  private:
    /** Find the way holding addr's line, or nullptr. */
    CacheLine* lookup(Addr addr);
    const CacheLine* lookup(Addr addr) const;

    /** Pick the victim way in addr's set (invalid first, then LRU). */
    CacheLine& victimWay(Addr addr);

    /**
     * Retire a valid line: account victim statistics and write back
     * dirty bytes.  The caller overwrites the line afterwards.
     */
    void evict(CacheLine& line, std::uint64_t set);

    void readPiece(Addr addr, unsigned size);
    void writePiece(Addr addr, unsigned size);

    /**
     * Retire `way` (victim statistics, write-back or victim-cache
     * insertion) and probe an attached victim cache for addr's line;
     * on a hit, install it into `way` with no fetch from below.  The
     * probe logically precedes the victim insertion, as in hardware.
     *
     * @return true if the line was recovered from the victim cache.
     */
    bool evictAndFillFromVictimCache(Addr addr, CacheLine& way);

    /** Split an access at line boundaries and apply `piece` to each. */
    template <typename Piece>
    void forEachPiece(Addr addr, unsigned size, Piece piece);

    CacheConfig config_;
    CacheGeometry geom_;
    mem::MemLevel& next_;
    VictimCache* victimCache_ = nullptr;
    std::vector<CacheLine> lines_;
    CacheStats stats_;
    Count accessCounter_ = 0;
    bool isWriteBack_;
    ByteMask fullMask_;
    std::uint64_t rngState_ = 0x9e3779b97f4a7c15ull;
};

} // namespace jcache::core

#endif // JCACHE_CORE_DATA_CACHE_HH
