/**
 * @file
 * Implementation of the one-pass multi-configuration engine.
 *
 * Every lane replay mirrors DataCache::readPiece / writePiece /
 * victimWay / evict / flush counter for counter; any change to those
 * must be reflected here (the differential test will catch a
 * divergence).
 *
 * Every lane keeps its state in one FastLane, and two kernels replay
 * it, both fed by the same per-line-size piece decode:
 *
 *  - The direct-mapped kernels, for byte-granular direct-mapped lanes
 *    (fastLaneEligible()):
 *    - applyPiece() — the scalar reference kernel, one lane at a time.
 *    - replayTileAvx2() — four lanes of one policy group at once: the
 *      tag compare, valid-mask test and hot counter increments run as
 *      256-bit vector operations (tags gathered from the four lanes'
 *      SoA arrays with 64-bit gathers), and any lane that falls off
 *      the all-hit fast path is handed to applyPiece() for that one
 *      access.
 *  - FastLane::replaySet() — the set kernel, scalar, for every other
 *    lane: any associativity under LRU, FIFO or random replacement,
 *    and any valid-bit granularity.
 *
 * A write-through lane whose writeBackTwin() is in the pass gets no
 * FastLane: writeThroughFromTwin() derives its result from the twin's
 * and from the written bytes that the walk sums.
 *
 * Byte identity between the two direct-mapped paths is structural:
 * the vector path only ever (a) performs the exact state updates the
 * scalar kernel would and (b) accumulates the same counter increments
 * in a different order, and counter accumulation is integer addition,
 * which is associative and commutative.  tests/test_simd.cc and the
 * engine differential suite verify the equivalence on adversarial
 * traces, and hold the set kernel to DataCache over an associativity,
 * replacement and granularity grid.
 */

#include "sim/multiconfig.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/geometry.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace_writer.hh"
#include "util/bitops.hh"
#include "util/simd.hh"

namespace jcache::sim
{

namespace
{

using core::ReplacementPolicy;
using core::WriteMissPolicy;

/** Sentinel "no line here" tag; also doubles as the invalid state. */
constexpr Addr kNoTag = ~Addr{0};

/** Accumulated back-side traffic of one class, lane-local. */
struct Traffic
{
    Count txns = 0;
    Count bytes = 0;

    mem::TrafficClass toClass() const
    {
        mem::TrafficClass c;
        c.transactions = txns;
        c.bytes = bytes;
        return c;
    }
};

/** One line-aligned piece of a decoded trace record. */
struct Piece
{
    Addr la;             //!< line address (addr >> lineShift)
    ByteMask mask;       //!< byte mask within the line
    std::uint32_t size;  //!< piece size in bytes
    std::uint32_t read;  //!< 1 = read, 0 = write
};

/**
 * Decode a block of records into line-aligned pieces for one line
 * size.  Shared by every fast lane with that line size.
 */
void
decodeBlock(const trace::TraceRecord* recs, std::size_t n,
            unsigned lineBytes, unsigned lineShift,
            std::vector<Piece>& out)
{
    out.clear();
    const Addr lm = lineBytes - 1;
    for (std::size_t k = 0; k < n; ++k) {
        const trace::TraceRecord& r = recs[k];
        Addr addr = r.addr;
        unsigned size = r.size;
        const std::uint32_t is_read =
            r.type == trace::RefType::Read ? 1 : 0;
        while (true) {
            unsigned off = static_cast<unsigned>(addr & lm);
            unsigned room = lineBytes - off;
            unsigned piece = size < room ? size : room;
            out.push_back(Piece{addr >> lineShift,
                                byteMaskFor(off, piece), piece,
                                is_read});
            size -= piece;
            if (size == 0)
                break;
            addr += piece;
        }
    }
}

/**
 * Counters one lane accumulates over one block, flushed into the
 * lane's persistent stats once per block.  Field names mirror the
 * CacheStats / traffic fields they feed.
 */
struct BlockCounters
{
    Count reads = 0, readHits = 0, readMisses = 0, partial = 0;
    Count writes = 0, writeHits = 0, writeMisses = 0;
    Count fetched = 0, wmFetch = 0, wtCount = 0, inval = 0;
    Count victims = 0, dirtyVictims = 0, dvBytes = 0;
    Count dirtyWrites = 0, fallbacks = 0;
    Count fetchTx = 0, fetchBytes = 0, wtTx = 0, wtBytes = 0;
    Count wbTx = 0, wbBytes = 0;
};

/** Raw SoA state of one fast lane, as the replay kernels see it. */
struct LaneView
{
    Addr* T;                //!< tag per line (kNoTag = empty)
    ByteMask* V;            //!< valid byte mask per line
    ByteMask* D;            //!< dirty byte mask per line
    std::uint64_t im;       //!< set index mask
    ByteMask full;          //!< full-line byte mask
    unsigned lineBytes;     //!< line size in bytes
};

/** Evict the line at `idx` (no-op when empty), as DataCache::evict. */
template <bool WB>
[[gnu::always_inline]] inline void
evictLine(const LaneView& s, BlockCounters& c, std::uint64_t idx)
{
    if (s.T[idx] == kNoTag)
        return;
    ++c.victims;
    if (WB && s.D[idx] != 0) {
        ++c.dirtyVictims;
        unsigned db = popcount(s.D[idx]);
        c.dvBytes += db;
        ++c.wbTx;
        c.wbBytes += db;
        s.D[idx] = 0;
    }
    s.T[idx] = kNoTag;
    s.V[idx] = 0;
}

/**
 * The scalar reference kernel, read half: apply one decoded read
 * piece to one lane.  Reads never consult the write-miss policy, so
 * the vector tiles' read fallback dispatches straight here with no
 * policy switch.
 */
template <bool WB>
[[gnu::always_inline]] inline void
applyRead(const LaneView& s, BlockCounters& c, const Piece& p)
{
    const Addr la = p.la;
    const ByteMask mask = p.mask;
    const std::uint64_t idx = la & s.im;
    Addr* const T = s.T;
    ByteMask* const V = s.V;
    ++c.reads;
    if (T[idx] == la && (V[idx] & mask) == mask) [[likely]] {
        ++c.readHits;
    } else if (T[idx] == la) {
        // Tag hit on invalid bytes: fetch fills the line.
        ++c.readMisses;
        ++c.partial;
        ++c.fetched;
        ++c.fetchTx;
        c.fetchBytes += s.lineBytes;
        V[idx] = s.full;
    } else {
        ++c.readMisses;
        evictLine<WB>(s, c, idx);
        ++c.fetched;
        ++c.fetchTx;
        c.fetchBytes += s.lineBytes;
        T[idx] = la;
        V[idx] = s.full;
        if (WB)
            s.D[idx] = 0;
    }
}

/** The scalar reference kernel, write half. */
template <bool WB, WriteMissPolicy MP>
[[gnu::always_inline]] inline void
applyWrite(const LaneView& s, BlockCounters& c, const Piece& p)
{
    const Addr la = p.la;
    const ByteMask mask = p.mask;
    const std::uint64_t idx = la & s.im;
    Addr* const T = s.T;
    ByteMask* const V = s.V;
    ByteMask* const D = s.D;
    ++c.writes;
    if (T[idx] == la) [[likely]] {
        ++c.writeHits;
        if (WB) {
            if (D[idx] != 0)
                ++c.dirtyWrites;
            D[idx] |= mask;
            V[idx] |= mask;
        } else {
            V[idx] |= mask;
            ++c.wtCount;
            ++c.wtTx;
            c.wtBytes += p.size;
        }
    } else {
        ++c.writeMisses;
        if (MP == WriteMissPolicy::FetchOnWrite) {
            evictLine<WB>(s, c, idx);
            ++c.fetched;
            ++c.wmFetch;
            ++c.fetchTx;
            c.fetchBytes += s.lineBytes;
            T[idx] = la;
            V[idx] = s.full;
            if (WB) {
                D[idx] = mask;
            } else {
                ++c.wtCount;
                ++c.wtTx;
                c.wtBytes += p.size;
            }
        } else if (MP == WriteMissPolicy::WriteValidate) {
            evictLine<WB>(s, c, idx);
            T[idx] = la;
            V[idx] = mask;
            if (WB) {
                D[idx] = mask;
            } else {
                ++c.wtCount;
                ++c.wtTx;
                c.wtBytes += p.size;
            }
        } else if (MP == WriteMissPolicy::WriteAround) {
            ++c.wtCount;
            ++c.wtTx;
            c.wtBytes += p.size;
        } else {  // WriteInvalidate (direct-mapped)
            ++c.wtCount;
            ++c.wtTx;
            c.wtBytes += p.size;
            if (T[idx] != kNoTag) {
                T[idx] = kNoTag;
                V[idx] = 0;
                if (WB)
                    D[idx] = 0;
                ++c.inval;
            }
        }
    }
}

/**
 * The scalar reference kernel: apply one decoded piece to one lane.
 * This is the single source of truth for fast-lane semantics; the
 * vector path delegates every non-fast-path access here.
 */
template <bool WB, WriteMissPolicy MP>
[[gnu::always_inline]] inline void
applyPiece(const LaneView& s, BlockCounters& c, const Piece& p)
{
    if (p.read)
        applyRead<WB>(s, c, p);
    else
        applyWrite<WB, MP>(s, c, p);
}

/**
 * applyWrite with the miss policy chosen at run time.  The vector
 * tiles group lanes by (line size, hit policy) only — the fast paths
 * they retire never consult the miss policy — so when a lane falls
 * off the fast path on a write its miss policy is dispatched here,
 * per access.  Write misses are the minority on every workload, so
 * the switch stays off the hot path.
 */
template <bool WB>
[[gnu::always_inline]] inline void
applyWriteDyn(WriteMissPolicy mp, const LaneView& s, BlockCounters& c,
              const Piece& p)
{
    switch (mp) {
      case WriteMissPolicy::FetchOnWrite:
        applyWrite<WB, WriteMissPolicy::FetchOnWrite>(s, c, p);
        break;
      case WriteMissPolicy::WriteValidate:
        applyWrite<WB, WriteMissPolicy::WriteValidate>(s, c, p);
        break;
      case WriteMissPolicy::WriteAround:
        applyWrite<WB, WriteMissPolicy::WriteAround>(s, c, p);
        break;
      case WriteMissPolicy::WriteInvalidate:
        applyWrite<WB, WriteMissPolicy::WriteInvalidate>(s, c, p);
        break;
    }
}

/**
 * The way of a set that holds line `la`, or -1.  At most one way can
 * (a line is filled only after its lookup missed), so a compile-time
 * way count W builds a match mask branch-free; W = 0 scans `ways`
 * ways at run time and stops at the match.
 */
template <unsigned W>
[[gnu::always_inline]] inline int
findWay(const Addr* set, unsigned ways, Addr la)
{
    if constexpr (W == 0) {
        for (unsigned w = 0; w < ways; ++w)
            if (set[w] == la)
                return static_cast<int>(w);
        return -1;
    } else {
        unsigned match = 0;
        for (unsigned w = 0; w < W; ++w)
            match |= static_cast<unsigned>(set[w] == la) << w;
        return match != 0 ? std::countr_zero(match) : -1;
    }
}

/**
 * The line a miss in the set at line index `base` fills, as
 * DataCache::victimWay picks it: the first empty way in physical
 * order; in a full set the lowest stamp (LRU: last use, FIFO:
 * insertion) or, under random replacement, way rng % ways after one
 * xorshift step.  The stamps of a full set are distinct (each stamp
 * is handed to one line), so the lowest one is found by a tree of
 * compares as surely as by a scan.
 */
template <ReplacementPolicy RP, unsigned W>
[[gnu::always_inline]] inline std::uint64_t
chooseVictim(const Addr* T, const Count* S, std::uint64_t base,
             unsigned ways, std::uint64_t& rng)
{
    if constexpr (W == 1) {
        return base;  // one candidate; the rng is never observable
    } else if constexpr (W == 0) {
        for (unsigned w = 0; w < ways; ++w)
            if (T[base + w] == kNoTag)
                return base + w;
    } else {
        unsigned empty = 0;
        for (unsigned w = 0; w < W; ++w)
            empty |= static_cast<unsigned>(T[base + w] == kNoTag) << w;
        if (empty != 0)
            return base + static_cast<unsigned>(std::countr_zero(empty));
    }
    if constexpr (RP == ReplacementPolicy::Random) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return base + rng % ways;
    } else if constexpr (W == 0) {
        std::uint64_t victim = base;
        for (unsigned w = 1; w < ways; ++w)
            if (S[base + w] < S[victim])
                victim = base + w;
        return victim;
    } else {
        unsigned way[W] = {};
        Count stamp[W] = {};
        for (unsigned w = 0; w < W; ++w) {
            way[w] = w;
            stamp[w] = S[base + w];
        }
        for (unsigned half = W / 2; half > 0; half /= 2)
            for (unsigned w = 0; w < half; ++w) {
                const bool older = stamp[w + half] < stamp[w];
                stamp[w] = older ? stamp[w + half] : stamp[w];
                way[w] = older ? way[w + half] : way[w];
            }
        return base + way[0];
    }
}

/**
 * One lane's live cache.
 *
 * Structure-of-arrays line state with a sentinel tag: tags, valid and
 * dirty byte masks per line, each set's ways adjacent in physical
 * order (way w of set s is line s * assoc + w, as in DataCache), plus
 * a per-line stamp when the replacement policy compares them (LRU,
 * FIFO) and the random policy's xorshift state.  Policy choices are
 * lifted to template parameters; counters accumulate in BlockCounters
 * and flush to members once per block.
 *
 * A direct-mapped, byte-granular lane replays on the direct-mapped
 * kernels through view(); every other lane replays on replaySet().
 */
class FastLane
{
  public:
    explicit FastLane(const core::CacheConfig& c) : config_(c)
    {
        core::CacheGeometry g(c);
        tags_.assign(g.numLines(), kNoTag);
        valid_.assign(g.numLines(), 0);
        dirty_.assign(g.numLines(), 0);
        if (c.assoc > 1 && c.replacement != ReplacementPolicy::Random)
            stamps_.assign(g.numLines(), 0);
        lineShift_ = 0;
        while ((1u << lineShift_) < c.lineBytes)
            ++lineShift_;
        wayShift_ = floorLog2(c.assoc);
        indexMask_ = g.numSets() - 1;
        fullMask_ = maskBits(c.lineBytes);
    }

    unsigned lineBytes() const { return config_.lineBytes; }
    unsigned lineShift() const { return lineShift_; }
    unsigned assoc() const { return config_.assoc; }
    ReplacementPolicy replacement() const { return config_.replacement; }

    /** Does this lane replay on the direct-mapped kernels? */
    bool directMapped() const { return fastLaneEligible(config_); }

    bool writeBack() const
    {
        return config_.hitPolicy == core::WriteHitPolicy::WriteBack;
    }

    WriteMissPolicy missPolicy() const { return config_.missPolicy; }

    /** This lane's state as the kernels address it. */
    LaneView view()
    {
        return LaneView{tags_.data(), valid_.data(), dirty_.data(),
                        indexMask_, fullMask_, config_.lineBytes};
    }

    /** Fold one block's counters into the persistent stats. */
    void absorb(const BlockCounters& c)
    {
        stats_.reads += c.reads;
        stats_.readHits += c.readHits;
        stats_.readMisses += c.readMisses;
        stats_.partialValidReadMisses += c.partial;
        stats_.writes += c.writes;
        stats_.writeHits += c.writeHits;
        stats_.writeMisses += c.writeMisses;
        stats_.linesFetched += c.fetched;
        stats_.writeMissFetches += c.wmFetch;
        stats_.writeThroughs += c.wtCount;
        stats_.invalidations += c.inval;
        stats_.victims += c.victims;
        stats_.dirtyVictims += c.dirtyVictims;
        stats_.dirtyVictimDirtyBytes += c.dvBytes;
        stats_.writesToDirtyLines += c.dirtyWrites;
        stats_.validateFallbacks += c.fallbacks;
        fetch_.txns += c.fetchTx;
        fetch_.bytes += c.fetchBytes;
        wt_.txns += c.wtTx;
        wt_.bytes += c.wtBytes;
        wb_.txns += c.wbTx;
        wb_.bytes += c.wbBytes;
    }

    /** Replay one decoded block through this lane, scalar. */
    template <bool WB, WriteMissPolicy MP>
    void replayScalar(const Piece* P, std::size_t n)
    {
        const LaneView s = view();
        BlockCounters c;
        for (std::size_t k = 0; k < n; ++k)
            applyPiece<WB, MP>(s, c, P[k]);
        absorb(c);
    }

    /**
     * Replay one decoded block through this lane on the set kernel.
     * W is the way count (1, 2, 4 or 8), or 0 to read it from the
     * config; RP is the replacement policy (ignored when W is 1).
     */
    template <bool WB, ReplacementPolicy RP, unsigned W>
    void replaySet(const Piece* P, std::size_t n);

    /**
     * Drain dirty lines, mirroring DataCache::flush(): every valid
     * line counts as flushed; dirty ones write their dirty bytes as
     * flush traffic and become clean but stay valid.
     */
    void flush()
    {
        const bool wb = writeBack();
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] == kNoTag)
                continue;
            ++stats_.flushedValidLines;
            if (wb && dirty_[i] != 0) {
                ++stats_.flushedDirtyLines;
                unsigned dirty_bytes = popcount(dirty_[i]);
                stats_.flushedDirtyBytes += dirty_bytes;
                ++flush_.txns;
                flush_.bytes += dirty_bytes;
                dirty_[i] = 0;
            }
        }
    }

    RunResult result(Count instructions) const
    {
        RunResult r;
        r.config = config_;
        r.cache = stats_;
        r.fetchTraffic = fetch_.toClass();
        r.writeThroughTraffic = wt_.toClass();
        r.writeBackTraffic = wb_.toClass();
        r.flushTraffic = flush_.toClass();
        r.instructions = instructions;
        return r;
    }

  private:
    core::CacheConfig config_;
    std::vector<Addr> tags_;
    std::vector<ByteMask> valid_;
    std::vector<ByteMask> dirty_;
    std::vector<Count> stamps_;  //!< LRU last use / FIFO insertion
    Count clock_ = 0;            //!< last stamp handed out
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;  //!< as DataCache
    unsigned lineShift_;
    unsigned wayShift_;
    std::uint64_t indexMask_;
    ByteMask fullMask_;
    core::CacheStats stats_;
    Traffic fetch_, wt_, wb_, flush_;
};

/**
 * The set kernel.  Stamps come from a lane clock that advances at
 * each stamp rather than at each access, which orders them exactly as
 * DataCache's access counter does.  The loop counts only hits,
 * misses, fetches and write-throughs; access totals and transaction
 * counts follow from those once per block.
 *
 * A last-line filter skips the way scan while consecutive pieces stay
 * on one line: after each piece that leaves its line resident it
 * remembers that line's index.  Only a fill in its set (which is a
 * different piece's, and so re-aims the filter) or a write-invalidate
 * (which clears it) can move that line; write-around leaves the cache
 * and the filter alone.
 */
template <bool WB, ReplacementPolicy RP, unsigned W>
void
FastLane::replaySet(const Piece* P, std::size_t n)
{
    constexpr bool kStampHits = W != 1 && RP == ReplacementPolicy::Lru;
    constexpr bool kStampFills = W != 1 && RP != ReplacementPolicy::Random;
    const LaneView s = view();
    Addr* const T = s.T;
    ByteMask* const V = s.V;
    ByteMask* const D = s.D;
    Count* const S = stamps_.data();
    const unsigned ways = W != 0 ? W : config_.assoc;
    const unsigned way_shift = wayShift_;
    const WriteMissPolicy mp = config_.missPolicy;
    const unsigned grain = config_.validGranularity - 1;
    Count clock = clock_;
    std::uint64_t rng = rng_;
    BlockCounters c;

    // Evict the victim of a miss on `la` in the set at `base`, then
    // install `la` there with valid bytes `valid`.  Forced inline: it
    // runs on every miss, and GCC's size budget for this file would
    // otherwise leave it a call in some instantiations.
    auto fill = [&](std::uint64_t base, Addr la, ByteMask valid)
                    __attribute__((always_inline)) {
        const std::uint64_t idx =
            chooseVictim<RP, W>(T, S, base, ways, rng);
        evictLine<WB>(s, c, idx);
        T[idx] = la;
        V[idx] = valid;
        if (kStampFills)
            S[idx] = ++clock;
        return idx;
    };

    Addr last_la = kNoTag;
    std::uint64_t last_idx = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const Piece& p = P[k];
        const Addr la = p.la;
        const ByteMask mask = p.mask;
        const std::uint64_t base = (la & s.im) << way_shift;
        bool hit = la == last_la;
        std::uint64_t idx = last_idx;  // meaningful on a hit only
        if (!hit) {
            const int way = findWay<W>(T + base, ways, la);
            hit = way >= 0;
            idx = base + static_cast<unsigned>(way);
        }

        if (p.read) {
            if (hit) {
                if (kStampHits)
                    S[idx] = ++clock;
                if ((V[idx] & mask) == mask) [[likely]] {
                    ++c.readHits;
                } else {
                    // Tag hit on invalid bytes: fetch fills the line.
                    ++c.readMisses;
                    ++c.partial;
                    ++c.fetched;
                    V[idx] = s.full;
                }
            } else {
                ++c.readMisses;
                ++c.fetched;
                idx = fill(base, la, s.full);
                if (WB)
                    D[idx] = 0;
            }
        } else if (hit) {
            ++c.writeHits;
            if (kStampHits)
                S[idx] = ++clock;
            if (WB) {
                c.dirtyWrites += D[idx] != 0;
                D[idx] |= mask;
            } else {
                ++c.wtCount;
                c.wtBytes += p.size;
            }
            V[idx] |= mask;
        } else {
            ++c.writeMisses;
            if (!WB) {
                ++c.wtCount;
                c.wtBytes += p.size;
            }
            switch (mp) {
              case WriteMissPolicy::WriteValidate:
                if (((static_cast<unsigned>(std::countr_zero(mask)) |
                      p.size) & grain) == 0) {
                    idx = fill(base, la, mask);
                    if (WB)
                        D[idx] = mask;
                    break;
                }
                // Narrower than the valid-bit granularity: fetch.
                ++c.fallbacks;
                [[fallthrough]];
              case WriteMissPolicy::FetchOnWrite:
                ++c.fetched;
                ++c.wmFetch;
                idx = fill(base, la, s.full);
                if (WB)
                    D[idx] = mask;
                break;
              case WriteMissPolicy::WriteAround:
                continue;
              case WriteMissPolicy::WriteInvalidate:
                // Write-through only, so the killed line is clean.
                if (ways == 1 && T[base] != kNoTag) {
                    T[base] = kNoTag;
                    V[base] = 0;
                    ++c.inval;
                    if (last_idx == base)
                        last_la = kNoTag;
                }
                continue;
            }
        }
        last_la = la;
        last_idx = idx;
    }
    c.reads = c.readHits + c.readMisses;
    c.writes = c.writeHits + c.writeMisses;
    c.fetchTx = c.fetched;
    c.fetchBytes = c.fetched * s.lineBytes;
    c.wtTx = c.wtCount;
    clock_ = clock;
    rng_ = rng;
    absorb(c);
}

#if JCACHE_SIMD_AVX2

/** Store a 64-bit-per-lane vector into a 32-byte-aligned array. */
JCACHE_TARGET_AVX2 inline void
storeLanes(std::uint64_t out[4], __m256i v)
{
    _mm256_store_si256(reinterpret_cast<__m256i*>(out), v);
}

/** A pointer as a 64-bit gather "index" (absolute address, scale 1). */
inline long long
gatherAddr(const void* p)
{
    return static_cast<long long>(reinterpret_cast<std::uintptr_t>(p));
}

/**
 * Replay one decoded block through four lanes of one hit-policy group
 * at once.
 *
 * Per piece, the four tags (and, when needed, valid and dirty masks)
 * are fetched with one 64-bit gather, using absolute addresses as
 * gather indices so the lanes may have different array bases and
 * different index masks (different cache sizes).  Lanes on the common
 * fast paths — a full read hit, or a write tag hit — are retired
 * entirely with vector compare/accumulate (plus a scalar mask store
 * for write hits); each remaining lane falls back to the scalar
 * reference kernel for that one access, with its own miss policy
 * dispatched at run time (the fast paths never consult it).  Counters
 * meet in BlockCounters either way, so regrouping cannot change
 * results.
 *
 * The fast paths increment several counters by the same amount — a
 * full read hit bumps reads and readHits together; a write-through
 * tag hit bumps writes, writeHits, writeThroughs and write-through
 * transactions together — so each path keeps one accumulator vector
 * and fans it out into BlockCounters once per block.
 */
template <bool WB>
JCACHE_TARGET_AVX2 void
replayTileAvx2(FastLane* const* lanes, const Piece* P, std::size_t n)
{
    constexpr unsigned NL = simd::kLanesPerVector;
    LaneView s[NL];
    BlockCounters c[NL];
    WriteMissPolicy mp[NL];
    for (unsigned i = 0; i < NL; ++i) {
        s[i] = lanes[i]->view();
        mp[i] = lanes[i]->missPolicy();
    }

    const auto* base0 = static_cast<const long long*>(nullptr);
    const __m256i tbase =
        _mm256_set_epi64x(gatherAddr(s[3].T), gatherAddr(s[2].T),
                          gatherAddr(s[1].T), gatherAddr(s[0].T));
    const __m256i vbase =
        _mm256_set_epi64x(gatherAddr(s[3].V), gatherAddr(s[2].V),
                          gatherAddr(s[1].V), gatherAddr(s[0].V));
    const __m256i dbase =
        _mm256_set_epi64x(gatherAddr(s[3].D), gatherAddr(s[2].D),
                          gatherAddr(s[1].D), gatherAddr(s[0].D));
    const __m256i im_v = _mm256_set_epi64x(
        static_cast<long long>(s[3].im), static_cast<long long>(s[2].im),
        static_cast<long long>(s[1].im), static_cast<long long>(s[0].im));
    const __m256i ones = _mm256_set1_epi64x(1);
    const __m256i zero = _mm256_setzero_si256();

    // One accumulator per fast path (see the function comment), plus
    // the path-specific extra: dirty-write hits (WB) or the summed
    // write-through bytes (WT).
    __m256i read_full_v = zero, write_hit_v = zero, extra_v = zero;

    // Single-entry line cache over the gathered state.  A read that
    // fully hits every lane changes no state, so while consecutive
    // reads stay on one line address the gathered tag/valid vectors
    // are still exact and the gathers (and index math) can be
    // skipped — the common case for stride-1 walks, where every line
    // is read piece by piece.  Any write or any scalar fallback may
    // mutate lane state, so either invalidates the entry.
    Addr cached_la = 0;
    bool cache_ok = false;
    __m256i cached_hit = zero, cached_valid = zero;

    for (std::size_t k = 0; k < n; ++k) {
        const Piece p = P[k];

        if (p.read && cache_ok && p.la == cached_la) {
            const __m256i m_v =
                _mm256_set1_epi64x(static_cast<long long>(p.mask));
            const __m256i vok = _mm256_cmpeq_epi64(
                _mm256_and_si256(cached_valid, m_v), m_v);
            const __m256i full_hit = _mm256_and_si256(cached_hit, vok);
            const int fm =
                _mm256_movemask_pd(_mm256_castsi256_pd(full_hit));
            read_full_v = _mm256_add_epi64(
                read_full_v, _mm256_and_si256(full_hit, ones));
            if (fm != 0xf) {
                cache_ok = false;
                for (unsigned i = 0; i < NL; ++i)
                    if (!(fm & (1u << i)))
                        applyRead<WB>(s[i], c[i], p);
            }
            continue;
        }

        const __m256i la_v =
            _mm256_set1_epi64x(static_cast<long long>(p.la));
        const __m256i idx = _mm256_and_si256(la_v, im_v);
        const __m256i bofs = _mm256_slli_epi64(idx, 3);
        const __m256i tags = _mm256_i64gather_epi64(
            base0, _mm256_add_epi64(tbase, bofs), 1);
        const __m256i tag_hit = _mm256_cmpeq_epi64(tags, la_v);
        const int hm = _mm256_movemask_pd(_mm256_castsi256_pd(tag_hit));

        if (p.read) {
            int fm = 0;
            if (hm != 0) {
                const __m256i m_v =
                    _mm256_set1_epi64x(static_cast<long long>(p.mask));
                const __m256i valid = _mm256_i64gather_epi64(
                    base0, _mm256_add_epi64(vbase, bofs), 1);
                cached_hit = tag_hit;
                cached_valid = valid;
                const __m256i vok = _mm256_cmpeq_epi64(
                    _mm256_and_si256(valid, m_v), m_v);
                const __m256i full_hit = _mm256_and_si256(tag_hit, vok);
                fm = _mm256_movemask_pd(_mm256_castsi256_pd(full_hit));
                read_full_v = _mm256_add_epi64(
                    read_full_v, _mm256_and_si256(full_hit, ones));
            }
            if (fm != 0xf)
                for (unsigned i = 0; i < NL; ++i)
                    if (!(fm & (1u << i)))
                        applyRead<WB>(s[i], c[i], p);
            cached_la = p.la;
            cache_ok = fm == 0xf;
        } else {
            cache_ok = false;
            if (hm != 0) {
                write_hit_v = _mm256_add_epi64(
                    write_hit_v, _mm256_and_si256(tag_hit, ones));
                alignas(32) std::uint64_t idxs[NL];
                storeLanes(idxs, idx);
                // Branchless mask update: per lane, OR in the piece
                // mask gated by that lane's hit mask (all-ones or
                // zero) — OR-ing zero into the line a missing lane
                // indexes is a no-op.
                alignas(32) std::uint64_t gate[NL];
                storeLanes(gate, tag_hit);
                if (WB) {
                    const __m256i dirty = _mm256_i64gather_epi64(
                        base0, _mm256_add_epi64(dbase, bofs), 1);
                    const __m256i dz = _mm256_cmpeq_epi64(dirty, zero);
                    const __m256i dirty_hit =
                        _mm256_andnot_si256(dz, tag_hit);
                    extra_v = _mm256_add_epi64(
                        extra_v, _mm256_and_si256(dirty_hit, ones));
                    for (unsigned i = 0; i < NL; ++i) {
                        const ByteMask gm = p.mask & gate[i];
                        s[i].D[idxs[i]] |= gm;
                        s[i].V[idxs[i]] |= gm;
                    }
                } else {
                    extra_v = _mm256_add_epi64(
                        extra_v,
                        _mm256_and_si256(
                            tag_hit, _mm256_set1_epi64x(
                                         static_cast<long long>(p.size))));
                    for (unsigned i = 0; i < NL; ++i)
                        s[i].V[idxs[i]] |= p.mask & gate[i];
                }
            }
            if (hm != 0xf)
                for (unsigned i = 0; i < NL; ++i)
                    if (!(hm & (1u << i)))
                        applyWriteDyn<WB>(mp[i], s[i], c[i], p);
        }
    }

    alignas(32) std::uint64_t t[NL];
    storeLanes(t, read_full_v);
    for (unsigned i = 0; i < NL; ++i) {
        c[i].reads += t[i];
        c[i].readHits += t[i];
    }
    storeLanes(t, write_hit_v);
    for (unsigned i = 0; i < NL; ++i) {
        c[i].writes += t[i];
        c[i].writeHits += t[i];
        if (!WB) {
            c[i].wtCount += t[i];
            c[i].wtTx += t[i];
        }
    }
    storeLanes(t, extra_v);
    for (unsigned i = 0; i < NL; ++i) {
        if (WB)
            c[i].dirtyWrites += t[i];
        else
            c[i].wtBytes += t[i];
    }
    for (unsigned i = 0; i < NL; ++i)
        lanes[i]->absorb(c[i]);
}

#endif // JCACHE_SIMD_AVX2

/** One lane's scalar block replay, miss policy chosen once here. */
template <bool WB>
void
replayScalarLane(FastLane* lane, const Piece* P, std::size_t n)
{
    switch (lane->missPolicy()) {
      case WriteMissPolicy::FetchOnWrite:
        lane->replayScalar<WB, WriteMissPolicy::FetchOnWrite>(P, n);
        break;
      case WriteMissPolicy::WriteValidate:
        lane->replayScalar<WB, WriteMissPolicy::WriteValidate>(P, n);
        break;
      case WriteMissPolicy::WriteAround:
        lane->replayScalar<WB, WriteMissPolicy::WriteAround>(P, n);
        break;
      case WriteMissPolicy::WriteInvalidate:
        lane->replayScalar<WB, WriteMissPolicy::WriteInvalidate>(P, n);
        break;
    }
}

/**
 * Replay one decoded block through every lane of one hit-policy
 * group: vector tiles of four lanes when AVX2 is available, the
 * scalar kernel for the remainder (and for everything when it is
 * not).
 */
template <bool WB>
void
replayGroupT(const std::vector<FastLane*>& lanes, const Piece* P,
             std::size_t n)
{
    std::size_t i = 0;
#if JCACHE_SIMD_AVX2
    if (simd::avx2Enabled()) {
        for (; i + simd::kLanesPerVector <= lanes.size();
             i += simd::kLanesPerVector)
            replayTileAvx2<WB>(&lanes[i], P, n);
    }
#endif
    for (; i < lanes.size(); ++i)
        replayScalarLane<WB>(lanes[i], P, n);
}

/** Dispatch one hit-policy group's block replay to its template. */
void
replayGroup(bool wb, const std::vector<FastLane*>& lanes,
            const Piece* P, std::size_t n)
{
    wb ? replayGroupT<true>(lanes, P, n)
       : replayGroupT<false>(lanes, P, n);
}

/** One set lane's block replay at a compile-time way count. */
template <bool WB, ReplacementPolicy RP>
void
replaySetWays(FastLane* lane, const Piece* P, std::size_t n)
{
    switch (lane->assoc()) {
      case 2:
        lane->replaySet<WB, RP, 2>(P, n);
        break;
      case 4:
        lane->replaySet<WB, RP, 4>(P, n);
        break;
      case 8:
        lane->replaySet<WB, RP, 8>(P, n);
        break;
      default:
        lane->replaySet<WB, RP, 0>(P, n);
        break;
    }
}

/**
 * One lane's block replay on the set kernel, way count and
 * replacement policy chosen once here.
 */
template <bool WB>
void
replaySetLane(FastLane* lane, const Piece* P, std::size_t n)
{
    if (lane->assoc() == 1) {
        lane->replaySet<WB, ReplacementPolicy::Lru, 1>(P, n);
        return;
    }
    switch (lane->replacement()) {
      case ReplacementPolicy::Lru:
        replaySetWays<WB, ReplacementPolicy::Lru>(lane, P, n);
        break;
      case ReplacementPolicy::Fifo:
        replaySetWays<WB, ReplacementPolicy::Fifo>(lane, P, n);
        break;
      case ReplacementPolicy::Random:
        replaySetWays<WB, ReplacementPolicy::Random>(lane, P, n);
        break;
    }
}

/**
 * Lanes sharing one line size: direct-mapped lanes split by hit
 * policy for the vector tiles, and the set kernel's lanes.
 */
struct DecodeGroup
{
    unsigned lineShift = 0;
    std::vector<Piece> pieces;

    /** Write-back lanes and write-through lanes, tiled separately. */
    std::vector<FastLane*> wbLanes;
    std::vector<FastLane*> wtLanes;
    std::vector<FastLane*> setLanes;

    void add(FastLane* lane)
    {
        if (!lane->directMapped())
            setLanes.push_back(lane);
        else
            (lane->writeBack() ? wbLanes : wtLanes).push_back(lane);
    }
};

/**
 * A write-through lane's result, from its write-back twin's (see
 * writeBackTwin()): the same lines, misses and victims, with every
 * write passed through and nothing dirty.  `writtenBytes` sums the
 * pass's write records, whose pieces are the twin's writes.
 */
RunResult
writeThroughFromTwin(const RunResult& twin, const core::CacheConfig& config,
                     Count writtenBytes)
{
    RunResult r = twin;
    r.config = config;
    r.cache.writeThroughs = r.cache.writes;
    r.cache.writesToDirtyLines = 0;
    r.cache.dirtyVictims = 0;
    r.cache.dirtyVictimDirtyBytes = 0;
    r.cache.flushedDirtyLines = 0;
    r.cache.flushedDirtyBytes = 0;
    r.writeThroughTraffic.transactions = r.cache.writes;
    r.writeThroughTraffic.bytes = writtenBytes;
    r.writeBackTraffic = {};
    r.flushTraffic = {};
    return r;
}

} // namespace

bool
fastLaneEligible(const core::CacheConfig& config)
{
    return config.assoc == 1 && config.validGranularity == 1;
}

std::optional<LaneSpec>
writeBackTwin(const LaneSpec& lane)
{
    const core::CacheConfig& c = lane.config;
    if (c.hitPolicy != core::WriteHitPolicy::WriteThrough ||
        (c.missPolicy != WriteMissPolicy::FetchOnWrite &&
         c.missPolicy != WriteMissPolicy::WriteValidate))
        return std::nullopt;
    LaneSpec twin = lane;
    twin.config.hitPolicy = core::WriteHitPolicy::WriteBack;
    return twin;
}

std::vector<RunResult>
runTracePass(const trace::ReplaySource& source,
             const std::vector<LaneSpec>& lanes,
             std::size_t blockRecords)
{
    telemetry::Span span("sweep.trace_pass", "sim");
    span.arg("trace", source.name());
    span.arg("lanes", std::to_string(lanes.size()));

    // A lane whose write-back twin is in this pass is answered from
    // the twin's replay: answeredBy[i] is that twin, or i itself.
    std::vector<std::size_t> answeredBy(lanes.size());
    std::size_t derived = 0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        lanes[i].config.validate();
        answeredBy[i] = i;
        if (std::optional<LaneSpec> twin = writeBackTwin(lanes[i])) {
            auto it = std::find(lanes.begin(), lanes.end(), *twin);
            if (it != lanes.end()) {
                answeredBy[i] = static_cast<std::size_t>(it - lanes.begin());
                ++derived;
            }
        }
    }
    span.arg("derived", std::to_string(derived));

    // Lanes sharing a line size share one decode of each block;
    // within a line size, direct-mapped lanes of one hit policy replay
    // together so the vector tiles agree on what a write hit does (the
    // miss policy is per-lane, consulted only off the fast path).
    std::vector<std::unique_ptr<FastLane>> state(lanes.size());
    std::map<unsigned, DecodeGroup> groups;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        if (answeredBy[i] != i)
            continue;
        const core::CacheConfig& config = lanes[i].config;
        state[i] = std::make_unique<FastLane>(config);
        DecodeGroup& group = groups[config.lineBytes];
        group.lineShift = state[i]->lineShift();
        group.pieces.reserve(blockRecords == 0 ? 2 : blockRecords * 2);
        group.add(state[i].get());
    }

    Count instructions = 0;
    Count written_bytes = 0;  // what a derived lane writes through
    Count block_count = 0;
    std::unique_ptr<trace::BlockCursor> cursor =
        source.blocks(blockRecords);
    trace::TraceBlock block;
    while (cursor->next(block)) {
        ++block_count;
        for (std::size_t k = 0; k < block.count; ++k) {
            const trace::TraceRecord& r = block.records[k];
            instructions += r.instrDelta;
            written_bytes += r.type == trace::RefType::Read ? 0 : r.size;
        }
        auto decodeAll = [&] {
            for (auto& [line_bytes, group] : groups)
                decodeBlock(block.records, block.count, line_bytes,
                            group.lineShift, group.pieces);
        };
        if (telemetry::tracing()) {
            telemetry::Span decode("sweep.block_decode", "sim");
            decode.arg("records", std::to_string(block.count));
            decode.arg("line_sizes", std::to_string(groups.size()));
            decodeAll();
        } else {
            decodeAll();
        }
        for (auto& [line_bytes, group] : groups) {
            const Piece* P = group.pieces.data();
            const std::size_t n = group.pieces.size();
            if (!group.wbLanes.empty())
                replayGroup(true, group.wbLanes, P, n);
            if (!group.wtLanes.empty())
                replayGroup(false, group.wtLanes, P, n);
            for (FastLane* lane : group.setLanes)
                lane->writeBack() ? replaySetLane<true>(lane, P, n)
                                  : replaySetLane<false>(lane, P, n);
        }
    }

    std::vector<RunResult> results(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        if (!state[i])
            continue;
        if (lanes[i].flushAtEnd)
            state[i]->flush();
        results[i] = state[i]->result(instructions);
    }
    for (std::size_t i = 0; i < lanes.size(); ++i)
        if (answeredBy[i] != i)
            results[i] = writeThroughFromTwin(results[answeredBy[i]],
                                              lanes[i].config,
                                              written_bytes);

    if (telemetry::armed()) {
        auto& reg = telemetry::Registry::instance();
        static telemetry::Counter& records = reg.counter(
            "jcache_engine_records_total",
            "Trace records decoded by the one-pass engine");
        static telemetry::Counter& blocks = reg.counter(
            "jcache_engine_blocks_total",
            "Trace blocks walked by the one-pass engine");
        records.inc(source.records());
        blocks.inc(block_count);

        // Lanes by the kernel that replayed them: the vector tiles
        // take whole tiles of each hit-policy group, the scalar
        // direct-mapped kernel the rest of it.  Derived lanes
        // replayed nothing.
        const char* help = "Lanes of one-pass engine passes, by the "
                           "kernel that replayed them, or derived";
        static telemetry::Counter& avx2_lanes = reg.counter(
            "jcache_engine_lanes_total", help, {{"kind", "avx2"}});
        static telemetry::Counter& scalar_lanes = reg.counter(
            "jcache_engine_lanes_total", help, {{"kind", "scalar"}});
        static telemetry::Counter& set_lanes = reg.counter(
            "jcache_engine_lanes_total", help, {{"kind", "set"}});
        static telemetry::Counter& derived_lanes = reg.counter(
            "jcache_engine_lanes_total", help, {{"kind", "derived"}});
        derived_lanes.inc(derived);
        const std::size_t tile =
            simd::avx2Enabled() ? simd::kLanesPerVector : 1;
        for (const auto& [line_bytes, group] : groups) {
            for (const auto* dm : {&group.wbLanes, &group.wtLanes}) {
                const std::size_t tiled =
                    tile > 1 ? dm->size() - dm->size() % tile : 0;
                avx2_lanes.inc(tiled);
                scalar_lanes.inc(dm->size() - tiled);
            }
            set_lanes.inc(group.setLanes.size());
        }
    }
    return results;
}

std::vector<RunResult>
runTracePass(const trace::Trace& trace,
             const std::vector<LaneSpec>& lanes,
             std::size_t blockRecords)
{
    trace::TraceReplaySource source(trace);
    return runTracePass(static_cast<const trace::ReplaySource&>(source),
                        lanes, blockRecords);
}

} // namespace jcache::sim
