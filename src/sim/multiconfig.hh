/**
 * @file
 * One-pass multi-configuration trace replay.
 *
 * runTrace() decodes the trace once per cache configuration; a sweep
 * over a 32-cell grid therefore decodes the same records 32 times
 * and streams a fresh cache image through memory for every cell.
 * runTracePass() inverts the loop: it walks the trace in blocks
 * (trace/blocks.hh) and feeds each block to every configuration
 * before moving on, so the record stream is read once and all lane
 * state stays hot.
 *
 * Every lane keeps one kind of state: structure-of-arrays tags,
 * valid masks and dirty masks, one entry per way, with a sentinel tag
 * for an empty way; plus per-line replacement stamps (LRU, FIFO) or a
 * random-replacement generator when the lane has more than one way.
 * Lanes with the same line size share one decode of each block into
 * line-aligned pieces, and two kernels replay those pieces, each with
 * its policy choices as template parameters so most dispatch happens
 * once per block instead of once per access:
 *
 *  - **Direct-mapped kernels** — direct-mapped, byte-granularity
 *    configurations (every grid the paper's Figures 13-16 sweep; see
 *    fastLaneEligible()).  The sentinel tag makes the hit test a
 *    single compare, and lanes that also share a hit policy replay in
 *    vector tiles: four lanes at a time, with the tag compare / valid
 *    test / hot counters as AVX2 vector operations (util/simd.hh; a
 *    byte-identical scalar path serves non-AVX2 hardware,
 *    JCACHE_NO_AVX2, and the remainder lanes).
 *  - **Set kernel** — everything else: any associativity under LRU,
 *    FIFO or random replacement, and any valid-bit granularity,
 *    direct-mapped included.  Scalar, one lane at a time, with the
 *    hit policy, the way count (1, 2, 4, 8, or any other at run
 *    time) and the replacement policy as template parameters; the
 *    write-miss policy is switched on at run time, on write misses
 *    only.
 *
 * Together they take every configuration runTrace() does.  Some
 * lanes need neither: a write-through lane whose write-back twin
 * (writeBackTwin()) is in the same pass replays nothing, and its
 * result is derived from the twin's.
 *
 * The record stream itself comes from a trace::ReplaySource: either
 * zero-copy views into an in-memory Trace, or blocks decoded lazily
 * from an mmap'd replay cache file (trace/replay_cache.hh), so
 * sweeps can replay from disk without regenerating workloads.
 *
 * All paths reproduce DataCache's counter and traffic accounting
 * exactly; tests/test_engine_differential.cc holds the engine to
 * byte-identical RunResults against runTrace(), across scalar vs
 * vector replay, in-memory vs mapped sources, and an associativity,
 * replacement and valid-granularity grid.
 */

#ifndef JCACHE_SIM_MULTICONFIG_HH
#define JCACHE_SIM_MULTICONFIG_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "core/config.hh"
#include "sim/run.hh"
#include "trace/blocks.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"

namespace jcache::sim
{

/** One lane of a one-pass replay: a configuration plus its flush. */
struct LaneSpec
{
    core::CacheConfig config;

    /** Drain dirty lines at end of trace (flush-stop statistics). */
    bool flushAtEnd = false;

    bool operator==(const LaneSpec&) const = default;
};

/**
 * Does this configuration replay on the direct-mapped vector tiles?
 *
 * True for direct-mapped caches with byte-granularity valid bits —
 * the combination every figure in the paper sweeps.  Other
 * configurations replay on the set kernel, just as exactly.
 */
bool fastLaneEligible(const core::CacheConfig& config);

/**
 * The lane whose replay answers `lane`, when only the hit policy
 * tells them apart.
 *
 * Under fetch-on-write and write-validate the write-hit policy only
 * decides where written data goes: a write-through cache and a
 * write-back cache of one organization hold the same lines and take
 * the same misses and victims.  So a write-through lane under either
 * policy is answered from its twin, the write-back lane with the same
 * configuration and the same flushAtEnd, whenever the twin replays in
 * the same pass: every write passes through, and nothing is dirty.
 *
 * @return the write-back twin of `lane`; nullopt when `lane` is
 *         write-back, write-around or write-invalidate, and so must
 *         replay itself.
 */
std::optional<LaneSpec> writeBackTwin(const LaneSpec& lane);

/**
 * Replay `source` once through every lane.
 *
 * @param source        where the blocks come from; sources with a
 *                      fixed on-disk block size (MappedReplayCache)
 *                      ignore `blockRecords`.
 * @param lanes         configurations to simulate; each is validated.
 * @param blockRecords  preferred records per block of the outer walk;
 *                      the default is tuned, see
 *                      trace::kDefaultBlockRecords.
 * @return one RunResult per lane, in `lanes` order, byte-identical to
 *         runTrace(trace, lanes[i].config, lanes[i].flushAtEnd).  A
 *         lane whose writeBackTwin() is also in `lanes` is derived
 *         from the twin's result, not replayed.
 *
 * Emits `sweep.trace_pass` and per-block `sweep.block_decode` spans,
 * and advances the `jcache_engine_records_total`,
 * `jcache_engine_blocks_total` and `jcache_engine_lanes_total{kind}`
 * counters once per pass when telemetry is armed.
 */
std::vector<RunResult>
runTracePass(const trace::ReplaySource& source,
             const std::vector<LaneSpec>& lanes,
             std::size_t blockRecords = trace::kDefaultBlockRecords);

/** Replay an in-memory `trace`: wraps it in a TraceReplaySource. */
std::vector<RunResult>
runTracePass(const trace::Trace& trace,
             const std::vector<LaneSpec>& lanes,
             std::size_t blockRecords = trace::kDefaultBlockRecords);

} // namespace jcache::sim

#endif // JCACHE_SIM_MULTICONFIG_HH
