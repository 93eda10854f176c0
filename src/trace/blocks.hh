/**
 * @file
 * The unit of the one-pass engine's trace walk.
 *
 * The one-pass engine (sim/multiconfig.hh) replays a trace against
 * many cache configurations at once.  To keep every lane's working
 * set hot it walks the trace in fixed-size blocks: decode a block of
 * records once, replay it through every lane, move on.  A TraceBlock
 * is one such block, a pointer + count view; the BlockCursor of a
 * ReplaySource (trace/replay.hh) yields them.
 */

#ifndef JCACHE_TRACE_BLOCKS_HH
#define JCACHE_TRACE_BLOCKS_HH

#include <cstddef>

#include "trace/trace.hh"

namespace jcache::trace
{

/**
 * Default records per block for the one-pass engine.
 *
 * Chosen so a block of decoded pieces (~16 bytes each, at most two
 * pieces per record) stays comfortably inside L2 alongside the lane
 * state it is replayed against; measured best among {512..16384} on
 * the paper's Figure 13-16 grids.
 */
inline constexpr std::size_t kDefaultBlockRecords = 2048;

/**
 * One contiguous block of trace records — a non-owning view.
 *
 * Valid only while the underlying Trace is alive and unmodified.
 */
struct TraceBlock
{
    /** First record of the block (never null for a yielded block). */
    const TraceRecord* records = nullptr;

    /** Number of records in the block (>= 1 for a yielded block). */
    std::size_t count = 0;

    /** Index of records[0] within the whole trace. */
    std::size_t offset = 0;
};

} // namespace jcache::trace

#endif // JCACHE_TRACE_BLOCKS_HH
