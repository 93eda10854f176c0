/**
 * @file
 * Replay sources: where the one-pass engine's blocks come from.
 *
 * The engine used to be wedded to an in-memory Trace — every sweep
 * regenerated (or re-imported) the full record array before a single
 * access was replayed.  ReplaySource abstracts the supplier side of
 * the block walk: a source knows its name, its record count, and how
 * to hand out BlockCursor walkers that yield successive TraceBlock
 * views (trace/blocks.hh).  Two implementations exist:
 *
 *  - TraceReplaySource (here): zero-copy views into a live Trace's
 *    flat record array — the classic path, no decoding at all;
 *  - MappedReplayCache (trace/replay_cache.hh): blocks decoded
 *    lazily from an mmap'd delta-encoded cache file, so sweeps can
 *    replay a trace from disk without ever materializing the whole
 *    record array or re-running a workload generator.
 *
 * Cursors are independent: concurrent passes over one source (the
 * engine runs one pass per worker, each over a slice of the lanes)
 * each take their own cursor and never share decode state.
 *
 * Semantics at the edges, for every source:
 *  - an empty trace yields zero blocks;
 *  - when the record count is not a multiple of the block size, the
 *    final block is partial and holds the remainder;
 *  - a block size of 0 is clamped to 1 so iteration always advances.
 */

#ifndef JCACHE_TRACE_REPLAY_HH
#define JCACHE_TRACE_REPLAY_HH

#include <memory>
#include <string>

#include "trace/blocks.hh"
#include "trace/trace.hh"

namespace jcache::trace
{

/**
 * One walk over a source's blocks, front to back.
 *
 * next() fills `out` with the next block view and returns true, or
 * returns false at end-of-trace.  The view stays valid only until
 * the following next() call (a decoding cursor reuses its buffer)
 * or the cursor's destruction, whichever comes first.
 */
class BlockCursor
{
  public:
    virtual ~BlockCursor() = default;

    /** Advance to the next block; false when the walk is done. */
    virtual bool next(TraceBlock& out) = 0;
};

/**
 * Abstract supplier of trace blocks for the one-pass engine.
 *
 * A source must outlive every cursor it hands out.  Sources are
 * immutable once constructed, so any number of cursors may walk one
 * source concurrently.
 */
class ReplaySource
{
  public:
    virtual ~ReplaySource() = default;

    /** The trace's name (titles, spans, result rendering). */
    virtual const std::string& name() const = 0;

    /** Total records the walk will yield across all blocks. */
    virtual Count records() const = 0;

    /**
     * A fresh walker over the blocks.
     *
     * @param blockRecords  preferred records per block; sources with
     *                      a fixed on-disk block size may ignore it.
     */
    virtual std::unique_ptr<BlockCursor>
    blocks(std::size_t blockRecords) const = 0;
};

/**
 * ReplaySource over an in-memory Trace: blocks are zero-copy views
 * into Trace::records(), `blockRecords` records each.  The trace must
 * outlive the source.
 */
class TraceReplaySource final : public ReplaySource
{
  public:
    explicit TraceReplaySource(const Trace& trace) : trace_(&trace) {}

    const std::string& name() const override { return trace_->name(); }

    Count records() const override { return trace_->size(); }

    std::unique_ptr<BlockCursor>
    blocks(std::size_t blockRecords) const override
    {
        return std::make_unique<Cursor>(*trace_, blockRecords);
    }

    /** The adapted trace. */
    const Trace& trace() const { return *trace_; }

  private:
    class Cursor final : public BlockCursor
    {
      public:
        Cursor(const Trace& trace, std::size_t blockRecords)
            : first_(trace.records().data()), total_(trace.size()),
              block_(blockRecords == 0 ? 1 : blockRecords)
        {
        }

        bool next(TraceBlock& out) override
        {
            if (pos_ >= total_)
                return false;
            std::size_t n = total_ - pos_;
            if (n > block_)
                n = block_;
            out = TraceBlock{first_ + pos_, n, pos_};
            pos_ += n;
            return true;
        }

      private:
        const TraceRecord* first_;
        std::size_t total_;
        std::size_t block_;
        std::size_t pos_ = 0;
    };

    const Trace* trace_;
};

/**
 * Decode every block of `source` into an in-memory Trace named after
 * the source.  This is how a JCRC file becomes a Trace, both for
 * trace::loadAnyTrace() and for sim::TraceRepository.
 */
inline Trace
materialize(const ReplaySource& source)
{
    Trace trace(source.name());
    trace.reserve(static_cast<std::size_t>(source.records()));
    std::unique_ptr<BlockCursor> cursor =
        source.blocks(kDefaultBlockRecords);
    TraceBlock block;
    while (cursor->next(block))
        for (std::size_t i = 0; i < block.count; ++i)
            trace.append(block.records[i]);
    return trace;
}

} // namespace jcache::trace

#endif // JCACHE_TRACE_REPLAY_HH
