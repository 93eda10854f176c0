/**
 * @file
 * Tests for the zero-copy block walk of an in-memory trace
 * (TraceReplaySource): coverage, offsets and the edge cases (empty
 * trace, partial final block, zero block size) the one-pass engine's
 * correctness rests on.
 */

#include <vector>

#include <gtest/gtest.h>

#include "trace/replay.hh"

namespace jcache::trace
{
namespace
{

Trace
traceOf(std::size_t records)
{
    Trace t("blocks");
    for (std::size_t i = 0; i < records; ++i)
        t.append({Addr{0x100} + 4 * i, 1, 4, RefType::Read});
    return t;
}

/** Every block one cursor of `t` yields at `blockRecords`. */
std::vector<TraceBlock>
blocksOf(const Trace& t, std::size_t blockRecords)
{
    TraceReplaySource source(t);
    std::unique_ptr<BlockCursor> cursor = source.blocks(blockRecords);
    std::vector<TraceBlock> blocks;
    TraceBlock block;
    while (cursor->next(block))
        blocks.push_back(block);
    return blocks;
}

TEST(TraceReplaySourceBlocks, EmptyTraceHasNoBlocks)
{
    Trace t = traceOf(0);
    EXPECT_TRUE(blocksOf(t, 4).empty());
}

TEST(TraceReplaySourceBlocks, ExactMultipleSplitsEvenly)
{
    Trace t = traceOf(8);
    std::vector<TraceBlock> blocks = blocksOf(t, 4);
    EXPECT_EQ(blocks.size(), 2u);
    std::size_t seen = 0;
    for (const TraceBlock& block : blocks) {
        EXPECT_EQ(block.count, 4u);
        EXPECT_EQ(block.offset, seen);
        EXPECT_EQ(block.records, t.records().data() + block.offset);
        seen += block.count;
    }
    EXPECT_EQ(seen, t.size());
}

TEST(TraceReplaySourceBlocks, PartialFinalBlockHoldsRemainder)
{
    Trace t = traceOf(10);
    std::vector<std::size_t> counts;
    std::vector<std::size_t> offsets;
    for (const TraceBlock& block : blocksOf(t, 4)) {
        counts.push_back(block.count);
        offsets.push_back(block.offset);
    }
    EXPECT_EQ(counts, (std::vector<std::size_t>{4, 4, 2}));
    EXPECT_EQ(offsets, (std::vector<std::size_t>{0, 4, 8}));
}

TEST(TraceReplaySourceBlocks, BlockLargerThanTraceYieldsOneBlock)
{
    Trace t = traceOf(3);
    std::vector<TraceBlock> blocks = blocksOf(t, 100);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].count, 3u);
    EXPECT_EQ(blocks[0].offset, 0u);
}

TEST(TraceReplaySourceBlocks, ZeroBlockSizeClampsToOne)
{
    Trace t = traceOf(3);
    std::vector<TraceBlock> blocks = blocksOf(t, 0);
    EXPECT_EQ(blocks.size(), 3u);
    for (const TraceBlock& block : blocks)
        EXPECT_EQ(block.count, 1u);
}

TEST(TraceReplaySourceBlocks, BlocksCoverEveryRecordInOrder)
{
    Trace t = traceOf(kDefaultBlockRecords + 7);  // one block + a tail
    std::vector<TraceBlock> blocks = blocksOf(t, kDefaultBlockRecords);
    EXPECT_EQ(blocks.size(), 2u);
    std::size_t next = 0;
    for (const TraceBlock& block : blocks) {
        for (std::size_t i = 0; i < block.count; ++i) {
            EXPECT_EQ(block.records[i].addr,
                      t.records()[next].addr);
            ++next;
        }
    }
    EXPECT_EQ(next, t.size());
}

} // namespace
} // namespace jcache::trace
