/**
 * @file
 * JCRC: the compact on-disk trace replay cache.
 *
 * Workload traces are deterministic, so regenerating (or re-parsing)
 * them on every sweep is pure waste — ROADMAP item 1's "stream the
 * one-pass hot path" half.  A replay cache file stores a trace once,
 * delta-encoded per block, and later runs mmap it and decode blocks
 * lazily straight off the page cache: no generator runs, no full
 * record array is materialized, and a cursor touches one block-sized
 * decode buffer at a time.
 *
 * The file layout (a fixed header, the trace name, a table of block
 * offsets, then the block payloads) is specified normatively in
 * docs/TRACE_FORMAT.md.  Each block payload is self-contained: a
 * record is a meta byte, a zigzag-varint address delta and a varint
 * instruction delta (trace/varint.hh), with the address delta base
 * reset to 0 at the start of every block so blocks decode
 * independently.
 *
 * JCRC is also the one binary trace file the tools write:
 * `jcache-trace generate|import` produce it, and trace::loadAnyTrace()
 * reads it back through MappedReplayCache.
 *
 * ## Naming and invalidation
 *
 * A cache file is named `<contentDigest>.jcrc` inside the cache
 * directory, so invalidation is by construction: any change to the
 * trace bytes (new generator semantics, edited source file) changes
 * the digest and resolves to a different file name.  Stale files are
 * simply never opened again.  Writers go through
 * util::atomicWriteFile, so concurrent producers of the same trace
 * race benignly — both rename identical bytes into place.
 *
 * ## The directory lock
 *
 * Every writer of a cache file or name ref in a cache directory holds
 * the flock `<dir>/lock` from its temporary to its rename, and every
 * process that opens the directory (jcached's trace repository,
 * jcache-sweep) sweeps the `*.tmp` files in it under that lock.  A
 * temporary seen under the lock therefore belongs to a writer that
 * was killed, and none is swept while its writer still runs.
 */

#ifndef JCACHE_TRACE_REPLAY_CACHE_HH
#define JCACHE_TRACE_REPLAY_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/file_io.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"

namespace jcache::trace
{

/** Magic of a JCRC file. */
inline constexpr std::array<char, 4> kReplayCacheMagic = {'J', 'C', 'R', 'C'};

/** Format version written and accepted by this build. */
inline constexpr std::uint16_t kReplayCacheVersion = 1;

/**
 * A malformed or truncated replay cache file.  Subtype of
 * CorruptTraceError so trace-corruption catch sites handle it.
 */
class ReplayCacheError : public CorruptTraceError
{
  public:
    explicit ReplayCacheError(const std::string& what)
        : CorruptTraceError(what)
    {
    }
};

/** `<dir>/<digestHex>.jcrc` — the canonical cache path for a digest. */
std::string replayCachePath(const std::string& dir,
                            const std::string& digestHex);

/**
 * Remove the `*.tmp` files in the replay-cache directory `dir`,
 * holding its lock, `<dir>/lock`.  A missing `dir` has nothing to
 * sweep and is not created.
 */
void sweepReplayCacheDir(const std::string& dir);

/**
 * Serialize `trace` as a JCRC file at `path` (atomic write).
 *
 * @param blockRecords  records per block; 0 is clamped to 1.
 */
void writeReplayCache(const Trace& trace, const std::string& path,
                      std::size_t blockRecords = kDefaultBlockRecords);

/**
 * Ensure `dir` holds a replay cache for `trace` and return its path.
 * Creates the directory and writes `<contentDigest>.jcrc` when
 * missing, holding the directory lock from the temporary to the
 * rename; an existing file is trusted (the digest name is the
 * invalidation key) and left untouched.  The records are digested
 * once.
 */
std::string ensureReplayCache(const Trace& trace,
                              const std::string& dir,
                              std::size_t blockRecords = kDefaultBlockRecords);

/**
 * ensureReplayCache() for a caller that already holds `digest`, the
 * trace's contentDigest(): it names the file and fills its header,
 * and the records are not digested again.
 */
std::string ensureReplayCache(const Trace& trace,
                              const std::string& digest,
                              const std::string& dir,
                              std::size_t blockRecords = kDefaultBlockRecords);

/**
 * A JCRC file opened for replay.
 *
 * The file is mmap'd read-only (with a buffered-read fallback where
 * mmap is unavailable) and validated structurally on open: magic,
 * version, counts, name length, a monotone in-bounds offset table,
 * and a record count the payload bytes can hold (every record takes
 * at least three), so a forged header never reaches an allocation.
 * Record payloads are validated as they are decoded, so a torn or
 * truncated file surfaces as ReplayCacheError no later than the
 * first cursor that reaches the damage.
 *
 * Cursors decode one block at a time into a private reusable buffer;
 * concurrent cursors over one MappedReplayCache are safe.
 */
class MappedReplayCache final : public ReplaySource
{
  public:
    /** Open and validate `path`; throws ReplayCacheError/FsError. */
    explicit MappedReplayCache(const std::string& path);

    /** Unmaps the file; outstanding cursors must be gone first. */
    ~MappedReplayCache() override;

    MappedReplayCache(const MappedReplayCache&) = delete;
    MappedReplayCache& operator=(const MappedReplayCache&) = delete;

    const std::string& name() const override { return name_; }

    Count records() const override { return count_; }

    /**
     * A fresh decoding cursor.  `blockRecords` is ignored: the block
     * size is fixed when the file is written.
     */
    std::unique_ptr<BlockCursor>
    blocks(std::size_t blockRecords) const override;

    /** Content digest recorded in the header (16 hex chars). */
    const std::string& digest() const { return digest_; }

    /**
     * The identity string for result keys, byte-identical to
     * trace::traceIdentity() of the encoded trace.
     */
    const std::string& identity() const { return identity_; }

    /** Records per block as written. */
    std::size_t blockRecords() const { return block_records_; }

    /** Number of blocks in the file. */
    std::size_t blockCount() const { return block_count_; }

    /** True when the file is mmap'd (false on the read fallback). */
    bool mapped() const { return mapped_; }

    /** The path this cache was opened from. */
    const std::string& path() const { return path_; }

  private:
    class Cursor;

    /** Validate the header and offset table; the constructor's tail. */
    void parseHeader();

    /** Release the mapping, if the file was mapped. */
    void unmap();

    /** Decode block `index` into `out` (resized to the block). */
    void decodeBlock(std::size_t index,
                     std::vector<TraceRecord>& out) const;

    /** Records in block `index` (full blocks, short final block). */
    std::size_t blockSize(std::size_t index) const;

    [[noreturn]] void corrupt(const std::string& message) const;

    std::string path_;
    std::string name_;
    std::string digest_;
    std::string identity_;
    Count count_ = 0;
    std::size_t block_records_ = 0;
    std::size_t block_count_ = 0;

    const unsigned char* data_ = nullptr;
    std::size_t size_ = 0;
    const unsigned char* offsets_ = nullptr; // offset table start
    bool mapped_ = false;
    std::string buffer_; // backing bytes on the read fallback
};

} // namespace jcache::trace

#endif // JCACHE_TRACE_REPLAY_CACHE_HH
