/**
 * @file
 * The raw native trace file (JCTR).
 *
 * A JCTR file is a header (magic "JCTR" | u32 version | u64 record
 * count | u32 name length | name) followed by fixed little-endian
 * records of u64 addr | u32 instrDelta | u8 size | u8 type.  The
 * tools write JCRC (trace/replay_cache.hh); saveTrace() still writes
 * JCTR, byte for byte, and trace::loadAnyTrace() still reads it.
 * readTrace() validates the magic, version, record count and every
 * record.
 */

#ifndef JCACHE_TRACE_FILE_IO_HH
#define JCACHE_TRACE_FILE_IO_HH

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "trace/trace.hh"
#include "util/logging.hh"

namespace jcache::trace
{

/** Magic of a raw trace file. */
inline constexpr std::array<char, 4> kRawTraceMagic = {'J', 'C', 'T', 'R'};

/** Current trace file format version. */
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/** Upper bound on the workload name stored in a trace header. */
inline constexpr std::uint32_t kMaxTraceNameBytes = 4096;

/**
 * Records readTrace() takes from the stream per istream::read.  A
 * constant of the reader, not part of the format: any chunk size
 * reads the same records and rejects the same files.
 */
inline constexpr std::size_t kRawReadChunkRecords = 4096;

/**
 * Thrown by the trace readers for any input that is not a well-formed
 * trace: bad magic, impossible counts, torn headers, short records.
 * A subtype of FatalError so existing catch sites keep working, but
 * distinguishable where the caller wants to treat corrupt data
 * differently from, say, a missing file.
 */
class CorruptTraceError : public FatalError
{
  public:
    explicit CorruptTraceError(const std::string& what)
        : FatalError(what)
    {}
};

/**
 * The header of a trace file, readable without loading the records —
 * `jcache-trace info` inspects multi-megabyte traces through this in
 * constant time.
 */
struct TraceFileInfo
{
    /** "raw" (JCTR) or "jcrc" (from the magic). */
    std::string format;

    /** Format version from the header. */
    std::uint32_t version = 0;

    /** Record count from the header. */
    std::uint64_t records = 0;

    /** Workload name stored in the header. */
    std::string name;
};

/**
 * Read only the header from a stream positioned at the start of a
 * JCTR file.  Throws CorruptTraceError on bad magic, unsupported
 * version, an oversized name or a truncated header.
 */
TraceFileInfo readTraceInfo(std::istream& is);

/** Serialize a trace to a stream (raw format). */
void writeTrace(const Trace& trace, std::ostream& os);

/** Serialize a trace to a file.  Throws FatalError on I/O failure. */
void saveTrace(const Trace& trace, const std::string& path);

/**
 * Deserialize a JCTR trace from a stream.  Throws CorruptTraceError
 * on corrupt or mismatched input — including a record count the
 * stream cannot possibly hold, so a forged header can never trigger
 * a multi-gigabyte allocation or a silent partial read.
 */
Trace readTrace(std::istream& is);

} // namespace jcache::trace

#endif // JCACHE_TRACE_FILE_IO_HH
