/**
 * @file
 * Trace files at the boundary: the text interchange encoding, and
 * the loaders that accept every trace file jcache reads.
 *
 * Traces captured outside jcache (Pin tools, DynamoRIO clients,
 * hand-written generators) come in, and jcache traces go out to other
 * simulators, as Dinero/cachegrind-style text, one reference per line
 * (`r|w <hex-addr> <size> [instr-delta]`), specified normatively in
 * docs/TRACE_FORMAT.md together with the JCRC file.  The importer
 * rejects malformed input with TraceParseError, which carries the
 * source label and the exact line of the failure.  Export -> import
 * reproduces an identical record stream, so simulation counters are
 * byte-identical (asserted by tests/test_trace_import.cc and the
 * tool_trace_import_roundtrip ctest).
 *
 * loadAnyTrace() reads the three kinds of trace file: JCRC (the one
 * binary format the tools write, trace/replay_cache.hh), raw JCTR
 * (trace/file_io.hh) and text.
 */

#ifndef JCACHE_TRACE_IMPORT_HH
#define JCACHE_TRACE_IMPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/file_io.hh"
#include "trace/trace.hh"

namespace jcache::trace
{

/**
 * Upper bound on one line of the text encoding, terminator included.
 * A well-formed record needs at most ~45 bytes; the cap bounds memory
 * against pathological input (e.g. a binary file fed to the text
 * importer) while leaving generous room for comments.
 */
inline constexpr std::size_t kMaxTextLineBytes = 256;

/**
 * Thrown by the text importer for malformed input.  A subtype of
 * CorruptTraceError (so existing catch sites keep working) that
 * additionally pins the failure to a 1-based line number.
 */
class TraceParseError : public CorruptTraceError
{
  public:
    /**
     * @param source  label for messages — a file path or "<text>".
     * @param line    1-based line of the failure.
     * @param message what was wrong on that line.
     */
    TraceParseError(const std::string& source, std::uint64_t line,
                    const std::string& message);

    /** Source label the importer was given. */
    const std::string& source() const { return source_; }

    /** Line number of the failure. */
    std::uint64_t line() const { return line_; }

  private:
    std::string source_;
    std::uint64_t line_;
};

/** Write a trace in the text interchange encoding. */
void exportTraceText(const Trace& trace, std::ostream& os);

/**
 * Save a trace in the text encoding.  Throws FatalError on I/O.  The
 * file is replaced atomically, so a failed save leaves the old file
 * as it was.
 */
void saveTraceText(const Trace& trace, const std::string& path);

/**
 * Parse the text interchange encoding.  Throws TraceParseError with
 * the offending line number on malformed input.
 *
 * @param is     the text stream.
 * @param name   workload name given to the imported trace.
 * @param source label used in error messages (file path or "<text>").
 */
Trace importTraceText(std::istream& is, const std::string& name,
                      const std::string& source = "<text>");

/**
 * Load a trace file of any supported kind, picking the decoder from
 * the file's first bytes: "JCRC" is decoded block by block through
 * MappedReplayCache, "JCTR" goes to readTrace(), and anything else is
 * parsed as text.  The binary files carry their own trace name; a
 * text trace is named after the file's stem, so `jcache-sim
 * mytrace.txt` and an upload of the same file to jcached title their
 * tables identically.
 */
Trace loadAnyTrace(const std::string& path);

/**
 * Read only the header of a JCRC or JCTR file, decoding no record.
 * A JCRC header passes exactly the checks MappedReplayCache runs at
 * open.  Throws FatalError (CorruptTraceError for a damaged header).
 */
TraceFileInfo loadTraceInfo(const std::string& path);

/** The workload name given to a text trace file: its stem. */
std::string defaultTraceName(const std::string& path);

} // namespace jcache::trace

#endif // JCACHE_TRACE_IMPORT_HH
