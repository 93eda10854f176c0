/**
 * @file
 * Unit tests for the binary trace files: raw JCTR round trips and
 * pinned bytes, header inspection of JCTR and JCRC, and corruption
 * fuzzing of both as they are read in practice (JCTR through
 * readTrace(), JCRC through loadAnyTrace()).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>

#include <gtest/gtest.h>

#include "trace/file_io.hh"
#include "trace/import.hh"
#include "trace/replay_cache.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace jcache::trace
{
namespace
{

Trace
sampleTrace()
{
    Trace t("sample");
    t.append({0x10000, 1, 4, RefType::Read});
    t.append({0x10008, 3, 8, RefType::Write});
    t.append({0xffffffffdeadbeefull, 70000, 4, RefType::Write});
    return t;
}

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + "/" + name;
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream ofs(path, std::ios::binary | std::ios::trunc);
    ofs.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string
readFile(const std::string& path)
{
    std::ifstream ifs(path, std::ios::binary);
    std::ostringstream os;
    os << ifs.rdbuf();
    return os.str();
}

/** Serialized sample trace in the raw format. */
std::string
rawBytes(const Trace& t = sampleTrace())
{
    std::stringstream buffer;
    writeTrace(t, buffer);
    return buffer.str();
}

/**
 * A trace as a JCRC file; the sample trace at two records per block
 * has two block offsets and a short final block.
 */
std::string
jcrcBytes(const Trace& t = sampleTrace(), std::size_t blockRecords = 2)
{
    const std::string path = tempPath("jcache_file_io_sample.jcrc");
    writeReplayCache(t, path, blockRecords);
    std::string bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

/** Overwrite a little-endian field inside serialized trace bytes. */
void
pokeLe(std::string& bytes, std::size_t offset, std::uint64_t value,
       unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        bytes[offset + i] =
            static_cast<char>((value >> (8 * i)) & 0xff);
}

TEST(TraceFileIo, StreamRoundTrip)
{
    Trace original = sampleTrace();
    std::stringstream buffer;
    writeTrace(original, buffer);
    Trace loaded = readTrace(buffer);
    EXPECT_EQ(loaded, original);
}

TEST(TraceFileIo, EmptyTraceRoundTrip)
{
    Trace original("empty");
    std::stringstream buffer;
    writeTrace(original, buffer);
    Trace loaded = readTrace(buffer);
    EXPECT_EQ(loaded, original);
    EXPECT_TRUE(loaded.empty());
}

TEST(TraceFileIo, FileRoundTrip)
{
    // saveTrace() writes JCTR and loadAnyTrace() reads it back: the
    // files written before JCRC became the tools' format still load.
    std::string path = tempPath("jcache_trace_test.bin");
    Trace original = sampleTrace();
    saveTrace(original, path);
    EXPECT_EQ(readFile(path), rawBytes());
    Trace loaded = loadAnyTrace(path);
    EXPECT_EQ(loaded, original);
    std::remove(path.c_str());
}

TEST(TraceFileIo, RawBytesArePinned)
{
    // The JCTR layout is frozen: saveTrace() output is read back by
    // builds on either side of a change (a shared input cache), so
    // its bytes must not move.
    Trace t("t");
    t.append({0x1000, 2, 4, RefType::Write});
    t.append({0xff, 70000, 1, RefType::Read});
    const std::string expected(
        "JCTR"
        "\x01\x00\x00\x00"                  // version 1
        "\x02\x00\x00\x00\x00\x00\x00\x00"  // 2 records
        "\x01\x00\x00\x00"                  // name length 1
        "t"
        "\x00\x10\x00\x00\x00\x00\x00\x00"  // addr 0x1000
        "\x02\x00\x00\x00"                  // instrDelta 2
        "\x04\x01"                          // size 4, write
        "\xff\x00\x00\x00\x00\x00\x00\x00"  // addr 0xff
        "\x70\x11\x01\x00"                  // instrDelta 70000
        "\x01\x00",                         // size 1, read
        4 + 4 + 8 + 4 + 1 + 2 * 14);
    EXPECT_EQ(rawBytes(t), expected);
    std::stringstream is(expected);
    EXPECT_EQ(readTrace(is), t);
}

TEST(TraceFileIo, RejectsBadMagic)
{
    std::stringstream buffer;
    buffer << "NOPE-this-is-not-a-trace";
    EXPECT_THROW(readTrace(buffer), FatalError);
}

TEST(TraceFileIo, RejectsTruncatedFile)
{
    std::string bytes = rawBytes();
    std::stringstream truncated(bytes.substr(0, bytes.size() - 5));
    EXPECT_THROW(readTrace(truncated), FatalError);
}

TEST(TraceFileIo, RejectsWrongVersion)
{
    std::string bytes = rawBytes();
    bytes[4] = 99;  // version field, little-endian low byte
    std::stringstream tampered(bytes);
    EXPECT_THROW(readTrace(tampered), FatalError);
}

TEST(TraceFileIo, RejectsCorruptRecordSize)
{
    Trace t("x");
    t.append({0x0, 1, 4, RefType::Read});
    std::string bytes = rawBytes(t);
    // The record's size byte is 12 bytes into the record: addr(8) +
    // instrDelta(4).  Header is 4+4+8+4+1 bytes ("x" name).
    std::size_t record_start = 4 + 4 + 8 + 4 + 1;
    bytes[record_start + 12] = 3;  // invalid access size
    std::stringstream tampered(bytes);
    EXPECT_THROW(readTrace(tampered), FatalError);
}

TEST(TraceFileIo, MissingFileFails)
{
    EXPECT_THROW(loadAnyTrace("/nonexistent/path/trace.bin"),
                 FatalError);
}

TEST(TraceFileIo, PreservesName)
{
    Trace t("a-name-with-unicode-\xc3\xa9");
    std::stringstream buffer;
    writeTrace(t, buffer);
    EXPECT_EQ(readTrace(buffer).name(), t.name());
}

TEST(TraceFileIo, JcrcHandlesNegativeDeltasAndLargeJumps)
{
    Trace t("jumps");
    t.append({0xffffffffffffff00ull, 1, 4, RefType::Read});
    t.append({0x10, 100000, 4, RefType::Write});  // huge negative
    t.append({0xdeadbeef00ull, 1, 8, RefType::Read});
    t.append({0x0, 0xffffffffu, 1, RefType::Write});
    std::string path = tempPath("jcache_jumps.jcrc");
    writeFile(path, jcrcBytes(t));
    EXPECT_EQ(loadAnyTrace(path), t);
    std::remove(path.c_str());
}

TEST(TraceFileIo, JcrcShrinksLocalTraces)
{
    // A sequential access pattern (the common case) takes a few bytes
    // per record against 14 for a raw record.
    Trace t("sequential");
    for (Addr a = 0x10000; a < 0x10000 + 64 * 1024; a += 8) {
        t.append({a, 3, 8, RefType::Read});
        t.append({a, 1, 8, RefType::Write});
    }
    EXPECT_LT(jcrcBytes(t, kDefaultBlockRecords).size() * 3,
              rawBytes(t).size());
}

TEST(TraceFileIo, InfoReadsRawHeader)
{
    Trace t = sampleTrace();
    std::stringstream buffer;
    writeTrace(t, buffer);
    TraceFileInfo info = readTraceInfo(buffer);
    EXPECT_EQ(info.format, "raw");
    EXPECT_EQ(info.version, kTraceFormatVersion);
    EXPECT_EQ(info.records, t.size());
    EXPECT_EQ(info.name, "sample");
}

TEST(TraceFileIo, InfoReadsJcrcHeaderWithoutDecoding)
{
    // The header path decodes no block: a damaged payload does not
    // prevent inspection, while loading the same bytes fails.
    Trace t = sampleTrace();
    std::string path = tempPath("jcache_info.jcrc");
    std::string bytes = jcrcBytes(t);
    bytes.back() = static_cast<char>(0x80);  // unterminated varint
    writeFile(path, bytes);
    TraceFileInfo info = loadTraceInfo(path);
    EXPECT_EQ(info.format, "jcrc");
    EXPECT_EQ(info.version, kReplayCacheVersion);
    EXPECT_EQ(info.records, t.size());
    EXPECT_EQ(info.name, "sample");
    EXPECT_THROW(loadAnyTrace(path), ReplayCacheError);
    std::remove(path.c_str());
}

TEST(TraceFileIo, InfoIgnoresRecordCorruption)
{
    // The whole point of the header path: record bytes are never
    // read, so a damaged body does not prevent inspection.
    std::string bytes = rawBytes();
    std::stringstream damaged(bytes.substr(0, bytes.size() - 3));
    TraceFileInfo info = readTraceInfo(damaged);
    EXPECT_EQ(info.records, sampleTrace().size());
    // readTrace on the same bytes must still fail.
    std::stringstream damaged2(bytes.substr(0, bytes.size() - 3));
    EXPECT_THROW(readTrace(damaged2), FatalError);
}

TEST(TraceFileIo, InfoRejectsBadMagicAndMissingFile)
{
    std::stringstream bogus("XXXX not a trace");
    EXPECT_THROW(readTraceInfo(bogus), FatalError);
    EXPECT_THROW(loadTraceInfo("/nonexistent/path/trace.bin"),
                 FatalError);
}

TEST(TraceFileIo, CorruptInputThrowsTypedError)
{
    std::stringstream bogus("XXXX definitely not a trace");
    EXPECT_THROW(readTrace(bogus), CorruptTraceError);
    std::string bytes = rawBytes();
    std::stringstream truncated(bytes.substr(0, bytes.size() - 1));
    EXPECT_THROW(readTrace(truncated), CorruptTraceError);
}

TEST(TraceFileIo, RejectsRecordCountBeyondStream)
{
    // Claim one extra record: a silent partial read must not be
    // treated as success.
    std::string bytes = rawBytes();
    pokeLe(bytes, 8, sampleTrace().size() + 1, 8);
    std::stringstream forged(bytes);
    EXPECT_THROW(readTrace(forged), CorruptTraceError);
}

TEST(TraceFileIo, RejectsTrailingGarbageAfterRawRecords)
{
    std::string bytes = rawBytes() + "garbage";
    std::stringstream padded(bytes);
    EXPECT_THROW(readTrace(padded), CorruptTraceError);
}

TEST(TraceFileIo, RejectsOversizedNameLength)
{
    std::string bytes = rawBytes();
    // Name length field: magic(4) + version(4) + records(8).
    pokeLe(bytes, 16, kMaxTraceNameBytes + 1, 4);
    std::stringstream forged(bytes);
    EXPECT_THROW(readTraceInfo(forged), CorruptTraceError);
}

/**
 * The two binary trace files as they are read in practice: raw JCTR
 * through readTrace() on a stream, JCRC through loadAnyTrace() on a
 * file.  The fuzzers below run over both.
 */
enum class Format { Raw, Jcrc };

const char*
formatName(Format format)
{
    return format == Format::Raw ? "raw" : "jcrc";
}

std::string
sampleBytes(Format format)
{
    return format == Format::Raw ? rawBytes() : jcrcBytes();
}

/** Header bytes of sampleBytes(): everything before the records. */
std::size_t
headerBytes(Format format)
{
    const std::size_t name = sampleTrace().name().size();
    // JCTR: magic, version, count, name length, name.  JCRC: the
    // 52-byte fixed header, the name and two block offsets.
    return format == Format::Raw ? 4 + 4 + 8 + 4 + name
                                 : 52 + name + 2 * 8;
}

Trace
load(Format format, const std::string& bytes)
{
    if (format == Format::Raw) {
        std::stringstream is(bytes);
        return readTrace(is);
    }
    const std::string path = tempPath("jcache_fuzz.jct");
    writeFile(path, bytes);
    return loadAnyTrace(path);
}

TEST(TraceFileIo, RejectsImpossibleRecordCount)
{
    for (Format format : {Format::Raw, Format::Jcrc}) {
        std::string bytes = sampleBytes(format);
        // Record count field: magic(4) + version(4), or magic(4) +
        // version(2) + flags(2); at offset 8 in both.
        pokeLe(bytes, 8, 1ull << 60, 8);
        EXPECT_THROW(load(format, bytes), CorruptTraceError)
            << formatName(format);
    }
}

TEST(TraceFileIo, HeaderMutationFuzzNeverCrashes)
{
    // Flip every header byte through a handful of adversarial values.
    // Any outcome is acceptable except an unhandled crash or a
    // non-FatalError exception (e.g. bad_alloc from a forged count).
    for (Format format : {Format::Raw, Format::Jcrc}) {
        const std::string pristine = sampleBytes(format);
        for (std::size_t pos = 0; pos < headerBytes(format); ++pos) {
            for (unsigned char value : {0x00, 0x01, 0x7f, 0xff}) {
                std::string mutated = pristine;
                mutated[pos] = static_cast<char>(value);
                try {
                    load(format, mutated);
                } catch (const FatalError&) {
                    // rejected: fine
                }
            }
        }
    }
}

TEST(TraceFileIo, TruncationFuzzAlwaysThrows)
{
    // Every proper prefix of a valid file must be rejected, never
    // parsed as a shorter-but-valid trace.  (The empty prefix of a
    // JCRC file is an empty file, which loadAnyTrace reads as an
    // empty text trace, so the JCRC walk starts at one byte.)
    for (Format format : {Format::Raw, Format::Jcrc}) {
        const std::string pristine = sampleBytes(format);
        const std::size_t first = format == Format::Raw ? 0 : 1;
        for (std::size_t len = first; len < pristine.size(); ++len) {
            EXPECT_THROW(load(format, pristine.substr(0, len)),
                         CorruptTraceError)
                << formatName(format) << " prefix of " << len
                << " bytes parsed";
        }
    }
}

TEST(TraceFileIo, RecordMutationFuzzNeverCrashes)
{
    // Seeded byte-level mutations over the whole file, both formats.
    std::mt19937 rng(20260805);
    for (Format format : {Format::Raw, Format::Jcrc}) {
        const std::string pristine = sampleBytes(format);
        for (int round = 0; round < 200; ++round) {
            std::string mutated = pristine;
            int flips = 1 + static_cast<int>(rng() % 4);
            for (int f = 0; f < flips; ++f)
                mutated[rng() % mutated.size()] =
                    static_cast<char>(rng() & 0xff);
            try {
                load(format, mutated);
            } catch (const FatalError&) {
                // rejected: fine
            }
        }
    }
}

TEST(TraceFileIo, CorruptFileErrorsNameThePath)
{
    // Only the file loaders know the path, so only they can append
    // it; the message must end with the " [file: <path>]" suffix for
    // every corruption class of either binary format.
    std::string path = tempPath("jcache_named.jct");
    auto expectPathSuffix = [&](const std::string& bytes) {
        writeFile(path, bytes);
        const std::string suffix = " [file: " + path + "]";
        try {
            loadAnyTrace(path);
            ADD_FAILURE() << "loadAnyTrace accepted corrupt bytes";
        } catch (const CorruptTraceError& e) {
            EXPECT_NE(std::string(e.what()).find(suffix),
                      std::string::npos)
                << e.what();
        }
        try {
            loadTraceInfo(path);
            // Truncated records are fine for the header path.
        } catch (const CorruptTraceError& e) {
            EXPECT_NE(std::string(e.what()).find(suffix),
                      std::string::npos)
                << e.what();
        }
    };
    expectPathSuffix("JCTR definitely not a trace");
    for (Format format : {Format::Raw, Format::Jcrc}) {
        std::string truncated = sampleBytes(format);
        truncated.resize(truncated.size() - 5);
        expectPathSuffix(truncated);
    }
    std::string bad_version = jcrcBytes();
    bad_version[5] = 9;  // JCRC version, high byte
    expectPathSuffix(bad_version);
    std::remove(path.c_str());
}

TEST(TraceFileIo, InjectedHeaderFaultSurfacesAsCorruptTrace)
{
    fault::configure("trace.read.header=always");
    std::stringstream buffer(rawBytes());
    EXPECT_THROW(readTrace(buffer), CorruptTraceError);
    fault::reset();
    std::stringstream retry(rawBytes());
    EXPECT_EQ(readTrace(retry), sampleTrace());
}

TEST(TraceFileIo, InjectedRecordFaultFailsMidRead)
{
    fault::configure("trace.read.record=n2");
    std::stringstream buffer(rawBytes());
    EXPECT_THROW(readTrace(buffer), CorruptTraceError);
    fault::reset();
}

/** Records per istream::read in readTrace(). */
constexpr std::size_t kChunk = kRawReadChunkRecords;

/** `n` records of every size and type, addresses spread over 64 bits. */
Trace
chunkTrace(std::size_t n)
{
    Trace t("chunks");
    std::mt19937_64 rng(n);
    for (std::size_t i = 0; i < n; ++i) {
        t.append({rng(), static_cast<std::uint32_t>(rng()),
                  static_cast<std::uint8_t>(1u << (i % 4)),
                  i % 3 == 0 ? RefType::Write : RefType::Read});
    }
    return t;
}

/**
 * A read-only stream buffer whose seeks fail, as a pipe's do, and
 * which hands out its bytes a thousand at a time, so one
 * istream::read spans many refills.
 */
class PipeBuf : public std::streambuf
{
  public:
    explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes))
    {
        setg(bytes_.data(), bytes_.data(), bytes_.data());
    }

  protected:
    int_type underflow() override
    {
        char* const end = bytes_.data() + bytes_.size();
        if (egptr() == end)
            return traits_type::eof();
        setg(egptr(), egptr(), std::min(egptr() + kPiece, end));
        return traits_type::to_int_type(*gptr());
    }

  private:
    static constexpr std::ptrdiff_t kPiece = 1000;
    std::string bytes_;
};

Trace
readUnseekable(const std::string& bytes)
{
    PipeBuf buf(bytes);
    std::istream is(&buf);
    return readTrace(is);
}

TEST(TraceFileIo, RoundTripsAtChunkEdges)
{
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, kChunk - 1,
                          kChunk, kChunk + 1, 2 * kChunk + 1}) {
        const Trace t = chunkTrace(n);
        const std::string bytes = rawBytes(t);
        std::stringstream seekable(bytes);
        EXPECT_EQ(readTrace(seekable), t) << n << " records, seekable";
        EXPECT_EQ(readUnseekable(bytes), t) << n << " records, unseekable";
    }
}

TEST(TraceFileIo, UnseekableStreamCannotVerifyTheCountUpFront)
{
    // The seekable path refuses these bytes before reading a record;
    // a pipe cannot be measured, so the reader must find out by
    // reading, and must not trust the header's count for its reserve.
    std::string bytes = rawBytes(chunkTrace(3));
    pokeLe(bytes, 8, 1ull << 60, 8);
    std::stringstream seekable(bytes);
    EXPECT_THROW(readTrace(seekable), CorruptTraceError);
    EXPECT_THROW(readUnseekable(bytes), CorruptTraceError);
}

TEST(TraceFileIo, UnseekableTruncationAlwaysThrows)
{
    // Cut a (C+3)-record file at every record boundary and inside
    // every record: each prefix must be refused, including those
    // that end exactly where a chunk of the reader does.
    const std::string pristine = rawBytes(chunkTrace(kChunk + 3));
    const std::size_t header = 4 + 4 + 8 + 4 + std::string("chunks").size();
    for (std::size_t k = 0; k < kChunk + 3; ++k) {
        for (std::size_t into : {std::size_t{0}, std::size_t{7}}) {
            const std::size_t len = header + 14 * k + into;
            EXPECT_THROW(readUnseekable(pristine.substr(0, len)),
                         CorruptTraceError)
                << "prefix of " << k << " records and " << into
                << " bytes parsed";
        }
    }
}

TEST(TraceFileIo, InjectedRecordFaultNamesItsRecordAcrossChunks)
{
    // trace.read.record=nK fires on the K-th record read, whichever
    // side of a chunk boundary it falls on.
    const std::string bytes = rawBytes(chunkTrace(kChunk + 3));
    for (std::size_t k : {std::size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                          kChunk + 2}) {
        fault::configure("trace.read.record=n" + std::to_string(k));
        std::stringstream buffer(bytes);
        try {
            readTrace(buffer);
            ADD_FAILURE() << "fault n" << k << " did not fire";
        } catch (const CorruptTraceError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "injected fault: short record " +
                          std::to_string(k - 1)),
                      std::string::npos)
                << e.what();
        }
        fault::reset();
    }
}

} // namespace
} // namespace jcache::trace
