/**
 * @file
 * Tests for the trace file boundary (trace/import.hh): exact round
 * trips through the text encoding and JCRC, typed rejection of
 * malformed text with line numbers, loadAnyTrace()'s sniffing, and
 * the staleness check that keeps docs/TRACE_FORMAT.md's worked
 * examples in lockstep with the implementation.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/engine.hh"
#include "trace/import.hh"
#include "trace/replay_cache.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

namespace jcache::trace
{
namespace
{

/** Every size class, negative deltas, a 64-bit address, big deltas. */
Trace
sampleTrace()
{
    Trace t("sample");
    t.append({0x10000, 1, 4, RefType::Read});
    t.append({0x10008, 3, 8, RefType::Write});
    t.append({0xffffffffdeadbee0ull, 70000, 4, RefType::Read});
    t.append({0x10010, 1, 2, RefType::Write});
    t.append({0x10012, 2, 1, RefType::Read});
    return t;
}

std::string
textBytes(const Trace& t)
{
    std::ostringstream os;
    exportTraceText(t, os);
    return os.str();
}

std::string
readFile(const std::string& path)
{
    std::ifstream ifs(path, std::ios::binary);
    std::ostringstream os;
    os << ifs.rdbuf();
    return os.str();
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream ofs(path, std::ios::binary | std::ios::trunc);
    ofs.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** `t` written as JCRC and read back through loadAnyTrace(). */
Trace
viaJcrc(const Trace& t)
{
    const std::string path =
        ::testing::TempDir() + "/jcache_import_roundtrip.jct";
    writeReplayCache(t, path);
    Trace loaded = loadAnyTrace(path);
    std::remove(path.c_str());
    return loaded;
}

/** Expect a TraceParseError pinned to the given line. */
template <typename Fn>
TraceParseError
expectParseError(Fn&& fn, std::uint64_t line)
{
    try {
        fn();
    } catch (const TraceParseError& e) {
        EXPECT_EQ(e.line(), line) << e.what();
        return e;
    }
    ADD_FAILURE() << "expected TraceParseError";
    return TraceParseError("", 0, "");
}

TEST(TraceImportText, RoundTripsExactly)
{
    Trace original = sampleTrace();
    std::istringstream is(textBytes(original));
    Trace loaded = importTraceText(is, "sample");
    EXPECT_EQ(loaded, original);
}

TEST(TraceImportText, ExportIsCanonical)
{
    // import -> export reproduces the exported bytes exactly: the
    // exporter is a pure function of the record stream.
    std::string first = textBytes(sampleTrace());
    std::istringstream is(first);
    EXPECT_EQ(textBytes(importTraceText(is, "x")), first);
}

TEST(TraceImportText, AcceptsForeignSpelling)
{
    // Comments, blank lines, CRLF, upper-case opcodes, bare hex,
    // tabs, and the 3-field shorthand (instr-delta defaults to 1).
    std::istringstream is(
        "# produced by some other tool\n"
        "\n"
        "R 0x10000 4\r\n"
        "w 10008\t8  3\n"
        "  r 0X10010 2 5   # trailing comment\n");
    Trace t = importTraceText(is, "foreign");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0], (TraceRecord{0x10000, 1, 4, RefType::Read}));
    EXPECT_EQ(t[1], (TraceRecord{0x10008, 3, 8, RefType::Write}));
    EXPECT_EQ(t[2], (TraceRecord{0x10010, 5, 2, RefType::Read}));
}

TEST(TraceImportText, EmptyInputsYieldEmptyTraces)
{
    for (const char* body : {"", "# only a comment\n", "\n\n"}) {
        std::istringstream is(body);
        Trace t = importTraceText(is, "empty");
        EXPECT_TRUE(t.empty()) << '"' << body << '"';
        EXPECT_EQ(t.name(), "empty");
    }
    // And an exported empty trace (banner only) round-trips.
    std::istringstream is(textBytes(Trace("empty")));
    EXPECT_TRUE(importTraceText(is, "empty").empty());
}

TEST(TraceImportText, RejectsMalformedLinesWithLineNumbers)
{
    auto importAt = [](const std::string& body) {
        return [body] {
            std::istringstream is(body);
            importTraceText(is, "bad");
        };
    };
    // Bad opcode on line 2 (line 1 is a comment).
    TraceParseError e = expectParseError(
        importAt("# ok\nx 0x10 4\n"), 2);
    EXPECT_NE(std::string(e.what()).find("bad opcode 'x'"),
              std::string::npos);
    EXPECT_EQ(e.source(), "<text>");

    // Bad address (non-hex, and wider than 16 digits).
    expectParseError(importAt("r zz 4\n"), 1);
    expectParseError(importAt("r 0x10000000000000000 4\n"), 1);
    // Bad size (not a power of two <= 8, or non-numeric).
    expectParseError(importAt("r 0x10 3\n"), 1);
    expectParseError(importAt("r 0x10 16\n"), 1);
    expectParseError(importAt("r 0x10 4q\n"), 1);
    // Bad instruction delta (> 2^32-1, or non-numeric).
    expectParseError(importAt("r 0x10 4 4294967296\n"), 1);
    expectParseError(importAt("r 0x10 4 -1\n"), 1);
    // Wrong field counts.
    expectParseError(importAt("r 0x10\n"), 1);
    expectParseError(importAt("r 0x10 4 1 extra\n"), 1);
}

TEST(TraceImportText, RejectsOverlongLinesAndBinaryBytes)
{
    std::string overlong(kMaxTextLineBytes + 40, 'r');
    TraceParseError e = expectParseError(
        [&] {
            std::istringstream is("r 0x10 4\n" + overlong + "\n");
            importTraceText(is, "bad");
        },
        2);
    EXPECT_NE(std::string(e.what()).find("exceeds"),
              std::string::npos);

    // A NUL byte is the signature of binary data in the text path.
    std::string nul_body("r 0x10 4\nr \0x 4\n", 16);
    expectParseError(
        [&] {
            std::istringstream is(nul_body);
            importTraceText(is, "bad");
        },
        2);
}

TEST(TraceImportText, ErrorMessageSpellsSourceAndLine)
{
    std::istringstream is("bogus\n");
    try {
        importTraceText(is, "bad", "upload.txt");
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError& e) {
        EXPECT_EQ(std::string(e.what()).find("upload.txt: line 1: "),
                  0u)
            << e.what();
        EXPECT_EQ(e.source(), "upload.txt");
    }
}

TEST(TraceImportFiles, LoadAnyTraceHandlesEveryEncoding)
{
    Trace original = sampleTrace();
    std::string dir = ::testing::TempDir();

    // The binary files carry their own name.
    std::string jcrc = dir + "/any_jcrc.jct";
    writeReplayCache(original, jcrc);
    EXPECT_EQ(readFile(jcrc).substr(0, 4), "JCRC");
    EXPECT_EQ(loadAnyTrace(jcrc), original);

    std::string native = dir + "/any_native.jct";
    saveTrace(original, native);
    EXPECT_EQ(loadAnyTrace(native), original);

    // Text: the stem names the import.
    std::string text = dir + "/any_text.txt";
    saveTraceText(original, text);
    Trace t = loadAnyTrace(text);
    EXPECT_EQ(t.name(), "any_text");
    EXPECT_TRUE(std::equal(t.begin(), t.end(), original.begin(),
                           original.end()));

    for (const std::string& path : {jcrc, native, text})
        std::remove(path.c_str());
}

TEST(TraceImportFiles, ShortFilesFallThroughToText)
{
    // Fewer than four bytes cannot be a binary file; they are text
    // (here: blank, so an empty trace; "JCR" is a malformed line).
    std::string path = ::testing::TempDir() + "/any_short.txt";
    writeFile(path, "\n");
    EXPECT_TRUE(loadAnyTrace(path).empty());
    writeFile(path, "JCR");
    expectParseError([&] { loadAnyTrace(path); }, 1);
    std::remove(path.c_str());
}

TEST(TraceImportFiles, FailedTextExportKeepsTheOldFile)
{
    // A failed save must not truncate the file it would replace: the
    // old file still loads with all of its records.
    std::string path = ::testing::TempDir() + "/any_export.txt";
    Trace original = sampleTrace();
    saveTraceText(original, path);
    fault::configure("trace.write=always");
    EXPECT_THROW(saveTraceText(Trace("other"), path), FatalError);
    fault::reset();
    Trace loaded = loadAnyTrace(path);
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_TRUE(std::equal(loaded.begin(), loaded.end(),
                           original.begin(), original.end()));
    std::remove(path.c_str());
}

TEST(TraceImportFiles, CorruptFileErrorsNameThePath)
{
    std::string path = ::testing::TempDir() + "/any_corrupt.jct";
    {
        // Native magic with a chopped-off header: the stream-level
        // reader's error must come back wearing the file path.
        std::ofstream ofs(path, std::ios::binary);
        ofs << "JCTR\x01";
    }
    try {
        loadAnyTrace(path);
        FAIL() << "expected CorruptTraceError";
    } catch (const TraceParseError&) {
        FAIL() << "native corruption must not be a parse error";
    } catch (const CorruptTraceError& e) {
        EXPECT_NE(
            std::string(e.what()).find(" [file: " + path + "]"),
            std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());

    EXPECT_THROW(loadAnyTrace("/nonexistent/trace.txt"), FatalError);
}

TEST(TraceImportFiles, ParseErrorsNameTheFileAndLine)
{
    std::string path = ::testing::TempDir() + "/any_badline.txt";
    {
        std::ofstream ofs(path);
        ofs << "r 0x10 4\nnot a record\n";
    }
    try {
        loadAnyTrace(path);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError& e) {
        EXPECT_EQ(e.source(), path);
        EXPECT_EQ(e.line(), 2u);
    }
    std::remove(path.c_str());
}

TEST(TraceImportFiles, DefaultTraceNameIsTheStem)
{
    EXPECT_EQ(defaultTraceName("/a/b/foo.txt"), "foo");
    EXPECT_EQ(defaultTraceName("bar.trace.txt"), "bar.trace");
    EXPECT_EQ(defaultTraceName(""), "trace");
}

TEST(TraceImportFault, InjectedImportFaultSurfacesTyped)
{
    fault::configure("trace.import=always");
    std::istringstream text(textBytes(sampleTrace()));
    EXPECT_THROW(importTraceText(text, "x"), TraceParseError);
    fault::reset();

    std::istringstream retry(textBytes(sampleTrace()));
    EXPECT_EQ(importTraceText(retry, "sample"), sampleTrace());
}

class WorkloadRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadRoundTrip, TextAndJcrcReproduceTheRecordStream)
{
    workloads::WorkloadConfig config;
    config.scale = 1;
    Trace original = workloads::generateTrace(
        *workloads::makeWorkload(GetParam(), config));

    std::istringstream text(textBytes(original));
    EXPECT_EQ(importTraceText(text, original.name()), original);

    EXPECT_EQ(viaJcrc(original), original);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadRoundTrip,
    ::testing::ValuesIn(workloads::allWorkloadNames()),
    [](const auto& info) { return info.param; });

TEST(TraceImportSim, RoundTrippedTraceSimulatesIdentically)
{
    // The round-trip invariant, end to end: counters from a
    // re-imported trace match the original bit for bit.
    Trace original = workloads::generateTrace(
        *workloads::makeWorkload("met"));
    std::istringstream text(textBytes(original));
    Trace imported = importTraceText(text, original.name());

    core::CacheConfig config;
    config.hitPolicy = core::WriteHitPolicy::WriteBack;
    sim::RunResult a =
        sim::runOne({&original, config, true}, sim::Engine::OnePass);
    sim::RunResult b =
        sim::runOne({&imported, config, true}, sim::Engine::OnePass);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cache.readHits, b.cache.readHits);
    EXPECT_EQ(a.cache.writeMisses, b.cache.writeMisses);
    EXPECT_EQ(a.writeBackTraffic.bytes, b.writeBackTraffic.bytes);
    EXPECT_EQ(a.flushTraffic.transactions,
              b.flushTraffic.transactions);
}

#ifdef JCACHE_DOCS_DIR

/** The fenced code block following an HTML marker comment. */
std::string
fencedBlockAfter(const std::string& text, const std::string& marker)
{
    std::size_t at = text.find(marker);
    EXPECT_NE(at, std::string::npos) << "missing marker " << marker;
    if (at == std::string::npos)
        return "";
    std::size_t open = text.find("```", at);
    EXPECT_NE(open, std::string::npos);
    open = text.find('\n', open) + 1;
    std::size_t close = text.find("```", open);
    EXPECT_NE(close, std::string::npos);
    return text.substr(open, close - open);
}

std::string
readDoc()
{
    std::string path =
        std::string(JCACHE_DOCS_DIR) + "/TRACE_FORMAT.md";
    std::ifstream ifs(path);
    EXPECT_TRUE(ifs) << "cannot open " << path;
    std::ostringstream os;
    os << ifs.rdbuf();
    return os.str();
}

/** Hex pairs (whitespace-separated lines) to raw bytes. */
std::string
hexToBytes(const std::string& hex)
{
    std::string out;
    unsigned value = 0;
    int digits = 0;
    for (char c : hex) {
        int nibble = -1;
        if (c >= '0' && c <= '9')
            nibble = c - '0';
        else if (c >= 'a' && c <= 'f')
            nibble = c - 'a' + 10;
        else
            EXPECT_TRUE(c == ' ' || c == '\n') << "bad hex: " << c;
        if (nibble < 0)
            continue;
        value = value * 16 + static_cast<unsigned>(nibble);
        if (++digits == 2) {
            out.push_back(static_cast<char>(value));
            value = 0;
            digits = 0;
        }
    }
    EXPECT_EQ(digits, 0) << "odd number of hex digits";
    return out;
}

TEST(TraceFormatDoc, WorkedExamplesMatchTheImplementation)
{
    // docs/TRACE_FORMAT.md carries one example trace as text and as
    // a JCRC file.  Both blocks must parse, must describe the same
    // records, and must be byte-for-byte what the writers emit — so
    // any change to either format forces a doc update.
    std::string doc = readDoc();

    std::string text_block =
        fencedBlockAfter(doc, "<!-- example:text -->");
    ASSERT_FALSE(text_block.empty());
    std::istringstream text_is(text_block);
    Trace from_text = importTraceText(text_is, "example");
    ASSERT_GT(from_text.size(), 0u);
    EXPECT_EQ(textBytes(from_text), text_block)
        << "text example is not the canonical export";

    // The JCRC example holds the same records: loadAnyTrace() reads
    // it back, and writeReplayCache() at the example's block size
    // reproduces it byte for byte.
    std::string hex_block =
        fencedBlockAfter(doc, "<!-- example:jcrc-hex -->");
    ASSERT_FALSE(hex_block.empty());
    std::string bytes = hexToBytes(hex_block);
    const std::string path =
        ::testing::TempDir() + "/jcache_doc_example.jct";
    writeFile(path, bytes);
    Trace from_jcrc = loadAnyTrace(path);
    EXPECT_EQ(from_jcrc, from_text)
        << "the two example blocks describe different traces";
    const std::size_t block_records =
        MappedReplayCache(path).blockRecords();
    writeReplayCache(from_text, path, block_records);
    EXPECT_EQ(readFile(path), bytes)
        << "JCRC example is not what writeReplayCache emits";
    std::remove(path.c_str());
}

#endif // JCACHE_DOCS_DIR

} // namespace
} // namespace jcache::trace
