/**
 * @file
 * Implementation of the text interchange encoding and of the loaders
 * that sniff a trace file's kind.
 *
 * The text grammar is specified normatively in docs/TRACE_FORMAT.md;
 * a ctest re-parses that document's worked examples against this code
 * so the two cannot drift apart silently.
 */

#include "trace/import.hh"

#include <array>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "trace/replay.hh"
#include "trace/replay_cache.hh"
#include "util/fault.hh"
#include "util/fs.hh"
#include "util/logging.hh"

namespace jcache::trace
{

namespace
{

bool
isInterchangeSize(std::uint64_t size)
{
    return size == 1 || size == 2 || size == 4 || size == 8;
}

/** Split on spaces/tabs; a '#' has already been cut by the caller. */
std::vector<std::string_view>
splitTokens(std::string_view line)
{
    std::vector<std::string_view> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t'))
            ++i;
        std::size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t')
            ++i;
        if (i > start)
            tokens.push_back(line.substr(start, i - start));
    }
    return tokens;
}

/**
 * The first four bytes of a stream, which is then rewound; zeros
 * where the stream is shorter.
 */
std::array<char, 4>
sniffMagic(std::istream& is)
{
    std::array<char, 4> magic = {};
    is.read(magic.data(), magic.size());
    is.clear();
    is.seekg(0);
    return magic;
}

/**
 * Run a JCTR stream reader, appending ` [file: <path>]` to its
 * CorruptTraceError: only here is the path known, and a corrupt trace
 * in a sweep over dozens of files must name which one.
 */
template <typename Fn>
auto
withFileName(const std::string& path, Fn&& read)
{
    try {
        return read();
    } catch (const CorruptTraceError& e) {
        throw CorruptTraceError(std::string(e.what()) + " [file: " +
                                path + "]");
    }
}

/** Parse an unsigned decimal or hex token in full, or report false. */
bool
parseUnsigned(std::string_view token, int base, std::uint64_t& out)
{
    if (token.empty())
        return false;
    const char* first = token.data();
    const char* last = token.data() + token.size();
    auto [ptr, ec] = std::from_chars(first, last, out, base);
    return ec == std::errc() && ptr == last;
}

} // namespace

TraceParseError::TraceParseError(const std::string& source,
                                 std::uint64_t line,
                                 const std::string& message)
    : CorruptTraceError(source + ": line " + std::to_string(line) +
                        ": " + message),
      source_(source), line_(line)
{}

void
exportTraceText(const Trace& trace, std::ostream& os)
{
    // One constant banner comment: export is a pure function of the
    // record stream, so import -> export reproduces a file exactly.
    os << "# jcache trace text v1\n";
    char buf[64];
    for (const TraceRecord& r : trace) {
        char* p = buf;
        *p++ = r.type == RefType::Write ? 'w' : 'r';
        *p++ = ' ';
        *p++ = '0';
        *p++ = 'x';
        p = std::to_chars(p, buf + sizeof buf, r.addr, 16).ptr;
        *p++ = ' ';
        p = std::to_chars(p, buf + sizeof buf,
                          static_cast<unsigned>(r.size)).ptr;
        *p++ = ' ';
        p = std::to_chars(p, buf + sizeof buf, r.instrDelta).ptr;
        *p++ = '\n';
        os.write(buf, p - buf);
    }
}

void
saveTraceText(const Trace& trace, const std::string& path)
{
    fatalIf(JCACHE_FAULT("trace.write"),
            "cannot open trace file for writing: " + path);
    // As saveTrace(): render in memory, then write-then-rename, so a
    // failed export never truncates the file it would replace.
    std::ostringstream oss;
    exportTraceText(trace, oss);
    util::atomicWriteFile(path, oss.str());
}

Trace
importTraceText(std::istream& is, const std::string& name,
                const std::string& source)
{
    if (JCACHE_FAULT("trace.import")) {
        throw TraceParseError(source, 1,
                              "injected fault: import aborted");
    }

    Trace trace(name);
    char buf[kMaxTextLineBytes];
    for (std::uint64_t line_no = 1;; ++line_no) {
        is.getline(buf, static_cast<std::streamsize>(sizeof buf));
        std::size_t got = static_cast<std::size_t>(is.gcount());
        if (is.fail()) {
            // getline sets failbit both for an overlong line (buffer
            // filled without finding '\n') and for eof-with-nothing;
            // only the former is an error.
            if (got == kMaxTextLineBytes - 1) {
                throw TraceParseError(
                    source, line_no,
                    "line exceeds " +
                        std::to_string(kMaxTextLineBytes) + " bytes");
            }
            break;
        }
        // gcount includes the consumed '\n' unless the file ended.
        std::size_t len = is.eof() ? got : got - 1;
        std::string_view line(buf, len);
        if (line.find('\0') != std::string_view::npos) {
            throw TraceParseError(source, line_no,
                                  "unexpected NUL byte (binary data "
                                  "fed to the text importer?)");
        }
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        if (std::size_t hash = line.find('#');
            hash != std::string_view::npos)
            line = line.substr(0, hash);

        std::vector<std::string_view> tokens = splitTokens(line);
        if (tokens.empty())
            continue;

        auto fail = [&](const std::string& message) -> void {
            throw TraceParseError(source, line_no, message);
        };
        if (tokens.size() < 3 || tokens.size() > 4) {
            fail("expected '<r|w> <hex-addr> <size> [instr-delta]', "
                 "got " + std::to_string(tokens.size()) + " fields");
        }

        TraceRecord r;
        std::string_view op = tokens[0];
        if (op == "r" || op == "R") {
            r.type = RefType::Read;
        } else if (op == "w" || op == "W") {
            r.type = RefType::Write;
        } else {
            fail("bad opcode '" + std::string(op) +
                 "' (expected r or w)");
        }

        std::string_view addr = tokens[1];
        if (addr.size() > 2 && addr[0] == '0' &&
            (addr[1] == 'x' || addr[1] == 'X'))
            addr = addr.substr(2);
        std::uint64_t addr_value = 0;
        if (addr.size() > 16 || !parseUnsigned(addr, 16, addr_value)) {
            fail("bad address '" + std::string(tokens[1]) +
                 "' (expected up to 16 hex digits)");
        }
        r.addr = addr_value;

        std::uint64_t size_value = 0;
        if (!parseUnsigned(tokens[2], 10, size_value) ||
            !isInterchangeSize(size_value)) {
            fail("bad size '" + std::string(tokens[2]) +
                 "' (expected 1, 2, 4 or 8)");
        }
        r.size = static_cast<std::uint8_t>(size_value);

        if (tokens.size() == 4) {
            std::uint64_t delta = 0;
            if (!parseUnsigned(tokens[3], 10, delta) ||
                delta > 0xffffffffull) {
                fail("bad instruction delta '" +
                     std::string(tokens[3]) +
                     "' (expected decimal <= 2^32-1)");
            }
            r.instrDelta = static_cast<std::uint32_t>(delta);
        }
        trace.append(r);
    }
    return trace;
}

Trace
loadAnyTrace(const std::string& path)
{
    std::ifstream ifs(path, std::ios::binary);
    fatalIf(!ifs, "cannot open trace file for reading: " + path);
    const std::array<char, 4> magic = sniffMagic(ifs);
    if (magic == kReplayCacheMagic)
        return materialize(MappedReplayCache(path));
    if (magic == kRawTraceMagic)
        return withFileName(path, [&] { return readTrace(ifs); });
    return importTraceText(ifs, defaultTraceName(path), path);
}

TraceFileInfo
loadTraceInfo(const std::string& path)
{
    std::ifstream ifs(path, std::ios::binary);
    fatalIf(!ifs, "cannot open trace file for reading: " + path);
    if (sniffMagic(ifs) == kReplayCacheMagic) {
        MappedReplayCache cache(path);
        return {"jcrc", kReplayCacheVersion, cache.records(),
                cache.name()};
    }
    return withFileName(path, [&] { return readTraceInfo(ifs); });
}

std::string
defaultTraceName(const std::string& path)
{
    std::string stem =
        std::filesystem::path(path).stem().string();
    return stem.empty() ? "trace" : stem;
}

} // namespace jcache::trace
