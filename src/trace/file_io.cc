/**
 * @file
 * Implementation of the raw trace file format (JCTR).
 */

#include "trace/file_io.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "trace/varint.hh"
#include "util/fault.hh"
#include "util/fs.hh"
#include "util/logging.hh"

namespace jcache::trace
{

namespace
{

/** Bytes of one raw-format record: addr + instrDelta + size + type. */
constexpr std::uint64_t kRawRecordBytes = 8 + 4 + 1 + 1;

[[noreturn]] void
corrupt(const std::string& message)
{
    throw CorruptTraceError("corrupt trace file: " + message);
}

void
corruptIf(bool condition, const std::string& message)
{
    if (condition)
        corrupt(message);
}

template <typename T>
void
putLe(std::ostream& os, T value)
{
    for (unsigned i = 0; i < sizeof(T); ++i) {
        char byte = static_cast<char>((value >> (8 * i)) & 0xff);
        os.put(byte);
    }
}

template <typename T>
T
getLe(std::istream& is)
{
    T value = 0;
    for (unsigned i = 0; i < sizeof(T); ++i) {
        int byte = is.get();
        if (byte == std::char_traits<char>::eof())
            corrupt("truncated");
        value |= static_cast<T>(static_cast<std::uint8_t>(byte))
                 << (8 * i);
    }
    return value;
}

/**
 * Bytes left in the stream after the header, or -1 when the stream is
 * not seekable.  Lets the reader reject a header whose record count
 * the stream cannot possibly hold before allocating anything.
 */
std::int64_t
remainingBytes(std::istream& is)
{
    std::istream::pos_type here = is.tellg();
    if (here == std::istream::pos_type(-1))
        return -1;
    is.seekg(0, std::ios::end);
    std::istream::pos_type end = is.tellg();
    is.seekg(here);
    if (end == std::istream::pos_type(-1) || end < here)
        return -1;
    return static_cast<std::int64_t>(end - here);
}

} // namespace

void
writeTrace(const Trace& trace, std::ostream& os)
{
    os.write(kRawTraceMagic.data(), kRawTraceMagic.size());
    putLe<std::uint32_t>(os, kTraceFormatVersion);
    putLe<std::uint64_t>(os, trace.size());
    putLe<std::uint32_t>(
        os, static_cast<std::uint32_t>(trace.name().size()));
    os.write(trace.name().data(),
             static_cast<std::streamsize>(trace.name().size()));
    for (const TraceRecord& r : trace) {
        putLe<std::uint64_t>(os, r.addr);
        putLe<std::uint32_t>(os, r.instrDelta);
        putLe<std::uint8_t>(os, r.size);
        putLe<std::uint8_t>(os, static_cast<std::uint8_t>(r.type));
    }
}

void
saveTrace(const Trace& trace, const std::string& path)
{
    fatalIf(JCACHE_FAULT("trace.write"),
            "cannot open trace file for writing: " + path);
    // Render in memory, then write-then-rename (util/fs.hh): a crash
    // or full disk never leaves a torn trace under the final name.
    std::ostringstream oss;
    writeTrace(trace, oss);
    util::atomicWriteFile(path, oss.str());
}

TraceFileInfo
readTraceInfo(std::istream& is)
{
    corruptIf(JCACHE_FAULT("trace.read.header"),
              "injected fault: torn header");

    std::array<char, 4> magic = {};
    is.read(magic.data(), magic.size());
    corruptIf(!is || magic != kRawTraceMagic, "not a jcache trace file");

    TraceFileInfo info;
    info.format = "raw";
    info.version = getLe<std::uint32_t>(is);
    corruptIf(info.version != kTraceFormatVersion,
              "unsupported trace file version " +
                  std::to_string(info.version));

    info.records = getLe<std::uint64_t>(is);
    auto name_len = getLe<std::uint32_t>(is);
    corruptIf(name_len > kMaxTraceNameBytes,
              "unreasonable name length " + std::to_string(name_len));
    info.name.assign(name_len, '\0');
    is.read(info.name.data(), name_len);
    corruptIf(!is, "truncated in name");
    return info;
}

Trace
readTrace(std::istream& is)
{
    TraceFileInfo info = readTraceInfo(is);
    std::uint64_t count = info.records;

    // Sanity-check the claimed record count against what the stream
    // actually holds: a corrupt or hostile header must fail here, not
    // as a giant allocation or a short read mistaken for success.
    std::int64_t remaining = remainingBytes(is);
    if (remaining >= 0) {
        auto avail = static_cast<std::uint64_t>(remaining);
        corruptIf(count > avail / kRawRecordBytes,
                  "header claims " + std::to_string(count) +
                      " records but only " + std::to_string(avail) +
                      " bytes follow");
        corruptIf(count * kRawRecordBytes != avail,
                  std::to_string(avail - count * kRawRecordBytes) +
                      " trailing bytes after the last record");
    }

    Trace trace(info.name);
    // With an unseekable stream the count is unverified; cap the
    // upfront reservation and let append() grow past it if the data
    // really is there.
    constexpr std::uint64_t kMaxBlindReserve = 1u << 20;
    trace.reserve(remaining >= 0 ? count
                                 : std::min(count, kMaxBlindReserve));

    // The fault site is evaluated once per record, the short one too,
    // and its message is built only when it fires.
    auto faultAt = [](std::uint64_t i) {
        if (JCACHE_FAULT("trace.read.record"))
            corrupt("injected fault: short record " + std::to_string(i));
    };
    std::vector<unsigned char> chunk(
        std::min<std::uint64_t>(count, kRawReadChunkRecords) *
        kRawRecordBytes);
    for (std::uint64_t i = 0; i < count;) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(count - i, kRawReadChunkRecords));
        is.read(reinterpret_cast<char*>(chunk.data()),
                static_cast<std::streamsize>(want * kRawRecordBytes));
        const std::size_t got =
            static_cast<std::size_t>(is.gcount()) / kRawRecordBytes;
        for (std::size_t k = 0; k < got; ++k, ++i) {
            faultAt(i);
            const unsigned char* p = chunk.data() + k * kRawRecordBytes;
            TraceRecord r;
            r.addr = loadLe<std::uint64_t>(p);
            r.instrDelta = loadLe<std::uint32_t>(p + 8);
            r.size = p[12];
            r.type = static_cast<RefType>(p[13]);
            trace.append(r);
        }
        if (got < want) {
            faultAt(i);
            corrupt("truncated");
        }
    }
    validate(trace);
    return trace;
}

} // namespace jcache::trace
