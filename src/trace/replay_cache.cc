/**
 * @file
 * Implementation of the JCRC replay cache (see replay_cache.hh for
 * the format).
 */

#include "trace/replay_cache.hh"

#include <array>
#include <cstring>
#include <filesystem>
#include <optional>

#include "trace/record_digest.hh"
#include "trace/varint.hh"
#include "util/bitops.hh"
#include "util/digest.hh"
#include "util/fs.hh"

#if defined(__unix__) || defined(__APPLE__)
#define JCACHE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define JCACHE_HAVE_MMAP 0
#endif

namespace jcache::trace
{

namespace
{

/** Fixed header bytes before the trace name. */
constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 8 + 8 + 8 + 16 + 4;

/** Where the content digest sits in the header, and its length. */
constexpr std::size_t kDigestOffset = 4 + 2 + 2 + 8 + 8 + 8;
constexpr std::size_t kDigestBytes = 16;

/** Fewest payload bytes a record can take: meta + two 1-byte varints. */
constexpr std::uint64_t kMinRecordBytes = 3;

bool
isHexDigest(const std::string& digest)
{
    if (digest.size() != kDigestBytes)
        return false;
    for (char c : digest) {
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    }
    return true;
}

/**
 * Most payload bytes one record takes: the meta byte, a 10-byte
 * zigzag varint address delta (a jump of 2^62 or more) and a 5-byte
 * varint instruction delta (2^28 or more).
 */
constexpr std::size_t kMaxRecordBytes = 1 + 10 + 5;

/**
 * The JCRC file of `trace`.  Its records are digested in the walk
 * that encodes them, and the digest fills the header at
 * kDigestOffset once the walk ends.
 */
std::string
encodeReplayCache(const Trace& trace, std::size_t blockRecords)
{
    if (blockRecords == 0)
        blockRecords = 1;

    const std::string& name = trace.name();
    const std::size_t count = trace.size();
    const std::size_t block_count =
        (count + blockRecords - 1) / blockRecords;
    const std::size_t table_base = kHeaderBytes + name.size();

    // One buffer holds the whole file, reserved for the widest
    // encoding of every record so that it never moves.  Each block is
    // encoded through a pointer into headroom sized for that block
    // alone, then cut back to the bytes written: the reserve beyond
    // them is address space that no byte is ever written to.
    std::string out;
    out.reserve(table_base + 8 * block_count + count * kMaxRecordBytes);
    out.append(kReplayCacheMagic.data(), kReplayCacheMagic.size());
    appendLe<std::uint16_t>(out, kReplayCacheVersion);
    appendLe<std::uint16_t>(out, 0); // flags, reserved
    appendLe<std::uint64_t>(out, count);
    appendLe<std::uint64_t>(out, blockRecords);
    appendLe<std::uint64_t>(out, block_count);
    out.append(kDigestBytes, '0'); // filled in after the walk
    appendLe<std::uint32_t>(out, static_cast<std::uint32_t>(name.size()));
    out.append(name);
    out.resize(table_base + 8 * block_count); // the offset table

    std::uint64_t digest = util::kFnvOffset;
    for (std::size_t b = 0; b < block_count; ++b) {
        const std::size_t first = b * blockRecords;
        const std::size_t n = std::min(blockRecords, count - first);
        const std::size_t start = out.size();
        for (unsigned i = 0; i < 8; ++i)
            out[table_base + 8 * b + i] =
                static_cast<char>((start >> (8 * i)) & 0xff);

        out.resize(start + n * kMaxRecordBytes);
        char* const base = out.data();
        char* p = base + start;
        Addr prev_addr = 0; // reset per block: blocks decode alone
        for (std::size_t i = 0; i < n; ++i) {
            const TraceRecord& r = trace[first + i];
            *p++ = static_cast<char>((r.type == RefType::Write ? 1 : 0) |
                                     (floorLog2(r.size) << 1));
            // The delta wraps modulo 2^64, so any jump fits.
            p = putVarint(p, zigzagEncode(static_cast<std::int64_t>(
                                 r.addr - prev_addr)));
            p = putVarint(p, r.instrDelta);
            prev_addr = r.addr;
            digest = digestRecord(digest, r);
        }
        out.resize(static_cast<std::size_t>(p - base));
    }
    out.replace(kDigestOffset, kDigestBytes, util::hexDigest(digest));
    return out;
}

/** `<dir>/lock` — the writers' lock of a replay-cache directory. */
std::string
replayCacheLockPath(const std::string& dir)
{
    return dir + "/lock";
}

} // namespace

std::string
replayCachePath(const std::string& dir, const std::string& digestHex)
{
    return dir + "/" + digestHex + ".jcrc";
}

void
sweepReplayCacheDir(const std::string& dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return;
    util::FileLock lock(replayCacheLockPath(dir));
    for (const fs::directory_entry& entry :
         fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".tmp")
            fs::remove(entry.path(), ec);
    }
}

void
writeReplayCache(const Trace& trace, const std::string& path,
                 std::size_t blockRecords)
{
    util::atomicWriteFile(path, encodeReplayCache(trace, blockRecords));
}

std::string
ensureReplayCache(const Trace& trace, const std::string& dir,
                  std::size_t blockRecords)
{
    // The file is named by the digest, which is known only once the
    // records are encoded; the bytes of a file that exists already
    // are then dropped.
    const std::string bytes = encodeReplayCache(trace, blockRecords);
    util::ensureDirectory(dir);
    const std::string path =
        replayCachePath(dir, bytes.substr(kDigestOffset, kDigestBytes));
    if (std::filesystem::exists(path))
        return path;
    util::FileLock lock(replayCacheLockPath(dir));
    util::atomicWriteFile(path, bytes);
    return path;
}

void
MappedReplayCache::corrupt(const std::string& message) const
{
    throw ReplayCacheError("corrupt replay cache: " + message +
                           " [file: " + path_ + "]");
}

MappedReplayCache::MappedReplayCache(const std::string& path)
    : path_(path)
{
#if JCACHE_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
        struct stat st = {};
        if (::fstat(fd, &st) == 0 && st.st_size > 0) {
            void* map = ::mmap(nullptr,
                               static_cast<std::size_t>(st.st_size),
                               PROT_READ, MAP_PRIVATE, fd, 0);
            if (map != MAP_FAILED) {
                data_ = static_cast<const unsigned char*>(map);
                size_ = static_cast<std::size_t>(st.st_size);
                mapped_ = true;
            }
        }
        ::close(fd);
    }
#endif
    if (!mapped_) {
        std::optional<std::string> bytes = util::readFileIfExists(path);
        if (!bytes) {
            throw util::FsError("cannot open replay cache: " + path);
        }
        buffer_ = std::move(*bytes);
        data_ = reinterpret_cast<const unsigned char*>(buffer_.data());
        size_ = buffer_.size();
    }

    // A constructor that throws never runs the destructor, so a file
    // that fails validation must release its mapping here.
    try {
        parseHeader();
    } catch (...) {
        unmap();
        throw;
    }
}

void
MappedReplayCache::parseHeader()
{
    if (size_ < kHeaderBytes)
        corrupt("file shorter than the header");

    const unsigned char* p = data_;
    const unsigned char* end = data_ + size_;
    if (std::memcmp(p, kReplayCacheMagic.data(),
                    kReplayCacheMagic.size()) != 0)
        corrupt("bad magic");
    p += kReplayCacheMagic.size();

    std::uint16_t version = 0;
    std::uint16_t flags = 0;
    std::uint64_t count = 0;
    std::uint64_t block_records = 0;
    std::uint64_t block_count = 0;
    readLe(p, end, version);
    readLe(p, end, flags);
    readLe(p, end, count);
    readLe(p, end, block_records);
    readLe(p, end, block_count);
    if (version != kReplayCacheVersion)
        corrupt("unsupported version " + std::to_string(version));
    if (flags != 0)
        corrupt("reserved flags set: " + std::to_string(flags));
    if (block_records == 0)
        corrupt("zero records per block");
    // ceil(count / block_records), without the wrap-around of
    // count + block_records - 1 near 2^64.
    const std::uint64_t expected_blocks =
        count / block_records + (count % block_records != 0 ? 1 : 0);
    if (block_count != expected_blocks) {
        corrupt("block count " + std::to_string(block_count) +
                " does not cover " + std::to_string(count) + " records");
    }

    digest_.assign(reinterpret_cast<const char*>(p), kDigestBytes);
    p += kDigestBytes;
    if (!isHexDigest(digest_))
        corrupt("malformed content digest");

    std::uint32_t name_len = 0;
    readLe(p, end, name_len);
    if (name_len > kMaxTraceNameBytes)
        corrupt("trace name length " + std::to_string(name_len) +
                " exceeds the cap");
    const auto after_name_field = static_cast<std::uint64_t>(end - p);
    if (after_name_field < name_len ||
        (after_name_field - name_len) / 8 < block_count)
        corrupt("truncated before the offset table ends");
    name_.assign(reinterpret_cast<const char*>(p), name_len);
    p += name_len;

    // Every record takes at least kMinRecordBytes of payload, so a
    // count the file cannot hold is a forged header, caught here
    // rather than as a giant allocation in the first cursor.
    const std::uint64_t payload_base =
        kHeaderBytes + name_len + 8 * block_count;
    const std::uint64_t payload_bytes = size_ - payload_base;
    if (count > payload_bytes / kMinRecordBytes) {
        corrupt("header claims " + std::to_string(count) +
                " records but only " + std::to_string(payload_bytes) +
                " payload bytes follow");
    }

    count_ = count;
    block_records_ = static_cast<std::size_t>(block_records);
    block_count_ = static_cast<std::size_t>(block_count);
    offsets_ = p;
    identity_ = traceIdentity(name_, digest_, count_);

    // The offset table must be monotone and in bounds; the payload
    // bytes themselves are validated by decodeBlock.
    std::uint64_t prev = payload_base;
    for (std::size_t b = 0; b < block_count_; ++b) {
        const unsigned char* op = offsets_ + 8 * b;
        std::uint64_t offset = 0;
        readLe(op, end, offset);
        if (offset < prev || offset > size_)
            corrupt("offset table entry " + std::to_string(b) +
                    " out of order or out of bounds");
        prev = offset;
    }
}

MappedReplayCache::~MappedReplayCache()
{
    unmap();
}

void
MappedReplayCache::unmap()
{
#if JCACHE_HAVE_MMAP
    if (mapped_)
        ::munmap(const_cast<unsigned char*>(data_), size_);
#endif
}

std::size_t
MappedReplayCache::blockSize(std::size_t index) const
{
    const std::size_t first = index * block_records_;
    return std::min(block_records_,
                    static_cast<std::size_t>(count_) - first);
}

void
MappedReplayCache::decodeBlock(std::size_t index,
                               std::vector<TraceRecord>& out) const
{
    const unsigned char* op = offsets_ + 8 * index;
    std::uint64_t start = 0;
    readLe(op, data_ + size_, start);
    std::uint64_t stop = size_;
    if (index + 1 < block_count_) {
        const unsigned char* np = offsets_ + 8 * (index + 1);
        readLe(np, data_ + size_, stop);
    }

    const unsigned char* p = data_ + start;
    const unsigned char* end = data_ + stop;
    const std::size_t n = blockSize(index);
    out.clear();
    out.reserve(n);
    Addr prev_addr = 0;
    for (std::size_t i = 0; i < n; ++i) {
        auto what = [&] {
            return "record " + std::to_string(i) + " of block " +
                   std::to_string(index);
        };
        if (p >= end)
            corrupt("truncated at " + what());
        const unsigned char meta = *p++;
        if ((meta & ~0x07u) != 0)
            corrupt("reserved meta bits set in " + what());
        TraceRecord r;
        r.type = (meta & 1) ? RefType::Write : RefType::Read;
        r.size = static_cast<std::uint8_t>(1u << ((meta >> 1) & 0x3));
        std::uint64_t delta = 0;
        if (!readVarint(p, end, delta))
            corrupt("bad address delta in " + what());
        r.addr = prev_addr + static_cast<Addr>(zigzagDecode(delta));
        std::uint64_t instr = 0;
        if (!readVarint(p, end, instr))
            corrupt("bad instruction delta in " + what());
        if (instr > 0xffffffffull)
            corrupt("instruction delta out of range in " + what());
        r.instrDelta = static_cast<std::uint32_t>(instr);
        prev_addr = r.addr;
        out.push_back(r);
    }
    if (p != end)
        corrupt("trailing bytes after block " + std::to_string(index));
}

class MappedReplayCache::Cursor final : public BlockCursor
{
  public:
    explicit Cursor(const MappedReplayCache& owner) : owner_(&owner) {}

    bool next(TraceBlock& out) override
    {
        if (block_ >= owner_->blockCount())
            return false;
        owner_->decodeBlock(block_, buffer_);
        out = TraceBlock{buffer_.data(), buffer_.size(),
                         block_ * owner_->blockRecords()};
        ++block_;
        return true;
    }

  private:
    const MappedReplayCache* owner_;
    std::size_t block_ = 0;
    std::vector<TraceRecord> buffer_;
};

std::unique_ptr<BlockCursor>
MappedReplayCache::blocks(std::size_t /*blockRecords*/) const
{
    return std::make_unique<Cursor>(*this);
}

} // namespace jcache::trace
