/**
 * @file
 * Implementation of the persistent result store.
 */

#include "store/store.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <tuple>
#include <vector>

#include "telemetry/metrics.hh"
#include "telemetry/trace_writer.hh"
#include "util/digest.hh"
#include "util/fault.hh"
#include "util/fs.hh"

namespace jcache::store
{

namespace
{

namespace fs = std::filesystem;

/** Blob framing: magic | u32 version | u64 payload bytes | digest. */
constexpr char kBlobMagic[4] = {'J', 'C', 'R', 'O'};
constexpr std::uint32_t kBlobVersion = 1;
constexpr std::size_t kDigestChars = 16;
constexpr std::size_t kBlobHeaderBytes =
    sizeof(kBlobMagic) + sizeof(std::uint32_t) +
    sizeof(std::uint64_t) + kDigestChars;

template <typename T>
void
appendLe(std::string& out, T value)
{
    auto bits = static_cast<std::uint64_t>(value);
    for (unsigned i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
}

template <typename T>
T
readLe(const std::string& in, std::size_t offset)
{
    T value = 0;
    for (unsigned i = 0; i < sizeof(T); ++i) {
        value |= static_cast<T>(
                     static_cast<std::uint8_t>(in[offset + i]))
                 << (8 * i);
    }
    return value;
}

/** Frame a payload as one blob document. */
std::string
encodeBlob(const std::string& payload)
{
    std::string blob;
    blob.reserve(kBlobHeaderBytes + payload.size());
    blob.append(kBlobMagic, sizeof(kBlobMagic));
    appendLe<std::uint32_t>(blob, kBlobVersion);
    appendLe<std::uint64_t>(blob, payload.size());
    blob += util::fnv1aHex(payload);
    blob += payload;
    return blob;
}

/**
 * Validate framing shared by the cheap open-time check and the full
 * lookup-time check: magic, version, and the claimed payload size
 * against the actual byte count.
 */
void
checkHeader(const std::string& head, std::uint64_t actual_bytes,
            const std::string& path)
{
    if (head.size() < kBlobHeaderBytes ||
        head.compare(0, sizeof(kBlobMagic), kBlobMagic,
                     sizeof(kBlobMagic)) != 0)
        throw CorruptStoreError("not a store blob: " + path);
    auto version =
        readLe<std::uint32_t>(head, sizeof(kBlobMagic));
    if (version != kBlobVersion)
        throw CorruptStoreError(
            "unsupported blob version " + std::to_string(version) +
            ": " + path);
    auto claimed = readLe<std::uint64_t>(
        head, sizeof(kBlobMagic) + sizeof(std::uint32_t));
    if (claimed != actual_bytes)
        throw CorruptStoreError(
            "torn blob (header claims " + std::to_string(claimed) +
            " payload bytes, " + std::to_string(actual_bytes) +
            " present): " + path);
}

/**
 * Decode one blob document, verifying the payload digest.  Throws
 * CorruptStoreError for any tear or mismatch.
 */
std::string
decodeBlob(const std::string& blob, const std::string& path)
{
    if (blob.size() < kBlobHeaderBytes)
        throw CorruptStoreError("torn blob (short header): " + path);
    checkHeader(blob, blob.size() - kBlobHeaderBytes, path);
    std::string stored_digest = blob.substr(
        sizeof(kBlobMagic) + sizeof(std::uint32_t) +
            sizeof(std::uint64_t),
        kDigestChars);
    std::string payload = blob.substr(kBlobHeaderBytes);
    if (util::fnv1aHex(payload) != stored_digest)
        throw CorruptStoreError(
            "torn blob (payload digest mismatch): " + path);
    return payload;
}

/** Armed-only mirror of a lookup outcome into the registry. */
void
countLookup(bool hit)
{
    if (!telemetry::armed())
        return;
    auto& reg = telemetry::Registry::instance();
    static telemetry::Counter& hits =
        reg.counter("jcache_store_hits_total",
                    "Persistent result-store lookups that hit");
    static telemetry::Counter& misses =
        reg.counter("jcache_store_misses_total",
                    "Persistent result-store lookups that missed");
    (hit ? hits : misses).inc();
}

void
countEviction()
{
    if (!telemetry::armed())
        return;
    static telemetry::Counter& evictions =
        telemetry::Registry::instance().counter(
            "jcache_store_evictions_total",
            "Result-store blobs evicted by byte-cap pressure");
    evictions.inc();
}

void
countPutBytes(std::uint64_t bytes)
{
    if (!telemetry::armed())
        return;
    static telemetry::Counter& put_bytes =
        telemetry::Registry::instance().counter(
            "jcache_store_bytes_total",
            "Blob bytes written to the persistent result store");
    put_bytes.inc(bytes);
}

void
countPutFailure()
{
    if (!telemetry::armed())
        return;
    static telemetry::Counter& failures =
        telemetry::Registry::instance().counter(
            "jcache_store_put_failures_total",
            "Result-store puts whose blob could not be written");
    failures.inc();
}

} // namespace

ResultStore::ResultStore(const StoreConfig& config) : config_(config)
{
    util::ensureDirectory(config_.dir);
    util::ensureDirectory(
        (fs::path(config_.dir) / "objects").string());
    openScan();
}

std::string
ResultStore::blobPath(const std::string& digest) const
{
    return (fs::path(config_.dir) / "objects" / (digest + ".jcr"))
        .string();
}

std::string
ResultStore::lockPath() const
{
    return (fs::path(config_.dir) / "lock").string();
}

void
ResultStore::openScan()
{
    // A put holds the lock from its temporary to its rename, so every
    // temporary seen under the lock belongs to a put that died.
    util::FileLock file_lock(lockPath());
    // A leftover index file holds access counts that no open reads;
    // delete it so the directory holds only the documented layout.
    std::error_code ec;
    fs::remove(fs::path(config_.dir) / "index.jci", ec);

    // Scan order must be deterministic (ticks seed the LRU order), so
    // collect first, then sort by (mtime, digest).
    std::vector<std::tuple<fs::file_time_type, std::string,
                           std::uint64_t>>
        found;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(fs::path(config_.dir) / "objects")) {
        const fs::path& path = entry.path();
        if (path.extension() == ".tmp") {
            // A put died before its rename; the tmp file was never
            // part of the store.
            fs::remove(path, ec);
            continue;
        }
        if (path.extension() != ".jcr" || !entry.is_regular_file())
            continue;
        std::uint64_t size = entry.file_size();
        try {
            std::ifstream ifs(path, std::ios::binary);
            if (!ifs)
                throw CorruptStoreError("unreadable blob: " +
                                        path.string());
            std::string head(kBlobHeaderBytes, '\0');
            ifs.read(head.data(),
                     static_cast<std::streamsize>(head.size()));
            if (static_cast<std::size_t>(ifs.gcount()) !=
                kBlobHeaderBytes)
                throw CorruptStoreError("torn blob (short header): " +
                                        path.string());
            checkHeader(head, size - kBlobHeaderBytes,
                        path.string());
        } catch (const CorruptStoreError&) {
            ++tornBlobs_;
            fs::remove(path, ec);
            continue;
        }
        found.emplace_back(entry.last_write_time(),
                           path.stem().string(), size);
    }
    std::sort(found.begin(), found.end());
    for (const auto& [mtime, digest, size] : found) {
        (void)mtime;
        Entry entry;
        entry.bytes = size;
        entry.lastUse = ++tick_;
        occupancy_ += size;
        entries_.emplace(digest, entry);
    }
}

void
ResultStore::evictToFit()
{
    if (config_.capBytes == 0)
        return;
    while (occupancy_ > config_.capBytes && !entries_.empty()) {
        auto victim = std::min_element(
            entries_.begin(), entries_.end(),
            [](const auto& a, const auto& b) {
                return a.second.lastUse < b.second.lastUse;
            });
        std::error_code ec;
        fs::remove(blobPath(victim->first), ec);
        occupancy_ -= victim->second.bytes;
        entries_.erase(victim);
        ++evictions_;
        countEviction();
    }
}

std::optional<std::string>
ResultStore::get(const std::string& digest)
{
    telemetry::Span span("store.lookup", "store");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(digest);
    if (it == entries_.end()) {
        ++misses_;
        countLookup(false);
        span.arg("hit", "false");
        return std::nullopt;
    }
    std::optional<std::string> blob;
    try {
        blob = util::readFileIfExists(blobPath(digest));
    } catch (const util::FsError&) {
        blob = std::nullopt;
    }
    if (!blob) {
        // A worker sharing this store directory evicted the blob
        // under its byte cap: an ordinary miss for this process, not
        // corruption — the entry just moved out from under us.
        occupancy_ -= it->second.bytes;
        entries_.erase(it);
        ++misses_;
        countLookup(false);
        span.arg("hit", "evicted");
        return std::nullopt;
    }
    try {
        std::string payload = decodeBlob(*blob, blobPath(digest));
        it->second.lastUse = ++tick_;
        ++hits_;
        countLookup(true);
        span.arg("hit", "true");
        return payload;
    } catch (const FatalError&) {
        // Torn or vanished underneath us: drop the entry and miss.
        // CorruptStoreError and FsError both land here.
        ++tornBlobs_;
        std::error_code ec;
        fs::remove(blobPath(digest), ec);
        occupancy_ -= it->second.bytes;
        entries_.erase(it);
        ++misses_;
        countLookup(false);
        span.arg("hit", "torn");
        return std::nullopt;
    }
}

void
ResultStore::put(const std::string& digest,
                 const std::string& payload)
{
    telemetry::Span span("store.put", "store");
    std::lock_guard<std::mutex> lock(mutex_);
    std::string blob = encodeBlob(payload);
    if (config_.capBytes != 0 && blob.size() > config_.capBytes) {
        // Larger than the whole store: not cacheable at this cap.
        return;
    }
    std::string path = blobPath(digest);
    // Workers sharing one store directory serialize their mutations
    // (blob write, cap eviction) on the store's lock file, so two
    // evictors never double-delete or double-count, and an opening
    // peer never sweeps this put's temporary.
    util::FileLock file_lock(lockPath());
    if (JCACHE_FAULT("store.put.crash")) {
        // The deterministic mid-put death for recovery tests: leave
        // a half-written temporary behind and vanish without stack
        // unwinding, exactly like a kill -9 between the write and
        // the rename.  The next open sweeps the temporary; every
        // previously renamed blob is untouched.
        std::ofstream ofs(path + ".tmp",
                          std::ios::binary | std::ios::trunc);
        ofs.write(blob.data(),
                  static_cast<std::streamsize>(blob.size() / 2));
        ofs.flush();
        std::raise(SIGKILL);
    }
    try {
        util::atomicWriteFile(path, blob, "store.blob.torn");
    } catch (const util::FsError&) {
        ++putFailures_;
        countPutFailure();
        throw;
    }
    putBytes_ += blob.size();
    countPutBytes(blob.size());

    Entry& entry = entries_[digest];
    occupancy_ = occupancy_ - entry.bytes + blob.size();
    entry.bytes = blob.size();
    entry.lastUse = ++tick_;
    evictToFit();
}

bool
ResultStore::contains(const std::string& digest) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.find(digest) != entries_.end();
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StoreStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.putBytes = putBytes_;
    s.tornBlobs = tornBlobs_;
    s.putFailures = putFailures_;
    s.entries = entries_.size();
    s.occupancyBytes = occupancy_;
    s.capBytes = config_.capBytes;
    return s;
}

} // namespace jcache::store
