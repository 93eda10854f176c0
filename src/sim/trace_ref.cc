/**
 * @file
 * Implementation of TraceRef parsing and TraceRepository resolution.
 */

#include "sim/trace_ref.hh"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "sim/sweeps.hh"
#include "trace/replay.hh"
#include "trace/replay_cache.hh"
#include "trace/trace.hh"

namespace jcache::sim
{

namespace
{

constexpr std::size_t kDigestChars = 16;

bool
isHexDigest(const std::string& digest)
{
    if (digest.size() != kDigestChars)
        return false;
    return std::all_of(digest.begin(), digest.end(), [](char c) {
        return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    });
}

bool
hasPrefix(const std::string& s, const char* prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Fill the name, digest and identity of `r`, which replays `t`. */
ResolvedTrace
withIdentity(ResolvedTrace r, const trace::Trace& t, std::string digest)
{
    r.name = t.name();
    r.identity = trace::traceIdentity(t.name(), digest, t.size());
    r.digest = std::move(digest);
    return r;
}

/**
 * Share registry trace `i` without copying or owning it, under the
 * digest the registry computed when it generated the trace.
 */
ResolvedTrace
wrapRegistry(const TraceSet& registry, std::size_t i)
{
    const trace::Trace& t = registry.traces()[i];
    ResolvedTrace r;
    r.trace = std::shared_ptr<const trace::Trace>(
        std::shared_ptr<const trace::Trace>(), &t);
    r.source = std::make_shared<trace::TraceReplaySource>(t);
    return withIdentity(std::move(r), t, registry.digests()[i]);
}

} // namespace

TraceRef
TraceRef::byName(std::string name)
{
    return TraceRef(Kind::Name, std::move(name));
}

TraceRef
TraceRef::byDigest(std::string digest)
{
    fatalIf(!isHexDigest(digest),
            "malformed trace digest (want 16 hex chars): " + digest);
    return TraceRef(Kind::Digest, std::move(digest));
}

std::optional<TraceRef>
TraceRef::parse(const std::string& spec)
{
    Kind kind = Kind::Name;
    std::string value = spec;
    if (hasPrefix(spec, "name:")) {
        value = spec.substr(5);
    } else if (hasPrefix(spec, "path:")) {
        kind = Kind::Path;
        value = spec.substr(5);
    } else if (hasPrefix(spec, "digest:")) {
        kind = Kind::Digest;
        value = spec.substr(7);
    }
    if (value.empty())
        return std::nullopt;
    if (kind == Kind::Digest && !isHexDigest(value))
        return std::nullopt;
    return TraceRef(kind, std::move(value));
}

std::string
TraceRef::spec() const
{
    switch (kind_) {
      case Kind::Path:
        return "path:" + value_;
      case Kind::Digest:
        return "digest:" + value_;
      case Kind::Name:
        break;
    }
    return "name:" + value_;
}

TraceRepository::TraceRepository() = default;

TraceRepository::TraceRepository(Config config)
    : config_(std::move(config))
{
    if (!config_.cacheDir.empty())
        trace::sweepReplayCacheDir(config_.cacheDir);
}

ResolvedTrace
TraceRepository::wrapOwned(trace::Trace trace)
{
    std::string digest = trace::contentDigest(trace);
    return wrapOwned(std::move(trace), std::move(digest));
}

ResolvedTrace
TraceRepository::wrapOwned(trace::Trace trace, std::string digest)
{
    ResolvedTrace r;
    auto owned =
        std::make_shared<const trace::Trace>(std::move(trace));
    r.trace = owned;
    r.source = std::make_shared<trace::TraceReplaySource>(*owned);
    return withIdentity(std::move(r), *owned, std::move(digest));
}

ResolvedTrace
TraceRepository::openMapped(const std::string& digest) const
{
    auto mapped = std::make_shared<trace::MappedReplayCache>(
        trace::replayCachePath(config_.cacheDir, digest));
    if (mapped->digest() != digest)
        throw trace::ReplayCacheError(
            "replay cache digest mismatch: file for " + digest +
            " records " + mapped->digest());
    ResolvedTrace r;
    r.source = mapped;
    r.name = mapped->name();
    r.digest = mapped->digest();
    r.identity = mapped->identity();
    return r;
}

ResolvedTrace
TraceRepository::resolveName(const std::string& name)
{
    if (config_.registry) {
        const TraceSet& registry = config_.registry();
        const std::vector<trace::Trace>& traces = registry.traces();
        for (std::size_t i = 0; i < traces.size(); ++i)
            if (traces[i].name() == name)
                return wrapRegistry(registry, i);
    }
    throw UnknownTraceError("unknown trace name: " + name);
}

ResolvedTrace
TraceRepository::resolveDigest(const std::string& digest)
{
    auto it = uploads_.find(digest);
    if (it != uploads_.end())
        return it->second;

    if (!config_.cacheDir.empty() &&
        std::filesystem::exists(
            trace::replayCachePath(config_.cacheDir, digest)))
        return openMapped(digest);

    // Last, so that digests of uploads and cache files never build
    // the registry.
    if (config_.registry) {
        const TraceSet& registry = config_.registry();
        const std::vector<std::string>& digests = registry.digests();
        for (std::size_t i = 0; i < digests.size(); ++i)
            if (digests[i] == digest)
                return wrapRegistry(registry, i);
    }

    throw UnknownTraceError("unknown trace digest: " + digest);
}

ResolvedTrace
TraceRepository::resolveLocked(const TraceRef& ref)
{
    fatalIf(ref.empty(), "empty trace reference");

    if (ref.kind() == TraceRef::Kind::Path)
        throw UnknownTraceError(
            "path trace references are not allowed here: " +
            ref.value());

    if (ref.kind() == TraceRef::Kind::Digest)
        // Uploads are their own store (FIFO-evicted) and a mapped
        // file is cheap to open, so no spec cache here.
        return resolveDigest(ref.value());

    const std::string spec = ref.spec();
    auto it = cache_.find(spec);
    if (it != cache_.end())
        return it->second;
    ResolvedTrace r = resolveName(ref.value());
    cache_.emplace(spec, r);
    return r;
}

ResolvedTrace
TraceRepository::resolve(const TraceRef& ref)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return resolveLocked(ref);
}

ResolvedTrace
TraceRepository::resolveMaterialized(const TraceRef& ref)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ResolvedTrace r = resolveLocked(ref);
    if (r.trace)
        return r;

    // Mapped-only: decode every block into an owned in-memory trace
    // once, and cache the materialized resolution under the same
    // spec, which a digest ref's next call finds here.  openMapped()
    // already checked the file's header digest against the requested
    // one, so the records are not digested again.
    const std::string spec = ref.spec();
    auto it = cache_.find(spec);
    if (it != cache_.end() && it->second.trace)
        return it->second;
    ResolvedTrace materialized =
        wrapOwned(trace::materialize(*r.source), r.digest);
    cache_[spec] = materialized;
    return materialized;
}

ResolvedTrace
TraceRepository::addUpload(trace::Trace trace)
{
    ResolvedTrace r = wrapOwned(std::move(trace));
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = uploads_.find(r.digest);
    if (it != uploads_.end()) {
        // Same content re-uploaded (possibly renamed): refresh both
        // the resolution and its place in the eviction order, so an
        // actively re-uploaded trace is not the next FIFO victim.
        it->second = r;
        auto pos = std::find(uploadOrder_.begin(),
                             uploadOrder_.end(), r.digest);
        if (pos != uploadOrder_.end())
            uploadOrder_.erase(pos);
        uploadOrder_.push_back(r.digest);
        return r;
    }
    uploads_.emplace(r.digest, r);
    uploadOrder_.push_back(r.digest);
    while (uploadOrder_.size() > config_.uploadCapacity) {
        uploads_.erase(uploadOrder_.front());
        uploadOrder_.erase(uploadOrder_.begin());
    }
    return r;
}

} // namespace jcache::sim
