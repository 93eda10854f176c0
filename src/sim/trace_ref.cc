/**
 * @file
 * Implementation of TraceRef parsing and TraceRepository resolution.
 */

#include "sim/trace_ref.hh"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "sim/sweeps.hh"
#include "trace/import.hh"
#include "trace/replay.hh"
#include "trace/replay_cache.hh"
#include "trace/trace.hh"
#include "util/digest.hh"
#include "util/fs.hh"
#include "workloads/workload.hh"

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

/** The name-ref file beside the replay caches: name -> digest. */
std::string
nameRefPath(const std::string& dir, const std::string& name)
{
    return dir + "/n" + util::fnv1aHex(name) + ".ref";
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
 * Share a registry-owned trace without copying or owning it.
 * `digest` is its contentDigest(), which the caller already holds.
 */
ResolvedTrace
wrapRegistry(const trace::Trace& t, std::string digest)
{
    ResolvedTrace r;
    r.trace = std::shared_ptr<const trace::Trace>(
        std::shared_ptr<const trace::Trace>(), &t);
    r.source = std::make_shared<trace::TraceReplaySource>(t);
    return withIdentity(std::move(r), t, std::move(digest));
}

} // namespace

TraceRef
TraceRef::byName(std::string name)
{
    return TraceRef(Kind::Name, std::move(name));
}

TraceRef
TraceRef::byPath(std::string path)
{
    return TraceRef(Kind::Path, std::move(path));
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

const std::vector<std::string>&
TraceRepository::registryDigests()
{
    if (!registryDigestsReady_) {
        registryDigests_.reserve(config_.registry->size());
        for (const trace::Trace& t : config_.registry->traces())
            registryDigests_.push_back(trace::contentDigest(t));
        registryDigestsReady_ = true;
    }
    return registryDigests_;
}

ResolvedTrace
TraceRepository::resolveName(const std::string& name)
{
    if (config_.registry) {
        if (const trace::Trace* t = config_.registry->find(name))
            return wrapRegistry(*t, trace::contentDigest(*t));
    }

    // A replay-cache directory may already hold this trace from an
    // earlier process: the name-ref file maps the name to its digest
    // so the cache is mapped instead of the generator re-run.
    if (!config_.cacheDir.empty()) {
        std::optional<std::string> digest =
            util::readFileIfExists(nameRefPath(config_.cacheDir, name));
        if (digest && isHexDigest(*digest)) {
            try {
                ResolvedTrace r = openMapped(*digest);
                if (r.name == name)
                    return r;
            } catch (const FatalError&) {
                // Stale or torn ref: fall through to regeneration.
            }
        }
    }

    if (config_.generateUnknownNames) {
        std::unique_ptr<workloads::Workload> workload;
        try {
            workload = workloads::makeWorkload(name);
        } catch (const FatalError&) {
            throw UnknownTraceError("unknown trace name: " + name);
        }
        trace::Trace t = workloads::generateTrace(*workload);
        std::string digest = trace::contentDigest(t);
        if (!config_.cacheDir.empty()) {
            trace::ensureReplayCache(t, digest, config_.cacheDir);
            util::atomicWriteFile(nameRefPath(config_.cacheDir, name),
                                  digest);
        }
        return wrapOwned(std::move(t), std::move(digest));
    }

    throw UnknownTraceError("unknown trace name: " + name);
}

ResolvedTrace
TraceRepository::resolveDigest(const std::string& digest)
{
    auto it = uploads_.find(digest);
    if (it != uploads_.end())
        return it->second;

    if (config_.registry) {
        const std::vector<std::string>& digests = registryDigests();
        for (std::size_t i = 0; i < digests.size(); ++i)
            if (digests[i] == digest)
                return wrapRegistry(config_.registry->traces()[i],
                                    digest);
    }

    if (!config_.cacheDir.empty() &&
        std::filesystem::exists(
            trace::replayCachePath(config_.cacheDir, digest)))
        return openMapped(digest);

    throw UnknownTraceError("unknown trace digest: " + digest);
}

ResolvedTrace
TraceRepository::resolveLocked(const TraceRef& ref)
{
    fatalIf(ref.empty(), "empty trace reference");

    if (ref.kind() == TraceRef::Kind::Path) {
        if (!config_.allowPaths)
            throw UnknownTraceError(
                "path trace references are not allowed here: " +
                ref.value());
        const std::string spec = ref.spec();
        auto it = cache_.find(spec);
        if (it != cache_.end())
            return it->second;
        ResolvedTrace r = wrapOwned(trace::loadAnyTrace(ref.value()));
        cache_.emplace(spec, r);
        return r;
    }

    if (ref.kind() == TraceRef::Kind::Digest)
        // Uploads are their own store (FIFO-evicted); only they can
        // satisfy before the registry, so no spec cache here.
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
    // and re-cache the materialized resolution under the same spec.
    // openMapped() already checked the file's header digest against
    // the requested one, so the records are not digested again.
    ResolvedTrace materialized =
        wrapOwned(trace::materialize(*r.source), r.digest);
    cache_[ref.spec()] = materialized;
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

bool
TraceRepository::knowsDigest(const std::string& digest)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (uploads_.count(digest) != 0)
        return true;
    if (config_.registry) {
        const std::vector<std::string>& digests = registryDigests();
        if (std::find(digests.begin(), digests.end(), digest) !=
            digests.end())
            return true;
    }
    return !config_.cacheDir.empty() &&
           std::filesystem::exists(
               trace::replayCachePath(config_.cacheDir, digest));
}

} // namespace jcache::sim
