/**
 * @file
 * TraceRef: the single trace-addressing type, and the repository
 * that resolves one into something replayable.
 *
 * Before this redesign every layer addressed traces its own way —
 * the tools by workload name or file path, the service by a
 * `workload` name string or an inline upload, the store by identity
 * string — and adding the mmap replay cache (trace/replay_cache.hh)
 * would have meant one more ad-hoc spelling per layer.  A TraceRef
 * names a trace one of three ways:
 *
 *  - **name** — a registry workload ("grr");
 *  - **path** — a trace file on disk, which the tools load themselves
 *    (trace::loadAnyTrace()); the repository resolves none;
 *  - **digest** — the 16-hex content digest of a trace that exists
 *    somewhere already: uploaded to the service, generated by the
 *    registry, or sitting in a replay-cache directory.
 *
 * The canonical spelling is `<kind>:<value>` ("name:grr",
 * "digest:0123456789abcdef"); a bare string parses as a name, so
 * every existing CLI/wire spelling keeps working.
 *
 * TraceRepository turns a TraceRef into a ResolvedTrace: a replayable
 * block source (in-memory or mmap'd), the display name, and the
 * identity string the result store keys by.  Resolution is cached per
 * repository, so a sweep that names one trace a hundred times
 * resolves it once.
 */

#ifndef JCACHE_SIM_TRACE_REF_HH
#define JCACHE_SIM_TRACE_REF_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/logging.hh"

namespace jcache::trace
{
class Trace;
class ReplaySource;
} // namespace jcache::trace

namespace jcache::sim
{

class TraceSet;

/** A TraceRef that no available source can satisfy. */
class UnknownTraceError : public FatalError
{
  public:
    explicit UnknownTraceError(const std::string& what)
        : FatalError(what)
    {
    }
};

/**
 * One of the three ways to address a trace.  Value type, cheap to
 * copy; the default-constructed ref is an empty name and `empty()`.
 */
class TraceRef
{
  public:
    enum class Kind : std::uint8_t
    {
        Name,    //!< registry workload name
        Path,    //!< trace file on disk (any import format)
        Digest,  //!< 16-hex content digest of a known trace
    };

    TraceRef() = default;

    /** A ref to a registry workload name. */
    static TraceRef byName(std::string name);

    /** Throws FatalError unless `digest` is 16 hex chars. */
    static TraceRef byDigest(std::string digest);

    /**
     * Parse a spec string: `name:...`, `path:...`, `digest:...`, or
     * a bare value (no recognized prefix), which is a name.  Returns
     * nullopt for an empty value or a malformed digest.
     */
    static std::optional<TraceRef> parse(const std::string& spec);

    /** Which of the three addressing modes this ref uses. */
    Kind kind() const { return kind_; }

    /** The name, path, or digest (without the kind prefix). */
    const std::string& value() const { return value_; }

    /** True for the default-constructed ref (empty value). */
    bool empty() const { return value_.empty(); }

    /** The canonical `<kind>:<value>` spelling; parse() round-trips. */
    std::string spec() const;

    friend bool operator==(const TraceRef& a, const TraceRef& b)
    {
        return a.kind_ == b.kind_ && a.value_ == b.value_;
    }

    friend bool operator!=(const TraceRef& a, const TraceRef& b)
    {
        return !(a == b);
    }

  private:
    TraceRef(Kind kind, std::string value)
        : kind_(kind), value_(std::move(value))
    {
    }

    Kind kind_ = Kind::Name;
    std::string value_;
};

/**
 * A resolved trace: everything a caller needs to replay it and to
 * key its results.  `source` is always usable; `trace` is null when
 * the trace lives only as an mmap'd replay cache (resolve it with
 * TraceRepository::resolveMaterialized() when the per-cell engine or
 * an exporter needs the records in memory).
 */
struct ResolvedTrace
{
    /** In-memory records; null for a mapped-only resolution. */
    std::shared_ptr<const trace::Trace> trace;

    /** Replayable block source; never null on a returned value. */
    std::shared_ptr<const trace::ReplaySource> source;

    /** Display name (registry name, header name, or upload name). */
    std::string name;

    /** 16-hex content digest of the records. */
    std::string digest;

    /** trace::traceIdentity() — what the result store keys by. */
    std::string identity;
};

/**
 * Resolves TraceRefs against a workload registry, uploaded traces,
 * and an optional replay-cache directory.  Thread-safe; resolution
 * results are cached by spec for the repository's lifetime.
 *
 * Resolution order:
 *
 *  - **name** — the registry only.
 *  - **path** — never: the wire must not name server-side files, so
 *    a path ref throws UnknownTraceError.
 *  - **digest** — uploads first, then `<digest>.jcrc` in the cache
 *    directory, then the registry (whose digests TraceSet computed
 *    once, when it generated the traces).  A cache file's identity
 *    comes from the name its header records, so a registry trace
 *    that is also a cache file resolves under that name.
 *
 * The registry is reached through a getter, called only by a name
 * ref and by a digest ref that neither an upload nor a cache file
 * satisfies: a repository asked only for those digests never builds
 * the registry.
 */
class TraceRepository
{
  public:
    struct Config
    {
        /**
         * Returns the workload registry consulted for name and digest
         * refs; empty for none.  Called under the repository lock.  It
         * may build the set on its first call (TraceSet::extended()
         * does) or throw, which fails that resolution; the set must
         * outlive the repository.
         */
        std::function<const TraceSet&()> registry;

        /** Replay-cache directory; empty disables mapped resolution. */
        std::string cacheDir;

        /** Uploads retained before FIFO eviction. */
        std::size_t uploadCapacity = 64;
    };

    TraceRepository();

    /**
     * A repository over `config`.  A configured cacheDir is swept
     * first: its stale `*.tmp` files go, under the directory's lock
     * (trace::sweepReplayCacheDir()).
     */
    explicit TraceRepository(Config config);

    /** Resolve `ref`; throws UnknownTraceError when nothing matches. */
    ResolvedTrace resolve(const TraceRef& ref);

    /**
     * resolve(), but guaranteeing `trace` is non-null: a mapped-only
     * resolution is decoded into memory once and re-cached.
     */
    ResolvedTrace resolveMaterialized(const TraceRef& ref);

    /**
     * Register an uploaded trace and return the resolution stored for
     * it; its digest is the value a digest ref resolves by.  At
     * capacity the oldest upload is evicted; re-uploading the same
     * content refreshes it.
     */
    ResolvedTrace addUpload(trace::Trace trace);

  private:
    ResolvedTrace resolveLocked(const TraceRef& ref);
    ResolvedTrace resolveName(const std::string& name);
    ResolvedTrace resolveDigest(const std::string& digest);

    /** Wrap an owned in-memory trace, digesting its records once. */
    static ResolvedTrace wrapOwned(trace::Trace trace);

    /** wrapOwned() for a trace whose contentDigest() is `digest`. */
    static ResolvedTrace wrapOwned(trace::Trace trace, std::string digest);

    /** Open `<digest>.jcrc` as a mapped-only resolution. */
    ResolvedTrace openMapped(const std::string& digest) const;

    Config config_;
    std::mutex mutex_;
    std::unordered_map<std::string, ResolvedTrace> cache_;
    std::unordered_map<std::string, ResolvedTrace> uploads_;
    std::vector<std::string> uploadOrder_;
};

} // namespace jcache::sim

#endif // JCACHE_SIM_TRACE_REF_HH
