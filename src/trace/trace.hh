/**
 * @file
 * An in-memory data-reference trace.
 *
 * A Trace is an append-only sequence of TraceRecords plus the workload
 * name it came from.  Traces are generated once per workload and then
 * replayed through many cache configurations, so the container is a
 * flat vector for replay speed.
 */

#ifndef JCACHE_TRACE_TRACE_HH
#define JCACHE_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace jcache::trace
{

/**
 * An append-only in-memory trace.
 */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    /** Append one record. */
    void append(const TraceRecord& record) { records_.push_back(record); }

    const std::string& name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    const std::vector<TraceRecord>& records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    auto begin() const { return records_.begin(); }
    auto end() const { return records_.end(); }

    const TraceRecord& operator[](std::size_t i) const
    {
        return records_[i];
    }

    /** Pre-allocate capacity for n records. */
    void reserve(std::size_t n) { records_.reserve(n); }

    bool operator==(const Trace&) const = default;

  private:
    std::string name_;
    std::vector<TraceRecord> records_;
};

/**
 * FNV-1a 64 content digest of a trace's records, as fixed-width hex.
 * Hashes every field of every record in a fixed byte order (not the
 * in-memory layout), so the digest is stable across platforms and
 * struct padding.  Two traces share a digest iff a replay through
 * them is identical; the name does not participate.
 */
std::string contentDigest(const Trace& trace);

/**
 * The identity string a trace contributes to result keys:
 * `<name>#<contentDigest>#<record count>`.  Equal identities mean
 * equal replay inputs, so cached results keyed by this string can be
 * shared between the service, the offline tools and the persistent
 * result store — and can never be served for a different trace that
 * merely reuses a workload name.
 */
std::string traceIdentity(const Trace& trace);

/**
 * traceIdentity() from its parts, for a caller that already holds
 * the digest: `<name>#<digest>#<records>`.
 */
std::string traceIdentity(const std::string& name,
                          const std::string& digest,
                          std::uint64_t records);

/** True if the record is well-formed (power-of-two size 1..8). */
bool isValid(const TraceRecord& record);

/**
 * Throw FatalError if any record in the trace is malformed.  Used when
 * loading traces from files, where corruption is possible.
 */
void validate(const Trace& trace);

} // namespace jcache::trace

#endif // JCACHE_TRACE_TRACE_HH
