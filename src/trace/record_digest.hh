/**
 * @file
 * The per-record step of trace::contentDigest(), shared by the digest
 * and by the JCRC encoder, which digests the records in the walk that
 * encodes them.  Kept out of trace.hh so that the files that replay
 * traces do not compile it.
 */

#ifndef JCACHE_TRACE_RECORD_DIGEST_HH
#define JCACHE_TRACE_RECORD_DIGEST_HH

#include <cstdint>

#include "trace/record.hh"
#include "util/digest.hh"

namespace jcache::trace
{

/**
 * Fold one record into a running contentDigest() state (which starts
 * at util::kFnvOffset): its address as 8 bytes and its instruction
 * delta as 4, each least-significant byte first, then its size byte
 * and its type byte.
 */
inline std::uint64_t
digestRecord(std::uint64_t state, const TraceRecord& record)
{
    state = util::fnv1aValue(state, record.addr);
    state = util::fnv1aValue(state, record.instrDelta);
    state = util::fnv1aValue(state, record.size);
    return util::fnv1aValue(state,
                            static_cast<std::uint8_t>(record.type));
}

} // namespace jcache::trace

#endif // JCACHE_TRACE_RECORD_DIGEST_HH
