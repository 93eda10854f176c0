/**
 * @file
 * Trace validation.
 */

#include "trace/trace.hh"

#include <string>

#include "trace/record_digest.hh"
#include "util/bitops.hh"
#include "util/digest.hh"
#include "util/logging.hh"

namespace jcache::trace
{

std::string
contentDigest(const Trace& trace)
{
    std::uint64_t state = util::kFnvOffset;
    for (const TraceRecord& r : trace)
        state = digestRecord(state, r);
    return util::hexDigest(state);
}

std::string
traceIdentity(const Trace& trace)
{
    return traceIdentity(trace.name(), contentDigest(trace), trace.size());
}

std::string
traceIdentity(const std::string& name, const std::string& digest,
              std::uint64_t records)
{
    return name + "#" + digest + "#" + std::to_string(records);
}

bool
isValid(const TraceRecord& record)
{
    if (record.size == 0 || record.size > 8)
        return false;
    if (!isPowerOfTwo(record.size))
        return false;
    if (record.type != RefType::Read && record.type != RefType::Write)
        return false;
    return true;
}

void
validate(const Trace& trace)
{
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (!isValid(trace[i])) {
            fatal("trace '" + trace.name() + "' record " +
                  std::to_string(i) + " is malformed");
        }
    }
}

} // namespace jcache::trace
