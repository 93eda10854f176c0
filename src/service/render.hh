/**
 * @file
 * Shared result rendering and wire serialization.
 *
 * The acceptance bar for the service is that `jcache-client run` is
 * byte-identical to `jcache-sim` and `jcache-client sweep` to
 * `jcache-sweep`.  That property is engineered, not tested into
 * existence: the offline tools and the client format their tables
 * through these exact functions, and the wire carries raw counts
 * (which round-trip exactly through stats/json) rather than anything
 * pre-formatted.
 */

#ifndef JCACHE_SERVICE_RENDER_HH
#define JCACHE_SERVICE_RENDER_HH

#include <ostream>
#include <string>
#include <vector>

#include "service/json_value.hh"
#include "sim/run.hh"
#include "stats/json.hh"
#include "util/logging.hh"

namespace jcache::service
{

/**
 * A refusal or failure that answers with its own wire code instead
 * of the generic `bad_request`: a scatter's `shard_unavailable` or
 * `deadline_exceeded`, an upload's `trace_too_large` or `bad_trace`.
 */
class CodedError : public FatalError
{
  public:
    CodedError(std::string code, const std::string& message)
        : FatalError(message), code_(std::move(code))
    {
    }

    /** The wire error code the service answers with. */
    const std::string& code() const { return code_; }

  private:
    std::string code_;
};

/**
 * Print the jcache-sim statistics block for one run.
 *
 * @param os          destination stream.
 * @param result      the replay's measurements.
 * @param trace_name  the trace the run replayed.
 * @param flushed     whether the run drained dirty lines at the end
 *                    (adds the flush-traffic rows).
 */
void renderRunTable(std::ostream& os, const sim::RunResult& result,
                    const std::string& trace_name, bool flushed);

/**
 * Print the jcache-sweep metric matrix for one swept axis.
 *
 * @param os          destination stream.
 * @param axis        swept axis name ("size", "line", "assoc").
 * @param metric      metric name ("miss", "traffic", "dirty").
 * @param trace_name  the trace swept over.
 * @param base        the base configuration (titles the table).
 * @param labels      per-point column labels, in axis order.
 * @param results     per-point measurements, in axis order.
 */
void renderSweepTable(std::ostream& os, const std::string& axis,
                      const std::string& metric,
                      const std::string& trace_name,
                      const core::CacheConfig& base,
                      const std::vector<std::string>& labels,
                      const std::vector<sim::RunResult>& results);

/**
 * Extract one sweep metric from a run: "miss" (counted-miss ratio %),
 * "traffic" (transactions per instruction) or "dirty" (% writes to
 * dirty lines).  Throws FatalError for an unknown metric.
 */
double sweepMetricValue(const std::string& metric,
                        const sim::RunResult& result);

/** True if `metric` is one of the three sweep metrics. */
bool isSweepMetric(const std::string& metric);

/**
 * Canonical text of a configuration for digesting into result
 * keys: every field that changes replay results, in fixed order.  Two configs produce equal keys iff a replay through
 * them is bit-for-bit identical.
 */
std::string canonicalConfigKey(const core::CacheConfig& config);

/** Serialize a cache configuration as a JSON object field. */
void writeCacheConfig(stats::JsonWriter& json, const std::string& key,
                      const core::CacheConfig& config);

/**
 * Parse a cache configuration from a request/response object.
 * Missing fields keep their CacheConfig defaults; a malformed policy
 * code throws FatalError.  The result is not validate()d here —
 * callers decide whether to reject or report.
 */
core::CacheConfig parseCacheConfig(const JsonValue& value);

/** Serialize one RunResult (raw counts only) as an object field. */
void writeRunResult(stats::JsonWriter& json, const std::string& key,
                    const sim::RunResult& result);

/**
 * Reconstruct a RunResult from its wire form.  Counts round-trip
 * exactly (they are integers well below 2^53), so derived metrics
 * computed client-side equal those computed in-process.
 */
sim::RunResult parseRunResult(const JsonValue& value);

} // namespace jcache::service

#endif // JCACHE_SERVICE_RENDER_HH
