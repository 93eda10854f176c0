/**
 * @file
 * Tests for the transport-independent request router
 * (service/service.hh): request validation, the four job types, the
 * result cache's digest behavior, the stats counters, and the raw
 * response bytes of every job type and refusal (a golden transcript).
 *
 * Every test drives Service::handle() directly with request documents
 * — no sockets — so failures localize to the routing layer.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/json_value.hh"
#include "service/service.hh"
#include "util/fault.hh"
#include "util/version.hh"

using jcache::service::JsonValue;
using jcache::service::Service;
using jcache::service::ServiceConfig;

namespace
{

/** Single-threaded executor keeps the unit tests deterministic. */
ServiceConfig
testConfig()
{
    ServiceConfig config;
    config.executorThreads = 1;
    return config;
}

JsonValue
parseResponse(const std::string& text)
{
    std::string error;
    JsonValue v = JsonValue::parse(text, &error);
    EXPECT_EQ(error, "") << "unparseable response: " << text;
    EXPECT_TRUE(v.isObject());
    return v;
}

/** Expect an `ok: false` response carrying the given code. */
void
expectError(Service& service, const std::string& request,
            const std::string& code)
{
    JsonValue v = parseResponse(service.handle(request));
    EXPECT_FALSE(v.getBool("ok", true)) << "for request: " << request;
    EXPECT_EQ(v.getString("code"), code)
        << "for request: " << request << "\nerror: "
        << v.getString("error");
    EXPECT_NE(v.getString("error"), "");
}

std::string
runRequest(const std::string& workload, unsigned size_kb,
           bool flush = true)
{
    return "{\"type\": \"run\", \"workload\": \"" + workload +
           "\", \"flush\": " + (flush ? "true" : "false") +
           ", \"config\": {\"size_bytes\": " +
           std::to_string(size_kb * 1024) + "}}";
}

/** A tiny but valid text-interchange body (JSON-escaped newlines). */
const char* kMiniTrace =
    "r 0x10000 4\\nw 0x10008 8 3\\nr 0x10010 4\\n";

/** The four request types that queue simulation jobs. */
const char* const kJobTypes[] = {"run", "sweep", "batch", "upload"};

/**
 * A small request of one job type: a run, an associativity sweep, a
 * two-cell batch of ccom, or an upload of kMiniTrace.  `size_kb` sets
 * the cache size, so one type can ask for two distinct results;
 * `extra` splices in more fields, each starting with ", ".
 */
std::string
jobRequest(const std::string& type, unsigned size_kb,
           const std::string& extra = "")
{
    std::string size = std::to_string(size_kb * 1024);
    std::string config = "{\"size_bytes\": " + size + "}";
    if (type == "run")
        return "{\"type\": \"run\", \"workload\": \"ccom\", "
               "\"config\": " + config + extra + "}";
    if (type == "sweep")
        return "{\"type\": \"sweep\", \"workload\": \"ccom\", "
               "\"axis\": \"assoc\", \"config\": " + config + extra +
               "}";
    if (type == "batch")
        return "{\"type\": \"batch\", \"trace_ref\": \"name:ccom\", "
               "\"configs\": [{\"config\": " + config +
               "}, {\"config\": {\"size_bytes\": " + size +
               ", \"assoc\": 2}}]" + extra + "}";
    return "{\"type\": \"upload\", \"name\": \"mini\", \"trace\": \"" +
           std::string(kMiniTrace) + "\", \"config\": " + config +
           extra + "}";
}

} // namespace

TEST(Service, RejectsMalformedRequests)
{
    Service service(testConfig());
    expectError(service, "not json at all", "parse_error");
    expectError(service, "{\"type\": \"run\",", "parse_error");
    expectError(service, "[1, 2, 3]", "parse_error");
    expectError(service, "{\"type\": \"nonsense\"}", "unknown_type");
    expectError(service, "{}", "unknown_type");
    expectError(service, "{\"type\": \"run\", \"protocol\": 999}",
                "protocol_mismatch");
}

TEST(Service, ApiVersionHandshake)
{
    Service service(testConfig());
    // The current version and any same-major minor are accepted; so
    // is a request without the field (pre-handshake client).
    for (const char* accepted :
         {"\"1.0\"", "\"1\"", "\"1.7\"", "\"1.2.3\""}) {
        JsonValue v = parseResponse(service.handle(
            std::string("{\"type\": \"ping\", \"api_version\": ") +
            accepted + "}"));
        EXPECT_TRUE(v.getBool("ok", false)) << accepted;
    }
    JsonValue bare =
        parseResponse(service.handle("{\"type\": \"ping\"}"));
    EXPECT_TRUE(bare.getBool("ok", false));
    EXPECT_EQ(bare.getString("api_version"), jcache::kApiVersion);

    // A different major, a malformed string, or a non-string all draw
    // the typed error.
    expectError(service,
                "{\"type\": \"ping\", \"api_version\": \"2.0\"}",
                "unsupported_version");
    expectError(service,
                "{\"type\": \"ping\", \"api_version\": \"0.9\"}",
                "unsupported_version");
    expectError(service,
                "{\"type\": \"ping\", \"api_version\": \"beta\"}",
                "unsupported_version");
    expectError(service,
                "{\"type\": \"ping\", \"api_version\": 1}",
                "unsupported_version");
}

TEST(Service, RejectsBadRunRequests)
{
    Service service(testConfig());
    // Missing and unknown workloads fail before anything queues;
    // unknown traces answer with the typed `unknown_trace` code.
    expectError(service, "{\"type\": \"run\"}", "bad_request");
    expectError(service,
                "{\"type\": \"run\", \"workload\": \"nonesuch\"}",
                "unknown_trace");
    expectError(service,
                "{\"type\": \"run\", \"trace_ref\": "
                "\"digest:0123456789abcdef\"}",
                "unknown_trace");
    // Path refs never resolve server-side files.
    expectError(service,
                "{\"type\": \"run\", \"trace_ref\": "
                "\"path:/etc/passwd\"}",
                "bad_request");
    // A config that fails CacheConfig::validate().
    expectError(service,
                "{\"type\": \"run\", \"workload\": \"ccom\","
                " \"config\": {\"size_bytes\": 3000}}",
                "bad_request");
}

TEST(Service, RejectsBadSweepRequests)
{
    Service service(testConfig());
    expectError(service,
                "{\"type\": \"sweep\", \"workload\": \"ccom\"}",
                "bad_request");
    expectError(service,
                "{\"type\": \"sweep\", \"workload\": \"ccom\","
                " \"axis\": \"voltage\"}",
                "bad_request");
}

TEST(Service, AnswersPing)
{
    Service service(testConfig());
    JsonValue v =
        parseResponse(service.handle("{\"type\": \"ping\"}"));
    EXPECT_TRUE(v.getBool("ok", false));
    EXPECT_EQ(v.getString("type"), "ping");
    EXPECT_EQ(v.getString("version"), jcache::kVersion);
    EXPECT_DOUBLE_EQ(v.getNumber("protocol", 0),
                     jcache::kProtocolVersion);
    EXPECT_FALSE(service.shutdownRequested());
}

TEST(Service, ShutdownSetsTheDrainFlag)
{
    Service service(testConfig());
    JsonValue v =
        parseResponse(service.handle("{\"type\": \"shutdown\"}"));
    EXPECT_TRUE(v.getBool("ok", false));
    EXPECT_TRUE(v.getBool("draining", false));
    EXPECT_TRUE(service.shutdownRequested());
}

TEST(Service, RunComputesOnceThenServesFromCache)
{
    Service service(testConfig());
    JsonValue first =
        parseResponse(service.handle(runRequest("ccom", 4)));
    ASSERT_TRUE(first.getBool("ok", false))
        << first.getString("error");
    EXPECT_EQ(first.getString("type"), "run");
    EXPECT_FALSE(first.getBool("cached", true));
    EXPECT_EQ(first.getString("digest").size(), 16u);

    const JsonValue& payload = first.get("payload");
    EXPECT_EQ(payload.getString("workload"), "ccom");
    EXPECT_TRUE(payload.getBool("flushed", false));
    const JsonValue& result = payload.get("result");
    EXPECT_GT(result.getNumber("instructions", 0), 0.0);
    EXPECT_DOUBLE_EQ(
        result.get("config").getNumber("size_bytes", 0), 4096.0);

    // The identical request must come back as a cache hit with the
    // same digest and byte-identical payload.
    std::string repeat_text = service.handle(runRequest("ccom", 4));
    JsonValue repeat = parseResponse(repeat_text);
    EXPECT_TRUE(repeat.getBool("cached", false));
    EXPECT_EQ(repeat.getString("digest"), first.getString("digest"));
    const JsonValue& first_cache =
        first.get("payload").get("result").get("cache");
    const JsonValue& repeat_cache =
        repeat.get("payload").get("result").get("cache");
    double first_hits = first_cache.getNumber("write_hits", -1);
    EXPECT_GE(first_hits, 0.0);
    EXPECT_DOUBLE_EQ(repeat_cache.getNumber("write_hits", -2),
                     first_hits);
}

TEST(Service, DigestSeparatesGeometryAndFlush)
{
    Service service(testConfig());
    JsonValue small =
        parseResponse(service.handle(runRequest("ccom", 4)));
    JsonValue large =
        parseResponse(service.handle(runRequest("ccom", 8)));
    JsonValue no_flush =
        parseResponse(service.handle(runRequest("ccom", 4, false)));
    ASSERT_TRUE(small.getBool("ok", false));
    ASSERT_TRUE(large.getBool("ok", false));
    ASSERT_TRUE(no_flush.getBool("ok", false));
    EXPECT_NE(small.getString("digest"), large.getString("digest"));
    EXPECT_NE(small.getString("digest"),
              no_flush.getString("digest"));
    EXPECT_FALSE(large.getBool("cached", true));
    EXPECT_FALSE(no_flush.getBool("cached", true));
}

TEST(Service, SweepReturnsAxisOrderedResults)
{
    Service service(testConfig());
    JsonValue v = parseResponse(service.handle(
        "{\"type\": \"sweep\", \"workload\": \"ccom\","
        " \"axis\": \"assoc\"}"));
    ASSERT_TRUE(v.getBool("ok", false)) << v.getString("error");
    const JsonValue& payload = v.get("payload");
    EXPECT_EQ(payload.getString("axis"), "assoc");
    ASSERT_EQ(payload.get("labels").items().size(),
              payload.get("results").items().size());
    // Points come back in axis order: associativity 1, 2, 4, 8.
    ASSERT_GE(payload.get("results").items().size(), 2u);
    EXPECT_DOUBLE_EQ(payload.get("results")
                         .items()[0]
                         .get("result")
                         .get("config")
                         .getNumber("assoc", 0),
                     1.0);
    EXPECT_DOUBLE_EQ(payload.get("results")
                         .items()[1]
                         .get("result")
                         .get("config")
                         .getNumber("assoc", 0),
                     2.0);

    // The metric is not part of the digest: the repeat is a hit even
    // though a client would render a different metric from it.
    JsonValue repeat = parseResponse(service.handle(
        "{\"type\": \"sweep\", \"workload\": \"ccom\","
        " \"axis\": \"assoc\"}"));
    EXPECT_TRUE(repeat.getBool("cached", false));
    EXPECT_EQ(repeat.getString("digest"), v.getString("digest"));
}

TEST(Service, StatsCountRequestsCacheAndJobs)
{
    Service service(testConfig());
    service.handle(runRequest("ccom", 4));
    service.handle(runRequest("ccom", 4));  // cache hit
    service.handle("{\"type\": \"ping\"}");
    service.handle("{\"type\": \"nonsense\"}");
    service.noteProtocolError();

    JsonValue v =
        parseResponse(service.handle("{\"type\": \"stats\"}"));
    ASSERT_TRUE(v.getBool("ok", false));
    const JsonValue& payload = v.get("payload");

    const JsonValue& requests = payload.get("requests");
    EXPECT_DOUBLE_EQ(requests.getNumber("total", 0), 5.0);
    EXPECT_DOUBLE_EQ(requests.getNumber("run", 0), 2.0);
    EXPECT_DOUBLE_EQ(requests.getNumber("ping", 0), 1.0);
    EXPECT_DOUBLE_EQ(requests.getNumber("errors", 0), 1.0);
    EXPECT_DOUBLE_EQ(requests.getNumber("protocol_errors", 0), 1.0);

    const JsonValue& cache = payload.get("result_cache");
    EXPECT_DOUBLE_EQ(cache.getNumber("hits", 0), 1.0);
    EXPECT_DOUBLE_EQ(cache.getNumber("misses", 0), 1.0);
    EXPECT_DOUBLE_EQ(cache.getNumber("hit_rate", 0), 0.5);

    const JsonValue& jobs = payload.get("jobs");
    EXPECT_DOUBLE_EQ(jobs.getNumber("executed", 0), 1.0);
    EXPECT_GT(jobs.get("wall_seconds").getNumber("max", 0), 0.0);
    EXPECT_GT(payload.getNumber("uptime_seconds", 0), 0.0);

    const JsonValue& queue = payload.get("queue");
    EXPECT_DOUBLE_EQ(queue.getNumber("depth", -1), 0.0);
    EXPECT_DOUBLE_EQ(queue.getNumber("capacity", 0), 64.0);
}

TEST(Service, HealthReportsQueueAndCache)
{
    Service service(testConfig());
    service.handle(runRequest("ccom", 4));
    JsonValue v = parseResponse(service.handle(
        "{\"type\": \"health\", \"request_id\": \"hc-1\"}"));
    ASSERT_TRUE(v.getBool("ok", false)) << v.getString("error");
    EXPECT_EQ(v.getString("type"), "health");
    EXPECT_EQ(v.getString("request_id"), "hc-1");

    const JsonValue& payload = v.get("payload");
    EXPECT_TRUE(payload.getBool("accepting", false));
    EXPECT_GT(payload.getNumber("uptime_seconds", 0), 0.0);
    EXPECT_DOUBLE_EQ(payload.getNumber("jobs_executed", 0), 1.0);

    const JsonValue& queue = payload.get("queue");
    EXPECT_DOUBLE_EQ(queue.getNumber("depth", -1), 0.0);
    EXPECT_DOUBLE_EQ(queue.getNumber("capacity", 0), 64.0);
    EXPECT_DOUBLE_EQ(queue.getNumber("shed", -1), 0.0);

    const JsonValue& cache = payload.get("result_cache");
    EXPECT_DOUBLE_EQ(cache.getNumber("misses", -1), 1.0);

    // After shutdown the daemon reports it is no longer accepting.
    service.handle("{\"type\": \"shutdown\"}");
    JsonValue drained = parseResponse(
        service.handle("{\"type\": \"health\"}"));
    EXPECT_FALSE(drained.get("payload").getBool("accepting", true));

    JsonValue stats = parseResponse(
        service.handle("{\"type\": \"stats\"}"));
    EXPECT_DOUBLE_EQ(
        stats.get("payload").get("requests").getNumber("health", 0),
        2.0);
}

TEST(Service, EchoesRequestIdOnEveryPath)
{
    Service service(testConfig());

    // Success path: run with an id.
    JsonValue ok = parseResponse(service.handle(
        "{\"type\": \"run\", \"workload\": \"ccom\","
        " \"request_id\": \"req-42\"}"));
    ASSERT_TRUE(ok.getBool("ok", false)) << ok.getString("error");
    EXPECT_EQ(ok.getString("request_id"), "req-42");

    // Cache-hit path keeps echoing the *current* request's id.
    JsonValue hit = parseResponse(service.handle(
        "{\"type\": \"run\", \"workload\": \"ccom\","
        " \"request_id\": \"req-43\"}"));
    EXPECT_TRUE(hit.getBool("cached", false));
    EXPECT_EQ(hit.getString("request_id"), "req-43");

    // Error path.
    JsonValue bad = parseResponse(service.handle(
        "{\"type\": \"run\", \"workload\": \"nonesuch\","
        " \"request_id\": \"req-44\"}"));
    EXPECT_FALSE(bad.getBool("ok", true));
    EXPECT_EQ(bad.getString("request_id"), "req-44");

    // Ping and a request without an id (no field emitted).
    JsonValue ping = parseResponse(service.handle(
        "{\"type\": \"ping\", \"request_id\": \"req-45\"}"));
    EXPECT_EQ(ping.getString("request_id"), "req-45");
    JsonValue anon =
        parseResponse(service.handle("{\"type\": \"ping\"}"));
    EXPECT_EQ(anon.getString("request_id"), "");
}

TEST(Service, InjectedAdmissionFaultShedsWithRetryAfter)
{
    for (const char* type : kJobTypes) {
        SCOPED_TRACE(type);
        jcache::fault::configure("service.admit=always");
        Service service(testConfig());
        JsonValue v = parseResponse(service.handle(
            jobRequest(type, 8, ", \"request_id\": \"shed-1\"")));
        jcache::fault::reset();

        EXPECT_FALSE(v.getBool("ok", true));
        EXPECT_EQ(v.getString("code"), "busy");
        EXPECT_EQ(v.getString("request_id"), "shed-1");
        double hint = v.getNumber("retry_after_ms", -1.0);
        EXPECT_GE(hint, 50.0);
        EXPECT_LE(hint, 5000.0);

        // The shed shows up in health, and the service still works
        // once the fault is cleared.
        JsonValue health = parseResponse(
            service.handle("{\"type\": \"health\"}"));
        EXPECT_DOUBLE_EQ(
            health.get("payload").get("queue").getNumber("shed", 0),
            1.0);
        JsonValue ok = parseResponse(service.handle(jobRequest(type, 4)));
        EXPECT_TRUE(ok.getBool("ok", false)) << ok.getString("error");
    }
}

namespace
{

std::string
uploadRequest(const std::string& body, const std::string& extra = "")
{
    return "{\"type\": \"upload\", \"name\": \"mini\", "
           "\"trace\": \"" + body + "\"" + extra +
           ", \"config\": {\"size_bytes\": 4096}}";
}

} // namespace

TEST(Service, UploadRunsAnExternalTrace)
{
    Service service(testConfig());
    JsonValue first =
        parseResponse(service.handle(uploadRequest(kMiniTrace)));
    ASSERT_TRUE(first.getBool("ok", false))
        << first.getString("error");
    EXPECT_EQ(first.getString("type"), "upload");
    EXPECT_FALSE(first.getBool("cached", true));

    const JsonValue& payload = first.get("payload");
    EXPECT_EQ(payload.getString("workload"), "mini");
    EXPECT_DOUBLE_EQ(payload.getNumber("records", 0), 3.0);
    const JsonValue& result = payload.get("result");
    EXPECT_GT(result.getNumber("instructions", 0), 0.0);
    EXPECT_DOUBLE_EQ(
        result.get("config").getNumber("size_bytes", 0), 4096.0);

    // Re-uploading the identical bytes is a cache hit with the same
    // digest: the digest is content-addressed.
    JsonValue repeat =
        parseResponse(service.handle(uploadRequest(kMiniTrace)));
    EXPECT_TRUE(repeat.getBool("cached", false));
    EXPECT_EQ(repeat.getString("digest"), first.getString("digest"));

    // The same bytes under another name title the result differently,
    // so they must not share a cache entry.
    JsonValue renamed = parseResponse(service.handle(
        "{\"type\": \"upload\", \"name\": \"other\", \"trace\": \"" +
        std::string(kMiniTrace) +
        "\", \"config\": {\"size_bytes\": 4096}}"));
    ASSERT_TRUE(renamed.getBool("ok", false));
    EXPECT_NE(renamed.getString("digest"), first.getString("digest"));

    // An explicit text encoding is accepted; it is the only one.
    JsonValue text_ok = parseResponse(service.handle(
        uploadRequest(kMiniTrace, ", \"encoding\": \"text\"")));
    EXPECT_TRUE(text_ok.getBool("ok", false));
}

TEST(Service, UploadThenRunByDigestMatchesInline)
{
    Service service(testConfig());
    JsonValue uploaded =
        parseResponse(service.handle(uploadRequest(kMiniTrace)));
    ASSERT_TRUE(uploaded.getBool("ok", false))
        << uploaded.getString("error");
    std::string trace_digest =
        uploaded.get("payload").getString("trace_digest");
    ASSERT_EQ(trace_digest.size(), 16u);

    // Running the uploaded trace again by digest reference must
    // reproduce the inline upload's counters exactly: both paths run
    // the same trace bytes through the same engine.
    JsonValue ran = parseResponse(service.handle(
        "{\"type\": \"run\", \"trace_ref\": \"digest:" + trace_digest +
        "\", \"config\": {\"size_bytes\": 4096}}"));
    ASSERT_TRUE(ran.getBool("ok", false)) << ran.getString("error");
    EXPECT_EQ(ran.get("payload").getString("trace_digest"),
              trace_digest);

    const JsonValue& inline_result =
        uploaded.get("payload").get("result");
    const JsonValue& digest_result = ran.get("payload").get("result");
    EXPECT_EQ(inline_result.getNumber("instructions", -1),
              digest_result.getNumber("instructions", -2));

    const JsonValue& a = inline_result.get("cache");
    const JsonValue& b = digest_result.get("cache");
    ASSERT_TRUE(a.isObject());
    ASSERT_TRUE(b.isObject());
    for (const char* field :
         {"reads", "writes", "read_hits", "write_hits", "read_misses",
          "partial_valid_read_misses", "write_misses",
          "write_miss_fetches", "lines_fetched",
          "writes_to_dirty_lines", "write_throughs", "invalidations",
          "victims", "dirty_victims", "dirty_victim_dirty_bytes",
          "flushed_valid_lines", "flushed_dirty_lines",
          "flushed_dirty_bytes", "victim_cache_hits", "line_allocs",
          "validate_fallbacks"}) {
        EXPECT_EQ(a.getNumber(field, -1), b.getNumber(field, -2))
            << "counter diverged: " << field;
    }

    // A name reference resolves through the same repository and keys
    // identically to the legacy bare-workload form.
    JsonValue named = parseResponse(service.handle(
        "{\"type\": \"run\", \"trace_ref\": \"name:ccom\","
        " \"config\": {\"size_bytes\": 4096}}"));
    ASSERT_TRUE(named.getBool("ok", false))
        << named.getString("error");
    JsonValue legacy =
        parseResponse(service.handle(runRequest("ccom", 4)));
    EXPECT_TRUE(legacy.getBool("cached", false));
    EXPECT_EQ(legacy.getString("digest"), named.getString("digest"));
}

TEST(Service, UploadRejectsBadBodies)
{
    Service service(testConfig());
    // No body, an unsupported encoding, and a body that fails to
    // parse (with the offending line in the error message).
    expectError(service, "{\"type\": \"upload\"}", "bad_request");
    expectError(service,
                uploadRequest(kMiniTrace,
                              ", \"encoding\": \"binary\""),
                "bad_request");
    JsonValue bad = parseResponse(service.handle(
        uploadRequest("r 0x10 4\\nnot a record\\n")));
    EXPECT_FALSE(bad.getBool("ok", true));
    EXPECT_EQ(bad.getString("code"), "bad_trace");
    EXPECT_NE(bad.getString("error").find("line 2"),
              std::string::npos)
        << bad.getString("error");

    // A config that fails validation is still a bad_request.
    expectError(service,
                "{\"type\": \"upload\", \"trace\": \"r 0x10 4\\n\","
                " \"config\": {\"size_bytes\": 3000}}",
                "bad_request");
}

TEST(Service, UploadEnforcesTheSizeCap)
{
    ServiceConfig config = testConfig();
    config.uploadCapBytes = 16;
    Service service(config);
    JsonValue v =
        parseResponse(service.handle(uploadRequest(kMiniTrace)));
    EXPECT_FALSE(v.getBool("ok", true));
    EXPECT_EQ(v.getString("code"), "trace_too_large");
    EXPECT_NE(v.getString("error").find("at most 16"),
              std::string::npos)
        << v.getString("error");

    // A body under the cap still works.
    JsonValue ok = parseResponse(
        service.handle(uploadRequest("r 0x10 4\\n")));
    EXPECT_TRUE(ok.getBool("ok", false)) << ok.getString("error");
}

TEST(Service, UploadInjectedImportFaultIsBadTrace)
{
    Service service(testConfig());
    jcache::fault::configure("trace.import=always");
    JsonValue v =
        parseResponse(service.handle(uploadRequest(kMiniTrace)));
    jcache::fault::reset();
    EXPECT_FALSE(v.getBool("ok", true));
    EXPECT_EQ(v.getString("code"), "bad_trace");
    EXPECT_NE(v.getString("error").find("injected fault"),
              std::string::npos);

    // Cleared fault: the same request now succeeds.
    JsonValue ok =
        parseResponse(service.handle(uploadRequest(kMiniTrace)));
    EXPECT_TRUE(ok.getBool("ok", false)) << ok.getString("error");
}

TEST(Service, StatsCountUploads)
{
    Service service(testConfig());
    service.handle(uploadRequest(kMiniTrace));
    service.handle(uploadRequest(kMiniTrace));  // cache hit
    JsonValue v =
        parseResponse(service.handle("{\"type\": \"stats\"}"));
    ASSERT_TRUE(v.getBool("ok", false));
    const JsonValue& requests = v.get("payload").get("requests");
    EXPECT_DOUBLE_EQ(requests.getNumber("upload", 0), 2.0);
    EXPECT_DOUBLE_EQ(requests.getNumber("total", 0), 3.0);
}

TEST(Service, StoreServesResultsAcrossInstances)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() /
         ("jcache_service_store_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    ServiceConfig config = testConfig();
    config.storeDir = dir;

    std::string fresh_text;
    {
        Service service(config);
        fresh_text = service.handle(runRequest("ccom", 4));
        JsonValue fresh = parseResponse(fresh_text);
        ASSERT_TRUE(fresh.getBool("ok", false))
            << fresh.getString("error");
        EXPECT_FALSE(fresh.getBool("cached", true));
    }

    // A new Service over the same directory starts with an empty
    // memory cache; the run must be served from disk, reported as
    // cached, and its envelope must match the fresh one byte for
    // byte once the cached flag is normalized.
    Service reopened(config);
    std::string cached_text = reopened.handle(runRequest("ccom", 4));
    JsonValue cached = parseResponse(cached_text);
    ASSERT_TRUE(cached.getBool("ok", false))
        << cached.getString("error");
    EXPECT_TRUE(cached.getBool("cached", false));
    std::size_t flag = cached_text.find("\"cached\": true");
    ASSERT_NE(flag, std::string::npos);
    cached_text.replace(flag, 14, "\"cached\": false");
    EXPECT_EQ(cached_text, fresh_text);

    // The stats document accounts for the disk hit.
    JsonValue stats =
        parseResponse(reopened.handle("{\"type\": \"stats\"}"));
    ASSERT_TRUE(stats.getBool("ok", false));
    const JsonValue& store = stats.get("payload").get("store");
    EXPECT_TRUE(store.getBool("enabled", false));
    EXPECT_GE(store.getNumber("hits", 0), 1.0);
    EXPECT_GE(store.getNumber("entries", 0), 1.0);
    fs::remove_all(dir);
}

TEST(Service, FailedStorePutStillAnswersTheRun)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() /
         ("jcache_service_put_failure_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    ServiceConfig config = testConfig();
    config.storeDir = dir;
    Service service(config);
    Service storeless(testConfig());

    // objects/ removed under the running service: the put of the
    // next computed result fails.  The result must still be answered
    // exactly as a storeless service answers it.
    fs::remove_all(fs::path(dir) / "objects");
    std::string answer = service.handle(runRequest("ccom", 4));
    JsonValue v = parseResponse(answer);
    ASSERT_TRUE(v.getBool("ok", false)) << v.getString("error");
    EXPECT_FALSE(v.getBool("cached", true));
    EXPECT_EQ(answer, storeless.handle(runRequest("ccom", 4)));

    JsonValue stats =
        parseResponse(service.handle("{\"type\": \"stats\"}"));
    const JsonValue& store = stats.get("payload").get("store");
    EXPECT_DOUBLE_EQ(store.getNumber("put_failures", -1), 1.0);
    EXPECT_DOUBLE_EQ(store.getNumber("entries", -1), 0.0);

    // The service keeps serving; the memory cache kept the result.
    JsonValue again = parseResponse(service.handle(runRequest("ccom", 4)));
    ASSERT_TRUE(again.getBool("ok", false)) << again.getString("error");
    EXPECT_TRUE(again.getBool("cached", false));
    fs::remove_all(dir);
}

TEST(Service, ShedRetryHintsAreJittered)
{
    jcache::fault::configure("service.admit=always");
    Service service(testConfig());
    std::vector<double> hints;
    for (int i = 0; i < 5; ++i) {
        JsonValue v = parseResponse(service.handle(
            "{\"type\": \"run\", \"workload\": \"ccom\"}"));
        EXPECT_EQ(v.getString("code"), "busy");
        double hint = v.getNumber("retry_after_ms", -1.0);
        EXPECT_GE(hint, 50.0);
        EXPECT_LE(hint, 5000.0);
        hints.push_back(hint);
    }
    // Identical hints synchronize every backed-off client into a
    // retry stampede; the jitter must spread them out.
    std::set<double> distinct(hints.begin(), hints.end());
    EXPECT_GT(distinct.size(), 1u);

    // The jitter is seeded, not random: a service configured the
    // same way deals the identical hint sequence again.
    Service replay(testConfig());
    for (double expected : hints) {
        JsonValue v = parseResponse(replay.handle(
            "{\"type\": \"run\", \"workload\": \"ccom\"}"));
        EXPECT_DOUBLE_EQ(v.getNumber("retry_after_ms", -1.0),
                         expected);
    }
    jcache::fault::reset();
}

TEST(Service, ExpiredDeadlineIsShedBeforeTheQueue)
{
    for (const char* type : kJobTypes) {
        SCOPED_TRACE(type);
        Service service(testConfig());
        JsonValue v = parseResponse(service.handle(jobRequest(
            type, 4,
            ", \"deadline_ms\": 0, \"request_id\": \"dl-1\"")));
        EXPECT_FALSE(v.getBool("ok", true));
        EXPECT_EQ(v.getString("code"), "deadline_exceeded");
        EXPECT_EQ(v.getString("request_id"), "dl-1");
        EXPECT_NE(v.getString("error"), "");
        EXPECT_DOUBLE_EQ(v.getNumber("waited_ms", -1.0), 0.0);

        // The taxonomy separates deadline sheds from busy sheds, in
        // both health and stats.
        JsonValue health =
            parseResponse(service.handle("{\"type\": \"health\"}"));
        const JsonValue& hq = health.get("payload").get("queue");
        EXPECT_DOUBLE_EQ(hq.getNumber("shed_deadline", 0), 1.0);
        EXPECT_DOUBLE_EQ(hq.getNumber("shed_busy", -1), 0.0);
        EXPECT_DOUBLE_EQ(hq.getNumber("shed", 0), 1.0);
        JsonValue stats =
            parseResponse(service.handle("{\"type\": \"stats\"}"));
        const JsonValue& sq = stats.get("payload").get("queue");
        EXPECT_DOUBLE_EQ(sq.getNumber("shed_deadline", 0), 1.0);
        EXPECT_DOUBLE_EQ(sq.getNumber("rejected_busy", -1), 0.0);
    }
}

TEST(Service, CachedResultsServeUnderAnExpiredDeadline)
{
    for (const char* type : kJobTypes) {
        SCOPED_TRACE(type);
        Service service(testConfig());
        JsonValue first =
            parseResponse(service.handle(jobRequest(type, 4)));
        ASSERT_TRUE(first.getBool("ok", false));

        // Graceful degradation: the cache lookup runs before the
        // deadline check, so a result that needs no work is returned
        // even when the budget is already gone.
        JsonValue hit = parseResponse(service.handle(
            jobRequest(type, 4, ", \"deadline_ms\": 0")));
        EXPECT_TRUE(hit.getBool("ok", false)) << hit.getString("error");
        EXPECT_TRUE(hit.getBool("cached", false));
    }
}

TEST(Service, QueuedDeadlineExpiryIsShedAtDequeue)
{
    // One slow job (service.delay sleeps 300ms) holds the single
    // executor; a second request with a 50ms budget must be shed at
    // dequeue with the time it spent waiting.
    jcache::fault::configure("service.delay=always");
    Service service(testConfig());
    std::thread slow([&] {
        JsonValue v =
            parseResponse(service.handle(runRequest("ccom", 4)));
        EXPECT_TRUE(v.getBool("ok", false)) << v.getString("error");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    JsonValue v = parseResponse(service.handle(
        "{\"type\": \"run\", \"workload\": \"ccom\","
        " \"deadline_ms\": 50, \"request_id\": \"dl-2\","
        " \"config\": {\"size_bytes\": 8192}}"));
    slow.join();
    jcache::fault::reset();

    EXPECT_FALSE(v.getBool("ok", true));
    EXPECT_EQ(v.getString("code"), "deadline_exceeded");
    EXPECT_EQ(v.getString("request_id"), "dl-2");
    EXPECT_GT(v.getNumber("waited_ms", 0.0), 50.0);

    JsonValue health =
        parseResponse(service.handle("{\"type\": \"health\"}"));
    EXPECT_DOUBLE_EQ(health.get("payload").get("queue").getNumber(
                         "shed_deadline", 0),
                     1.0);
}

TEST(Service, CodelShedsTheMiddleOfASustainedBacklog)
{
    // Every job sleeps 300ms (service.delay), the sojourn target is
    // 1ms and the interval 25ms: with four jobs behind one executor
    // the controller arms on the second dequeue and is dropping by
    // the third.  The last job never sheds (nothing behind it), so
    // exactly one of the three waiters bounces.
    ServiceConfig config = testConfig();
    config.admission.targetMillis = 1.0;
    config.admission.intervalMillis = 25.0;
    jcache::fault::configure("service.delay=always");
    Service service(config);

    std::thread head([&] { service.handle(runRequest("ccom", 4)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::vector<std::string> responses(3);
    std::vector<std::thread> waiters;
    for (int i = 0; i < 3; ++i) {
        waiters.emplace_back([&, i] {
            responses[i] =
                service.handle(runRequest("ccom", 8u << i));
        });
    }
    for (std::thread& t : waiters)
        t.join();
    head.join();
    jcache::fault::reset();

    int busy = 0, ok = 0;
    for (const std::string& text : responses) {
        JsonValue v = parseResponse(text);
        if (v.getBool("ok", false)) {
            ++ok;
            continue;
        }
        EXPECT_EQ(v.getString("code"), "busy");
        double hint = v.getNumber("retry_after_ms", -1.0);
        EXPECT_GE(hint, 50.0);
        EXPECT_LE(hint, 5000.0);
        ++busy;
    }
    EXPECT_EQ(busy, 1);
    EXPECT_EQ(ok, 2);

    JsonValue stats =
        parseResponse(service.handle("{\"type\": \"stats\"}"));
    const JsonValue& payload = stats.get("payload");
    EXPECT_DOUBLE_EQ(
        payload.get("queue").getNumber("shed_codel", 0), 1.0);
    const JsonValue& admission = payload.get("admission");
    EXPECT_EQ(admission.getString("mode"), "codel");
    EXPECT_DOUBLE_EQ(admission.getNumber("dropped_total", 0), 1.0);
    EXPECT_GT(payload.get("queue")
                  .get("wait_seconds")
                  .getNumber("max", 0),
              0.0);
}

TEST(Service, ARunBesideASlowJobAnswersWithoutWaitingForIt)
{
    // service.delay=n1 sleeps 300ms in the first dequeued job only.
    // With two scheduler threads the other run is dequeued beside
    // it, runs on the free pool worker and answers long before the
    // delay ends; one scheduler would queue it behind the sleeper.
    // Both runs replay a small uploaded trace, so even a sanitizer
    // build replays it in far less than the delay.
    ServiceConfig config = testConfig();
    config.executorThreads = 2;
    Service service(config);
    JsonValue uploaded =
        parseResponse(service.handle(uploadRequest(kMiniTrace)));
    ASSERT_TRUE(uploaded.getBool("ok", false))
        << uploaded.getString("error");
    const std::string ref =
        "digest:" + uploaded.get("payload").getString("trace_digest");
    jcache::fault::configure("service.delay=n1");

    using StatClock = std::chrono::steady_clock;
    std::mutex mutex;
    std::condition_variable answered;
    std::vector<double> elapsed_ms;
    std::vector<std::string> responses;
    StatClock::time_point submitted = StatClock::now();
    for (unsigned kb : {4u, 8u}) {
        service.handleAsync(
            "{\"type\": \"run\", \"trace_ref\": \"" + ref +
                "\", \"config\": {\"size_bytes\": " +
                std::to_string(kb * 1024) + "}}",
            [&](std::string response) {
                double ms = std::chrono::duration<double, std::milli>(
                                StatClock::now() - submitted)
                                .count();
                std::lock_guard<std::mutex> lock(mutex);
                elapsed_ms.push_back(ms);
                responses.push_back(std::move(response));
                answered.notify_one();
            });
    }
    {
        std::unique_lock<std::mutex> lock(mutex);
        answered.wait(lock, [&] { return responses.size() == 2; });
    }
    jcache::fault::reset();

    for (const std::string& text : responses) {
        JsonValue v = parseResponse(text);
        EXPECT_TRUE(v.getBool("ok", false)) << v.getString("error");
    }
    EXPECT_LT(elapsed_ms[0], 150.0);
    EXPECT_GE(elapsed_ms[1], 300.0);
}

TEST(Service, HealthAnswersWhileTheQueueIsSaturated)
{
    // Health and stats never touch the job queue: they must answer
    // promptly while slow jobs (300ms each) saturate the executor.
    jcache::fault::configure("service.delay=always");
    Service service(testConfig());
    std::vector<std::thread> stuck;
    for (int i = 0; i < 3; ++i) {
        stuck.emplace_back([&, i] {
            service.handle(runRequest("ccom", 4u << i));
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    using StatClock = std::chrono::steady_clock;
    for (int i = 0; i < 5; ++i) {
        StatClock::time_point begin = StatClock::now();
        JsonValue health =
            parseResponse(service.handle("{\"type\": \"health\"}"));
        double elapsed_ms =
            std::chrono::duration<double, std::milli>(
                StatClock::now() - begin)
                .count();
        EXPECT_TRUE(health.getBool("ok", false));
        EXPECT_TRUE(
            health.get("payload").getBool("accepting", false));
        EXPECT_LT(elapsed_ms, 250.0);
    }
    JsonValue stats =
        parseResponse(service.handle("{\"type\": \"stats\"}"));
    EXPECT_TRUE(stats.getBool("ok", false));

    for (std::thread& t : stuck)
        t.join();
    jcache::fault::reset();
}

TEST(Service, SnapshotStaysConsistentUnderConcurrentScrapes)
{
    // Regression for the scrape-path counter races: stats, health
    // and snapshot() readers run against live mutators.  The assert
    // payload is thin — the real check is a clean TSan report.
    Service service(testConfig());
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&, r] {
            while (!stop.load()) {
                if (r == 0) {
                    JsonValue v = parseResponse(
                        service.handle("{\"type\": \"stats\"}"));
                    EXPECT_TRUE(v.getBool("ok", false));
                } else if (r == 1) {
                    JsonValue v = parseResponse(
                        service.handle("{\"type\": \"health\"}"));
                    EXPECT_TRUE(v.getBool("ok", false));
                } else {
                    jcache::service::ServiceSnapshot snap =
                        service.snapshot();
                    EXPECT_GE(snap.shedTotal(), snap.shedCodel);
                }
            }
        });
    }
    for (int i = 0; i < 6; ++i) {
        JsonValue v = parseResponse(
            service.handle(runRequest("ccom", i % 2 ? 4 : 8)));
        EXPECT_TRUE(v.getBool("ok", false)) << v.getString("error");
    }
    stop.store(true);
    for (std::thread& t : readers)
        t.join();
}

TEST(Service, ZeroCacheCapacityAlwaysRecomputes)
{
    ServiceConfig config = testConfig();
    config.cacheCapacity = 0;
    Service service(config);
    JsonValue first =
        parseResponse(service.handle(runRequest("ccom", 4)));
    JsonValue second =
        parseResponse(service.handle(runRequest("ccom", 4)));
    ASSERT_TRUE(first.getBool("ok", false));
    ASSERT_TRUE(second.getBool("ok", false));
    EXPECT_FALSE(second.getBool("cached", true));
    // Same deterministic replay either way.
    EXPECT_EQ(first.getString("digest"), second.getString("digest"));
}

namespace
{

/**
 * Compare `actual` with the committed golden file `name`.  On a
 * mismatch the actual bytes are written to `<name>.actual` in the
 * temporary directory, so a deliberate change can be reviewed with
 * diff and then copied over the golden file.
 */
void
expectGolden(const std::string& name, const std::string& actual)
{
    namespace fs = std::filesystem;
    std::string golden_path = std::string(JCACHE_GOLDEN_DIR) + "/" + name;
    std::optional<std::string> golden;
    if (std::ifstream in{golden_path, std::ios::binary}) {
        std::ostringstream text;
        text << in.rdbuf();
        golden = text.str();
    }
    if (golden && *golden == actual)
        return;
    std::string actual_path =
        (fs::temp_directory_path() / (name + ".actual")).string();
    std::ofstream(actual_path, std::ios::binary) << actual;
    std::size_t at = 0;
    if (golden) {
        while (at < golden->size() && at < actual.size() &&
               (*golden)[at] == actual[at])
            ++at;
    }
    ADD_FAILURE() << (golden ? "bytes differ from " : "missing ")
                  << golden_path << " at offset " << at
                  << "; the actual transcript is in " << actual_path;
}

} // namespace

TEST(Service, WireTranscriptMatchesTheGoldenFile)
{
    // The raw response bytes of every job type and refusal, pinned
    // against tests/golden/service_wire.txt.  Each entry is the
    // request after "> " and its response after "< ".  Result digests
    // hash the engine version and the API minor (store/key.hh), so a
    // kEngineVersion or kApiVersion bump changes them and this file
    // must be regenerated; nothing else should.  ping, stats and
    // health are left out: they carry the version string and timings.
    std::string transcript;
    auto send = [&](Service& service, const std::string& request) {
        transcript += "> " + request + "\n< " +
                      service.handle(request) + "\n";
    };

    Service service(testConfig());
    for (const char* type : kJobTypes) {
        std::string id = std::string(", \"request_id\": \"") + type;
        send(service, jobRequest(type, 4, id + "-miss\""));
        send(service, jobRequest(type, 4, id + "-hit\""));
        send(service, jobRequest(type, 4,
                                 ", \"deadline_ms\": 0" + id +
                                     "-late-hit\""));
        send(service, jobRequest(type, 16,
                                 ", \"deadline_ms\": 0" + id +
                                     "-late-miss\""));
    }

    // Shed at admission, each by a fresh service: the hint is the
    // first draw of the seeded jitter around the 200 ms guess.
    jcache::fault::configure("service.admit=always");
    for (const char* type : kJobTypes) {
        Service fresh(testConfig());
        send(fresh, jobRequest(type, 8));
    }
    jcache::fault::reset();

    // Typed refusals, every one answered before anything queues.
    send(service, "{\"type\": \"run\", \"workload\": \"nonesuch\"}");
    send(service, "{\"type\": \"sweep\", \"trace_ref\": "
                  "\"digest:0123456789abcdef\", \"axis\": \"size\"}");
    send(service, "{\"type\": \"run\", \"workload\": \"ccom\","
                  " \"config\": {\"size_bytes\": 3000}}");
    send(service, "{\"type\": \"sweep\", \"workload\": \"ccom\","
                  " \"axis\": \"voltage\"}");
    send(service, "{\"type\": \"sweep\", \"axis\": \"size\"}");
    send(service, "{\"type\": \"batch\", \"workload\": \"ccom\","
                  " \"configs\": []}");
    send(service, "{\"type\": \"upload\", \"trace\": \"r 0x10 4\\n\","
                  " \"encoding\": \"binary\"}");
    send(service, "{\"type\": \"upload\", \"name\": \"mini\","
                  " \"trace\": \"r 0x10 4\\nnot a record\\n\"}");
    send(service, "{\"type\": \"run\", \"trace_ref\": "
                  "\"path:/etc/passwd\"}");
    send(service, "{\"type\": \"nonsense\", \"request_id\": \"t-1\"}");
    send(service, "not json at all");
    send(service, "[1, 2, 3]");
    send(service, "{\"type\": \"run\", \"protocol\": 999}");
    send(service, "{\"type\": \"run\", \"api_version\": \"2.0\"}");
    ServiceConfig capped = testConfig();
    capped.uploadCapBytes = 16;
    Service small(capped);
    send(small, jobRequest("upload", 4));

    expectGolden("service_wire.txt", transcript);
}

TEST(Service, UploadRefusalsCountAsErrors)
{
    // Every refusal before queueing counts in stats.requests.errors,
    // upload's trace_too_large and bad_trace included.
    ServiceConfig config = testConfig();
    config.uploadCapBytes = 16;
    Service service(config);
    expectError(service, uploadRequest(kMiniTrace), "trace_too_large");
    expectError(service, uploadRequest("not a record\\n"), "bad_trace");
    JsonValue stats =
        parseResponse(service.handle("{\"type\": \"stats\"}"));
    const JsonValue& requests = stats.get("payload").get("requests");
    EXPECT_DOUBLE_EQ(requests.getNumber("upload", 0), 2.0);
    EXPECT_DOUBLE_EQ(requests.getNumber("errors", -1), 2.0);
}
