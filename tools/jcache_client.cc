/**
 * @file
 * jcache-client: submit requests to a running jcached.
 *
 * Usage:
 *   jcache-client [--host H] [--port N] [--timeout MS] [--verbose]
 *                 [--retry [N]] [--backoff MS] [--deadline MS]
 *                 [--version] <command> [args]
 *
 * Commands:
 *   run <trace-ref> [--size KB] [--line B] [--assoc N] [--hit wt|wb]
 *       [--miss fow|wv|wa|wi] [--replacement lru|fifo|random]
 *       [--no-flush]
 *   sweep <trace-ref> --axis size|line|assoc [--metric miss|traffic|dirty]
 *       [--hit wt|wb] [--miss fow|wv|wa|wi]
 *   upload <trace-file> [--name NAME] [--digest-only] [run flags]
 *   stats | health | ping | shutdown
 *   metrics [--metrics-port N] [--json]
 *
 * `metrics` scrapes the daemon's Prometheus exposition endpoint
 * (jcached --metrics-port) over plain HTTP — no framing, no daemon
 * protocol — and pretty-prints the families, or re-emits them as one
 * JSON document with --json for scripts.
 *
 * `run` and `sweep` print byte-identical tables to jcache-sim and
 * jcache-sweep: the daemon returns raw counts and the client formats
 * them through the same shared renderer the offline tools use.
 * --verbose reports the result digest and cache status on stderr.
 *
 * A <trace-ref> is a workload name ("grr"), or a `digest:<16 hex>`
 * reference to a trace the daemon already knows — uploaded earlier
 * or sitting in its --trace-cache-dir.  Bare names keep working
 * unchanged (they parse as `name:` refs).
 *
 * `upload` sends a local trace file (any encoding of
 * docs/TRACE_FORMAT.md or the native formats; re-encoded as
 * interchange text on the wire) for the daemon to simulate, and
 * renders the result exactly like `run` — so uploading a file and
 * running `jcache-sim` on it print byte-identical tables.  The
 * trace's canonical content digest is reported on stderr (so stdout
 * stays table-identical); `--digest-only` instead prints just the
 * digest on stdout, for scripts that upload and then run by digest.
 *
 * --retry turns transport failures and `busy` sheds into bounded
 * retries with exponential backoff and jitter (base --backoff ms,
 * doubling, capped at 5 s), reconnecting on every attempt and
 * honoring the daemon's `retry_after_ms` hint.  Retrying is safe:
 * requests are pure queries, the daemon's result cache is keyed by
 * request content, and every attempt reuses one request id so
 * responses correlate across retries.
 *
 * --deadline MS is a *total* wall-clock budget for the logical
 * request: every attempt sends the remaining budget as the request's
 * `deadline_ms` (so the daemon sheds work it could not answer in
 * time), per-attempt socket timeouts shrink to fit, and the retry
 * loop stops when the budget is spent — retries never exceed it.
 * Retrying without --deadline is still wall-clock-bounded by a
 * 60 s default, so a dead daemon fails fast instead of burning
 * attempts × timeout.
 */

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "service/json_value.hh"
#include "service/render.hh"
#include "stats/json.hh"
#include "telemetry/exposition.hh"
#include "telemetry/http_exporter.hh"
#include "sim/trace_ref.hh"
#include "trace/import.hh"
#include "util/logging.hh"
#include "util/version.hh"

namespace
{

using namespace jcache;

int
usage()
{
    std::cerr <<
        "usage: jcache-client [--host H] [--port N] [--timeout MS]\n"
        "  [--verbose] [--retry [N]] [--backoff MS] [--deadline MS]\n"
        "  [--version] <command> [args]\n"
        "commands:\n"
        "  run <trace-ref> [--size KB] [--line B] [--assoc N]\n"
        "      [--hit wt|wb] [--miss fow|wv|wa|wi]\n"
        "      [--replacement lru|fifo|random] [--no-flush]\n"
        "  sweep <trace-ref> --axis size|line|assoc\n"
        "      [--metric miss|traffic|dirty] [--hit wt|wb]\n"
        "      [--miss fow|wv|wa|wi]\n"
        "  upload <trace-file> [--name NAME] [--digest-only]\n"
        "      [run flags]\n"
        "  (a <trace-ref> is a workload name or digest:<16 hex>)\n"
        "  stats\n"
        "  health\n"
        "  ping\n"
        "  shutdown\n"
        "  metrics [--metrics-port N] [--json [path]]\n";
    return 2;
}

/** Default exposition port, one above the daemon's request port. */
constexpr std::uint16_t kDefaultMetricsPort = 7422;

/** `key="value",...` for human-readable sample lines. */
std::string
labelText(const telemetry::Labels& labels)
{
    if (labels.empty())
        return "";
    std::string text = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0)
            text += ",";
        text += labels[i].first + "=\"" + labels[i].second + "\"";
    }
    return text + "}";
}

/** Pretty-print parsed families, one indented sample per line. */
void
printMetrics(const std::vector<telemetry::ParsedFamily>& families)
{
    for (const telemetry::ParsedFamily& fam : families) {
        std::cout << fam.name << " (" << fam.type << ")";
        if (!fam.help.empty())
            std::cout << ": " << fam.help;
        std::cout << "\n";
        for (const telemetry::ParsedSample& s : fam.samples) {
            std::cout << "  ";
            if (s.name != fam.name)
                std::cout << s.name;
            std::cout << labelText(s.labels) << " = " << s.value
                      << "\n";
        }
    }
}

/** Re-emit parsed families as one JSON document for scripts. */
void
printMetricsJson(const std::vector<telemetry::ParsedFamily>& families,
                 std::ostream& os)
{
    stats::JsonWriter json(os);
    json.beginObject();
    json.beginArray("families");
    for (const telemetry::ParsedFamily& fam : families) {
        json.beginObject();
        json.field("name", fam.name);
        json.field("type", fam.type);
        json.field("help", fam.help);
        json.beginArray("samples");
        for (const telemetry::ParsedSample& s : fam.samples) {
            json.beginObject();
            json.field("name", s.name);
            json.beginObject("labels");
            for (const auto& [key, value] : s.labels)
                json.field(key, value);
            json.endObject();
            json.field("value", s.value);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

/** Connection endpoint plus the retry policy applied to it. */
struct Transport
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 7421;
    unsigned timeoutMillis = 300000;

    /** Total attempts; 1 means no retrying. */
    unsigned attempts = 1;

    /** Backoff base; doubles per attempt, capped at kBackoffCap. */
    unsigned backoffMillis = 100;

    /**
     * Total wall-clock budget of the logical request, in ms; 0 means
     * none (retrying still falls back to kDefaultRetryWallMillis).
     */
    unsigned deadlineMillis = 0;

    bool verbose = false;
};

constexpr unsigned kBackoffCapMillis = 5000;
constexpr unsigned kDefaultRetryAttempts = 8;

/** Wall-clock cap on retrying when no --deadline was given. */
constexpr double kDefaultRetryWallMillis = 60000.0;

/**
 * Daemon errors where a retry cannot change the outcome: the request
 * itself is at fault (or the daemon is), not the moment it arrived.
 */
bool
isNonRetryableCode(const std::string& code)
{
    return code == "parse_error" || code == "bad_request" ||
           code == "unknown_type" || code == "protocol_mismatch" ||
           code == "unsupported_version" || code == "internal_error" ||
           code == "trace_too_large" || code == "bad_trace" ||
           code == "unknown_trace";
}

/**
 * One attempt on a fresh connection.  Returns false with `error`
 * filled on a transport failure; a daemon-level error still returns
 * true with the response document.
 */
bool
tryExchange(const Transport& t, const std::string& request,
            std::string& response, std::string& error)
{
    net::Socket socket =
        net::Socket::connectTo(t.host, t.port, &error);
    if (!socket.valid())
        return false;
    socket.setTimeout(t.timeoutMillis);

    if (net::writeFrame(socket, request) != net::FrameStatus::Ok) {
        error = "failed to send request";
        return false;
    }
    net::FrameStatus status = net::readFrame(socket, response);
    if (status != net::FrameStatus::Ok) {
        error = "failed to read response (" + net::name(status) + ")";
        return false;
    }
    return true;
}

/**
 * Request/response exchange under the transport's retry policy;
 * exits the process once the policy is exhausted.  Reconnects per
 * attempt: a failed read leaves a stream that is no longer
 * frame-aligned.
 *
 * `build` produces the request for one attempt from the remaining
 * deadline budget in ms (0 = no deadline), so every retry tells the
 * daemon how much time is actually left rather than repeating the
 * original budget.  The loop is bounded by wall clock as well as by
 * attempt count: --deadline (or the 60 s retry default) caps total
 * time including backoff sleeps and connect timeouts.
 */
std::string
exchangeWithRetry(const Transport& t,
                  const std::function<std::string(double)>& build)
{
    using Clock = std::chrono::steady_clock;
    unsigned attempts = t.attempts == 0 ? 1 : t.attempts;
    double budget_millis = t.deadlineMillis > 0
        ? static_cast<double>(t.deadlineMillis)
        : (attempts > 1 ? kDefaultRetryWallMillis : 0.0);
    Clock::time_point started = Clock::now();
    std::mt19937_64 jitter_rng(std::random_device{}());
    std::string last_error;
    unsigned tried = 0;

    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
        double remaining_millis = 0.0;
        if (budget_millis > 0.0) {
            double elapsed =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - started)
                    .count();
            remaining_millis = budget_millis - elapsed;
            if (remaining_millis <= 0.0) {
                if (last_error.empty())
                    last_error = "no attempt fit in the budget";
                fatal("deadline budget of " +
                      std::to_string(
                          static_cast<unsigned>(budget_millis)) +
                      " ms exhausted after " + std::to_string(tried) +
                      (tried == 1 ? " attempt: " : " attempts: ") +
                      last_error);
            }
        }
        Transport attempt_t = t;
        if (remaining_millis > 0.0 &&
            remaining_millis <
                static_cast<double>(attempt_t.timeoutMillis)) {
            attempt_t.timeoutMillis = static_cast<unsigned>(
                remaining_millis < 1.0 ? 1.0 : remaining_millis);
        }
        std::string request =
            build(t.deadlineMillis > 0 ? remaining_millis : 0.0);
        ++tried;

        std::string response;
        double server_hint_millis = 0.0;
        if (tryExchange(attempt_t, request, response, last_error)) {
            std::string parse_error;
            service::JsonValue value = service::JsonValue::parse(
                response, &parse_error);
            if (!parse_error.empty() || !value.isObject() ||
                value.getBool("ok", false))
                return response;
            std::string code = value.getString("code", "unknown");
            if (isNonRetryableCode(code))
                return response;
            // Retryable daemon error: `busy` (with its back-off
            // hint), `deadline_exceeded` (the remaining budget may
            // still fit a drained queue) or an unanticipated code
            // worth one more try.
            last_error = "daemon error [" + code + "]: " +
                         value.getString("error", "unspecified");
            server_hint_millis =
                value.getNumber("retry_after_ms", 0.0);
        }
        if (attempt == attempts)
            break;

        // Exponential backoff with jitter in [0.5, 1.5) of the
        // nominal delay; the server's hint sets the floor so a
        // herd of shed clients spreads out instead of re-colliding.
        double nominal = static_cast<double>(t.backoffMillis);
        for (unsigned a = 1; a < attempt; ++a) {
            nominal *= 2.0;
            if (nominal >= kBackoffCapMillis)
                break;
        }
        if (nominal > kBackoffCapMillis)
            nominal = kBackoffCapMillis;
        if (server_hint_millis > nominal)
            nominal = server_hint_millis;
        double fraction =
            std::uniform_real_distribution<double>(0.5, 1.5)(
                jitter_rng);
        double sleep_for = nominal * fraction;
        if (budget_millis > 0.0) {
            // Never sleep past the budget: the next iteration's
            // check should fire on time, not late.
            double elapsed =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - started)
                    .count();
            double left = budget_millis - elapsed;
            if (left <= 0.0)
                sleep_for = 0.0;
            else if (sleep_for > left)
                sleep_for = left;
        }
        if (t.verbose) {
            std::cerr << "attempt " << attempt << "/" << attempts
                      << " failed (" << last_error << "); retrying in "
                      << static_cast<unsigned>(sleep_for) << " ms\n";
        }
        // Sleep the fractional remainder too: truncated to whole
        // milliseconds, a sub-millisecond remainder of the budget
        // sleeps 0 ms and fast-failing attempts spin through the
        // attempt count before the budget check can fire.
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_for));
    }
    fatal(last_error + " (after " + std::to_string(tried) +
          (tried == 1 ? " attempt)" : " attempts)"));
}

/** Parse a response and fail the process on `ok: false`. */
service::JsonValue
parseResponse(const std::string& response)
{
    std::string parse_error;
    service::JsonValue value =
        service::JsonValue::parse(response, &parse_error);
    fatalIf(!parse_error.empty(),
            "malformed response: " + parse_error);
    fatalIf(!value.isObject(), "malformed response: not an object");
    if (!value.getBool("ok", false)) {
        fatal("daemon error [" + value.getString("code", "unknown") +
              "]: " + value.getString("error", "unspecified"));
    }
    return value;
}

struct RunFlags
{
    core::CacheConfig config;
    bool flush = true;
};

/** Shared --size/--line/--assoc/--hit/--miss/... flag parsing. */
bool
parseConfigFlag(const std::string& flag, const std::string& value,
                core::CacheConfig& config)
{
    if (flag == "--size") {
        config.sizeBytes =
            std::strtoull(value.c_str(), nullptr, 10) * 1024;
    } else if (flag == "--line") {
        config.lineBytes = static_cast<unsigned>(
            std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--assoc") {
        config.assoc = static_cast<unsigned>(
            std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--hit") {
        auto policy = core::parseHitPolicy(value);
        fatalIf(!policy, "unknown hit policy: " + value +
                             " (use wt|wb)");
        config.hitPolicy = *policy;
    } else if (flag == "--miss") {
        auto policy = core::parseMissPolicy(value);
        fatalIf(!policy, "unknown miss policy: " + value +
                             " (use fow|wv|wa|wi)");
        config.missPolicy = *policy;
    } else if (flag == "--replacement") {
        auto policy = core::parseReplacementPolicy(value);
        fatalIf(!policy, "unknown replacement policy: " + value +
                             " (use lru|fifo|random)");
        config.replacement = *policy;
    } else {
        return false;
    }
    return true;
}

/**
 * Random 16-hex id minted once per logical request and reused across
 * retries, so daemon-side logs and responses correlate attempts.
 */
std::string
makeRequestId()
{
    std::random_device rd;
    std::uint64_t bits = (static_cast<std::uint64_t>(rd()) << 32) ^
                         rd();
    std::ostringstream oss;
    oss << std::hex << std::setw(16) << std::setfill('0') << bits;
    return oss.str();
}

/** The request preamble every builder starts with. */
void
writePreamble(stats::JsonWriter& json, const std::string& type,
              double deadline_millis)
{
    json.field("type", type);
    json.field("protocol", static_cast<double>(kProtocolVersion));
    json.field("api_version", std::string(kApiVersion));
    if (deadline_millis > 0.0)
        json.field("deadline_ms", deadline_millis);
}

/**
 * Write the trace reference: the canonical `trace_ref` spec, plus
 * the legacy `workload` field for plain names so a pre-1.4 daemon
 * still serves them.
 */
void
writeTraceRef(stats::JsonWriter& json, const std::string& spec)
{
    std::optional<sim::TraceRef> ref = sim::TraceRef::parse(spec);
    fatalIf(!ref, "malformed trace reference: '" + spec + "'");
    json.field("trace_ref", ref->spec());
    if (ref->kind() == sim::TraceRef::Kind::Name)
        json.field("workload", ref->value());
}

std::string
runRequest(const std::string& workload, const RunFlags& flags,
           const std::string& request_id, double deadline_millis)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    writePreamble(json, "run", deadline_millis);
    json.field("request_id", request_id);
    writeTraceRef(json, workload);
    json.field("flush", flags.flush);
    service::writeCacheConfig(json, "config", flags.config);
    json.endObject();
    return oss.str();
}

std::string
sweepRequest(const std::string& workload, const std::string& axis,
             const core::CacheConfig& base,
             const std::string& request_id, double deadline_millis)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    writePreamble(json, "sweep", deadline_millis);
    json.field("request_id", request_id);
    writeTraceRef(json, workload);
    json.field("axis", axis);
    service::writeCacheConfig(json, "config", base);
    json.endObject();
    return oss.str();
}

std::string
uploadRequest(const std::string& name, const std::string& body,
              const RunFlags& flags, const std::string& request_id,
              double deadline_millis)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    writePreamble(json, "upload", deadline_millis);
    json.field("request_id", request_id);
    json.field("name", name);
    json.field("encoding", "text");
    json.field("trace", body);
    json.field("flush", flags.flush);
    service::writeCacheConfig(json, "config", flags.config);
    json.endObject();
    return oss.str();
}

std::string
bareRequest(const std::string& type, double deadline_millis = 0.0)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    writePreamble(json, type, deadline_millis);
    json.endObject();
    return oss.str();
}

void
reportCacheStatus(const service::JsonValue& response, bool verbose)
{
    if (!verbose)
        return;
    std::cerr << "digest " << response.getString("digest")
              << (response.getBool("cached", false)
                      ? " (result-cache hit)"
                      : " (computed)")
              << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    Transport transport;

    int i = 1;
    for (; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--version") {
            std::cout << versionLine("jcache-client") << "\n";
            return 0;
        }
        if (flag == "--verbose") {
            transport.verbose = true;
            continue;
        }
        if (flag == "--retry") {
            // The attempt count is optional: bare --retry uses the
            // default, a following number overrides it.
            transport.attempts = kDefaultRetryAttempts;
            if (i + 1 < argc &&
                std::isdigit(
                    static_cast<unsigned char>(argv[i + 1][0]))) {
                transport.attempts = static_cast<unsigned>(
                    std::strtoul(argv[++i], nullptr, 10));
                if (transport.attempts == 0)
                    transport.attempts = 1;
            }
            continue;
        }
        if (flag == "--backoff" && i + 1 < argc) {
            transport.backoffMillis = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
            if (transport.backoffMillis == 0)
                transport.backoffMillis = 1;
            continue;
        }
        if (flag == "--host" && i + 1 < argc) {
            transport.host = argv[++i];
            continue;
        }
        if (flag == "--port" && i + 1 < argc) {
            transport.port = static_cast<std::uint16_t>(
                std::strtoul(argv[++i], nullptr, 10));
            continue;
        }
        if (flag == "--timeout" && i + 1 < argc) {
            transport.timeoutMillis = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
            continue;
        }
        if (flag == "--deadline" && i + 1 < argc) {
            transport.deadlineMillis = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
            continue;
        }
        break;
    }
    if (i >= argc)
        return usage();
    std::string command = argv[i++];

    try {
        if (command == "run") {
            if (i >= argc)
                return usage();
            std::string workload = argv[i++];
            RunFlags flags;
            flags.config.hitPolicy = core::WriteHitPolicy::WriteBack;
            for (; i < argc; ++i) {
                std::string flag = argv[i];
                if (flag == "--no-flush") {
                    flags.flush = false;
                    continue;
                }
                if (i + 1 >= argc)
                    return usage();
                if (!parseConfigFlag(flag, argv[++i], flags.config))
                    return usage();
            }
            flags.config.validate();

            std::string request_id = makeRequestId();
            std::string response_text = exchangeWithRetry(
                transport, [&](double deadline_millis) {
                    return runRequest(workload, flags, request_id,
                                      deadline_millis);
                });
            service::JsonValue response =
                parseResponse(response_text);
            reportCacheStatus(response, transport.verbose);

            const service::JsonValue& payload =
                response.get("payload");
            sim::RunResult result =
                service::parseRunResult(payload.get("result"));
            service::renderRunTable(
                std::cout, result, payload.getString("workload"),
                payload.getBool("flushed", true));
            return 0;
        }

        if (command == "sweep") {
            if (i >= argc)
                return usage();
            std::string workload = argv[i++];
            std::string axis;
            std::string metric = "miss";
            core::CacheConfig base;
            base.hitPolicy = core::WriteHitPolicy::WriteBack;
            for (; i < argc; ++i) {
                std::string flag = argv[i];
                if (i + 1 >= argc)
                    return usage();
                std::string value = argv[++i];
                if (flag == "--axis") {
                    axis = value;
                } else if (flag == "--metric") {
                    metric = value;
                } else if (!parseConfigFlag(flag, value, base)) {
                    return usage();
                }
            }
            if (axis.empty() || !service::isSweepMetric(metric))
                return usage();

            std::string request_id = makeRequestId();
            std::string response_text = exchangeWithRetry(
                transport, [&](double deadline_millis) {
                    return sweepRequest(workload, axis, base,
                                        request_id, deadline_millis);
                });
            service::JsonValue response =
                parseResponse(response_text);
            reportCacheStatus(response, transport.verbose);

            const service::JsonValue& payload =
                response.get("payload");
            std::vector<std::string> labels;
            for (const service::JsonValue& label :
                 payload.get("labels").items())
                labels.push_back(label.string());
            std::vector<sim::RunResult> results;
            for (const service::JsonValue& item :
                 payload.get("results").items())
                results.push_back(
                    service::parseRunResult(item.get("result")));
            fatalIf(labels.size() != results.size(),
                    "malformed sweep payload");
            service::renderSweepTable(
                std::cout, payload.getString("axis", axis), metric,
                payload.getString("workload", workload), base, labels,
                results);
            return 0;
        }

        if (command == "upload") {
            if (i >= argc)
                return usage();
            std::string path = argv[i++];
            std::string name;
            bool digest_only = false;
            RunFlags flags;
            flags.config.hitPolicy = core::WriteHitPolicy::WriteBack;
            for (; i < argc; ++i) {
                std::string flag = argv[i];
                if (flag == "--no-flush") {
                    flags.flush = false;
                    continue;
                }
                if (flag == "--digest-only") {
                    digest_only = true;
                    continue;
                }
                if (i + 1 >= argc)
                    return usage();
                std::string value = argv[++i];
                if (flag == "--name") {
                    name = value;
                    continue;
                }
                if (!parseConfigFlag(flag, value, flags.config))
                    return usage();
            }
            flags.config.validate();

            // Load locally (any supported encoding) and re-encode as
            // interchange text for the wire; the daemon re-imports,
            // so a malformed file fails here, not server-side.  The
            // default name is whatever loading named the trace (the
            // embedded name for native files, the stem otherwise),
            // matching what jcache-sim would print for this file.
            trace::Trace trace = trace::loadAnyTrace(path);
            if (name.empty())
                name = trace.name();
            std::ostringstream body;
            trace::exportTraceText(trace, body);
            if (transport.verbose) {
                std::cerr << "uploading " << trace.size()
                          << " records (" << body.str().size()
                          << " encoded bytes) as '" << name << "'\n";
            }

            std::string request_id = makeRequestId();
            std::string encoded = body.str();
            std::string response_text = exchangeWithRetry(
                transport, [&](double deadline_millis) {
                    return uploadRequest(name, encoded, flags,
                                         request_id,
                                         deadline_millis);
                });
            service::JsonValue response =
                parseResponse(response_text);
            reportCacheStatus(response, transport.verbose);

            const service::JsonValue& payload =
                response.get("payload");
            // The canonical content digest: what a later
            // `run digest:<...>` resolves by.  Stderr keeps stdout
            // byte-identical to jcache-sim's table for this trace.
            std::string trace_digest =
                payload.getString("trace_digest");
            if (digest_only) {
                std::cout << trace_digest << "\n";
                return 0;
            }
            if (!trace_digest.empty())
                std::cerr << "trace digest " << trace_digest
                          << "\n";
            sim::RunResult result =
                service::parseRunResult(payload.get("result"));
            service::renderRunTable(
                std::cout, result, payload.getString("workload"),
                payload.getBool("flushed", true));
            return 0;
        }

        if (command == "metrics") {
            std::uint16_t metrics_port = kDefaultMetricsPort;
            tools::CommonFlags common;
            for (; i < argc; ++i) {
                if (tools::parseCommonFlag(argc, argv, i,
                                           tools::kFlagJson, common))
                    continue;
                std::string flag = argv[i];
                if (flag == "--metrics-port" && i + 1 < argc) {
                    metrics_port = static_cast<std::uint16_t>(
                        std::strtoul(argv[++i], nullptr, 10));
                    continue;
                }
                return usage();
            }

            unsigned status = 0;
            std::string body, error;
            fatalIf(!telemetry::httpGet(transport.host, metrics_port,
                                        "/metrics", status, body,
                                        &error),
                    error);
            fatalIf(status != 200, "metrics endpoint returned HTTP " +
                                       std::to_string(status));
            std::vector<telemetry::ParsedFamily> families;
            fatalIf(!telemetry::parse(body, families, &error),
                    "malformed exposition: " + error);
            if (common.json) {
                tools::writeJsonSink(common, [&](std::ostream& os) {
                    printMetricsJson(families, os);
                });
            } else {
                printMetrics(families);
            }
            return 0;
        }

        if (command == "stats" || command == "health" ||
            command == "ping" || command == "shutdown") {
            std::string response_text = exchangeWithRetry(
                transport, [&](double deadline_millis) {
                    return bareRequest(command, deadline_millis);
                });
            parseResponse(response_text);
            std::cout << response_text;
            if (response_text.empty() ||
                response_text.back() != '\n')
                std::cout << "\n";
            return 0;
        }

        return usage();
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
