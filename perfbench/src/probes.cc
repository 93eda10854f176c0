/**
 * @file
 * Per-layer probes of a traced run.
 *
 * Every workload reports every layer, measured on that workload's own
 * inputs: its traces, its cells and results, and the request frames it
 * sends (or, for the grids, would send to ask for its cells).  Each
 * probe times a public call of one module; the spans around those
 * calls give the per-layer self times the driver adds at the end.
 */

#include <filesystem>

#include "net/frame.hh"
#include "perfbench.hh"
#include "service/json_value.hh"
#include "service/render.hh"
#include "service/service.hh"
#include "sim/multiconfig.hh"
#include "store/store.hh"

namespace fs = std::filesystem;

namespace perfbench
{

using jcache::core::CacheConfig;
using jcache::service::JsonValue;

namespace
{

/** Payloads the result-format and store probes work through. */
constexpr std::size_t kMaxProbePayloads = 2048;

/** Requests the in-process and daemon serve probes send. */
constexpr std::size_t kServeSample = 48;

/** Result-cache entries of the probe services: fewer than the sample,
 * so the repeated round reaches the store. */
constexpr std::size_t kProbeCacheEntries = 16;

/** Generic lanes the lane probe replays per trace (of 26). */
const std::vector<std::size_t> kGenericProbeCells = {0, 5, 10, 15, 18, 25};

/** Evenly spaced sample of `requests`. */
std::vector<std::string>
serveSample(const std::vector<std::string>& requests)
{
    std::vector<std::string> sample;
    std::size_t stride = std::max<std::size_t>(1, requests.size() /
                                                      kServeSample);
    for (std::size_t i = 0;
         i < requests.size() && sample.size() < kServeSample; i += stride)
        sample.push_back(requests[i]);
    return sample;
}

/** Walk every block of every map without replay; seconds taken. */
double
decodeWalkSeconds(const LoadedTraces& loaded)
{
    static volatile std::uint64_t sink = 0;
    auto start = Clock::now();
    for (const auto& map : loaded.maps) {
        Span span("trace", "BlockCursor walk");
        auto cursor = map->blocks(jcache::trace::kDefaultBlockRecords);
        jcache::trace::TraceBlock block;
        while (cursor->next(block))
            sink = sink + block.records[block.count - 1].addr;
    }
    return secondsSince(start);
}

/** ns per record per lane of one pass over each trace. */
double
laneNsPerRef(const LoadedTraces& loaded,
             const std::vector<CacheConfig>& configs)
{
    std::vector<jcache::sim::LaneSpec> lanes;
    for (const CacheConfig& c : configs)
        lanes.push_back(jcache::sim::LaneSpec{c, true});
    double seconds = 0.0, lane_refs = 0.0;
    for (const auto& map : loaded.maps) {
        auto start = Clock::now();
        {
            Span span("sim", "runTracePass");
            jcache::sim::runTracePass(*map, lanes);
        }
        seconds += secondsSince(start);
        lane_refs += static_cast<double>(map->records()) *
                     static_cast<double>(lanes.size());
    }
    return seconds / lane_refs * 1e9;
}

void
probeTrace(const ProbeContext& ctx, RunOutput& out)
{
    const LoadedTraces& l = *ctx.loaded;
    auto records = static_cast<double>(l.records);
    out.add("trace.load_ns_per_ref",
            l.loadSeconds / static_cast<double>(l.loadedRecords) * 1e9,
            "ns");
    out.add("trace.jcrc_write_ms", l.jcrcWriteSeconds * 1e3, "ms");
    out.add("trace.jcrc_open_ms", l.jcrcOpenSeconds * 1e3, "ms");
    out.add("trace.jcrc_decode_ns_per_ref",
            decodeWalkSeconds(l) / records * 1e9, "ns");
    out.add("trace.jcrc_bytes_per_ref",
            static_cast<double>(l.jcrcBytes) / records, "B");
}

void
probeSim(const ProbeContext& ctx, RunOutput& out)
{
    out.add("sim.batch_s", ctx.batchSeconds, "s");
    out.add("sim.utilization", ctx.utilization, "ratio");
    std::vector<CacheConfig> fast, generic;
    for (const CacheConfig& c : paperCells())
        if (jcache::sim::fastLaneEligible(c))
            fast.push_back(c);
    for (std::size_t i : kGenericProbeCells)
        if (!jcache::sim::fastLaneEligible(assocCells()[i]))
            generic.push_back(assocCells()[i]);
    out.add("sim.fast_lane_ns_per_ref", laneNsPerRef(*ctx.loaded, fast),
            "ns");
    out.add("sim.generic_lane_ns_per_ref",
            laneNsPerRef(*ctx.loaded, generic), "ns");
    out.add("sim.lanes_fast", out.counts["lanes_fast"], "count");
    out.add("sim.lanes_generic", out.counts["lanes_generic"], "count");
    out.add("core.percell_ns_per_ref",
            ctx.percell.seconds / static_cast<double>(ctx.percell.records) *
                1e9,
            "ns");
}

void
probeFormats(const ProbeContext& ctx, RunOutput& out)
{
    std::size_t n = std::min(ctx.results.size(), kMaxProbePayloads);
    std::vector<std::string> texts;
    auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        Span span("service", "writeRunResult");
        texts.push_back(resultJson(ctx.results[i]));
    }
    out.add("service.result_write_us", secondsSince(start) / n * 1e6, "us");

    start = Clock::now();
    for (const std::string& text : texts) {
        Span span("service", "parseRunResult");
        JsonValue v = JsonValue::parse(text);
        jcache::service::parseRunResult(v.get("result"));
    }
    out.add("service.result_parse_us", secondsSince(start) / n * 1e6, "us");
    out.add("service.render_table_us",
            ctx.renderSeconds / static_cast<double>(ctx.tables) * 1e6, "us");

    std::size_t m = std::min(ctx.requests.size(), kMaxProbePayloads);
    start = Clock::now();
    for (std::size_t i = 0; i < m; ++i) {
        Span span("service", "JsonValue::parse");
        JsonValue::parse(ctx.requests[i]);
    }
    out.add("service.json_parse_us", secondsSince(start) / m * 1e6, "us");

    std::string wire;
    for (std::size_t i = 0; i < m; ++i)
        jcache::net::encodeFrame(ctx.requests[i], wire);
    std::size_t frames = 0;
    start = Clock::now();
    {
        Span span("net", "FrameDecoder");
        jcache::net::FrameDecoder decoder;
        std::string payload;
        for (std::size_t at = 0; at < wire.size(); at += 4096) {
            decoder.append(wire.data() + at,
                           std::min<std::size_t>(4096, wire.size() - at));
            while (decoder.next(payload) ==
                   jcache::net::DecodeStatus::Frame)
                ++frames;
        }
    }
    out.add("net.frame_decode_ns",
            secondsSince(start) / static_cast<double>(frames) * 1e9, "ns");
}

void
probeInProcessService(const ProbeContext& ctx, RunOutput& out)
{
    jcache::service::ServiceConfig config;
    config.executorThreads = 2;
    config.traceCacheDir = ctx.jcrcDir;
    config.storeDir = ctx.scratchDir + "/service-store";
    config.cacheCapacity = kProbeCacheEntries;
    jcache::service::Service service(config);
    std::vector<double> hits_us, misses_ms;
    std::vector<std::string> sample = serveSample(ctx.requests);
    for (int round = 0; round < 2; ++round)
        for (const std::string& request : sample) {
            auto start = Clock::now();
            std::string response = [&] {
                Span span("service", "Service::handle");
                return service.handle(request);
            }();
            double seconds = secondsSince(start);
            JsonValue v = JsonValue::parse(response);
            if (v.getBool("cached", false))
                hits_us.push_back(seconds * 1e6);
            else
                misses_ms.push_back(seconds * 1e3);
        }
    out.add("service.handle_hit_us", median(hits_us), "us");
    out.add("service.handle_miss_ms", median(misses_ms), "ms");
}

void
probeStore(const ProbeContext& ctx, RunOutput& out)
{
    jcache::store::StoreConfig config;
    config.dir = ctx.scratchDir + "/store";
    config.capBytes = 0;
    std::size_t n = std::min<std::size_t>(ctx.results.size(), 256);
    std::vector<std::pair<std::string, std::string>> entries;
    for (std::size_t i = 0; i < n; ++i) {
        std::string payload = resultJson(ctx.results[i]);
        entries.emplace_back(hex64(fnv1a(payload) + i), payload);
    }
    std::vector<double> puts, gets;
    double bytes_per_entry = 0.0;
    {
        jcache::store::ResultStore store(config);
        for (const auto& [key, payload] : entries) {
            auto start = Clock::now();
            Span span("store", "ResultStore::put");
            store.put(key, payload);
            puts.push_back(secondsSince(start) * 1e6);
        }
        for (const auto& [key, payload] : entries) {
            auto start = Clock::now();
            Span span("store", "ResultStore::get");
            if (store.get(key) != payload)
                jcache::fatal("perfbench: store returned a wrong payload");
            gets.push_back(secondsSince(start) * 1e6);
        }
        jcache::store::StoreStats stats = store.stats();
        bytes_per_entry = static_cast<double>(stats.occupancyBytes) /
                          static_cast<double>(stats.entries);
    }
    auto start = Clock::now();
    {
        Span span("store", "ResultStore open");
        jcache::store::ResultStore reopened(config);
    }
    out.add("store.open_ms", secondsSince(start) * 1e3, "ms");
    out.add("store.put_us", median(puts), "us");
    out.add("store.get_us", median(gets), "us");
    out.add("store.bytes_per_entry", bytes_per_entry, "B");
}

void
probeDaemon(const ProbeContext& ctx, RunOutput& out)
{
    std::unique_ptr<Daemon> own;
    std::uint16_t port = ctx.daemonPort;
    if (port == 0) {
        own = std::make_unique<Daemon>(ctx.options->jcached,
                                       ctx.scratchDir + "/daemon",
                                       ctx.jcrcDir, kProbeCacheEntries);
        port = own->port();
        std::vector<std::string> sample = serveSample(ctx.requests);
        for (int round = 0; round < 2; ++round)
            for (const std::string& request : sample) {
                Span span("net", "request round trip");
                requestOnce(port, request);
            }
    }
    out.add("net.ping_rtt_us", pingRttMicros(port, 200), "us");

    JsonValue stats =
        JsonValue::parse(requestOnce(port, "{\"type\":\"stats\"}"))
            .get("payload");
    const JsonValue& cache = stats.get("result_cache");
    const JsonValue& store = stats.get("store");
    const JsonValue& queue = stats.get("queue");
    double cache_hits = cache.getNumber("hits", 0.0);
    double cache_lookups = cache_hits + cache.getNumber("misses", 0.0);
    double store_hits = store.getNumber("hits", 0.0);
    double store_lookups = store_hits + store.getNumber("misses", 0.0);
    out.add("service.cache_hits", cache_hits, "count");
    out.add("service.cache_lookups", cache_lookups, "count");
    out.add("service.cache_hit_ratio",
            cache_lookups > 0 ? cache_hits / cache_lookups : 0.0, "ratio");
    out.add("store.hits", store_hits, "count");
    out.add("store.lookups", store_lookups, "count");
    out.add("store.hit_ratio",
            store_lookups > 0 ? store_hits / store_lookups : 0.0, "ratio");
    out.add("service.queue_wait_p50_ms",
            queue.get("wait_seconds").getNumber("p50", 0.0) * 1e3, "ms");
    out.add("service.queue_wait_p99_ms",
            queue.get("wait_seconds").getNumber("p99", 0.0) * 1e3, "ms");
    out.add("service.job_wall_p50_ms",
            stats.get("jobs").get("wall_seconds").getNumber("p50", 0.0) *
                1e3,
            "ms");
    out.add("service.shed_total", queue.getNumber("shed_total", 0.0),
            "count");
}

} // namespace

void
probeLayers(const ProbeContext& ctx, RunOutput& out)
{
    fs::remove_all(ctx.scratchDir);
    fs::create_directories(ctx.scratchDir);
    probeTrace(ctx, out);
    probeSim(ctx, out);
    probeFormats(ctx, out);
    probeInProcessService(ctx, out);
    probeStore(ctx, out);
    probeDaemon(ctx, out);
}

} // namespace perfbench
