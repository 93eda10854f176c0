/**
 * @file
 * Inputs, cell sets, spans, statistics and host records shared by the
 * benchmark's workloads.
 */

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <sys/resource.h>
#include <unistd.h>

#include "perfbench.hh"
#include "service/render.hh"
#include "sim/engine.hh"
#include "sim/sweeps.hh"
#include "stats/json.hh"
#include "trace/file_io.hh"
#include "trace/import.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;

namespace perfbench
{

using jcache::core::CacheConfig;
using jcache::core::ReplacementPolicy;
using jcache::core::WriteHitPolicy;
using jcache::core::WriteMissPolicy;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
generatorSeed(std::uint64_t seed)
{
    return Rng(seed ^ 0x6a636163686542ull).next();
}

const std::vector<std::string>&
programNames()
{
    return jcache::workloads::allWorkloadNames();
}

std::uint64_t
fnv1a(const std::string& text, std::uint64_t hash)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

// ---------------------------------------------------------------- inputs

namespace
{

constexpr unsigned kScale = 1;

/**
 * Every trace is cut to its first kTraceRecords records, so each seed
 * gives the same amount of work: uncut, some programs' lengths vary
 * with the seed by a factor of four.
 */
constexpr std::uint64_t kTraceRecords = 393216;

/** Seeds whose inputs are kept on disk at once. */
constexpr std::size_t kKeptInputSets = 4;

struct ManifestEntry
{
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::string digest;
};

bool
readManifest(const std::string& dir, std::uint64_t seed,
             std::map<std::string, ManifestEntry>& out)
{
    std::ifstream in(dir + "/manifest.txt");
    if (!in)
        return false;
    std::string key;
    std::uint64_t seen_seed = 0;
    unsigned seen_scale = 0;
    if (!(in >> key >> seen_seed) || key != "seed" || seen_seed != seed)
        return false;
    if (!(in >> key >> seen_scale) || key != "scale" ||
        seen_scale != kScale)
        return false;
    std::uint64_t seen_records = 0;
    if (!(in >> key >> seen_records) || key != "records" ||
        seen_records != kTraceRecords)
        return false;
    std::string name;
    ManifestEntry e;
    while (in >> name >> e.records >> e.bytes >> e.digest)
        out[name] = e;
    for (const std::string& n : programNames()) {
        auto it = out.find(n);
        std::error_code ec;
        std::string path = dir + "/" + n + ".jct";
        if (it == out.end() || fs::file_size(path, ec) != it->second.bytes ||
            ec)
            return false;
    }
    return true;
}

/** Drop the oldest input sets beyond kKeptInputSets. */
void
pruneInputSets(const std::string& root)
{
    std::vector<std::pair<fs::file_time_type, fs::path>> sets;
    for (const auto& entry : fs::directory_iterator(root))
        if (entry.is_directory())
            sets.emplace_back(entry.last_write_time(), entry.path());
    if (sets.size() <= kKeptInputSets)
        return;
    std::sort(sets.begin(), sets.end());
    for (std::size_t i = 0; i + kKeptInputSets < sets.size(); ++i)
        fs::remove_all(sets[i].second);
}

} // namespace

Inputs
prepareInputs(const Options& options)
{
    Inputs in;
    std::string root = options.workDir + "/inputs";
    in.dir = root + "/seed-" + std::to_string(options.seed) + "-scale-" +
             std::to_string(kScale);
    fs::create_directories(root);

    std::map<std::string, ManifestEntry> manifest;
    if (!readManifest(in.dir, options.seed, manifest)) {
        manifest.clear();
        std::string tmp = in.dir + ".tmp-" + std::to_string(::getpid());
        fs::remove_all(tmp);
        fs::remove_all(in.dir);
        fs::create_directories(tmp);
        jcache::workloads::WorkloadConfig config;
        config.scale = kScale;
        config.seed = generatorSeed(options.seed);
        std::ostringstream text;
        text << "seed " << options.seed << "\nscale " << kScale
             << "\nrecords " << kTraceRecords << "\n";
        for (const std::string& name : programNames()) {
            jcache::trace::Trace full = jcache::workloads::generateTrace(
                *jcache::workloads::makeWorkload(name, config));
            jcache::trace::Trace t(full.name());
            std::size_t keep = std::min<std::size_t>(full.size(),
                                                     kTraceRecords);
            t.reserve(keep);
            for (std::size_t r = 0; r < keep; ++r)
                t.append(full[r]);
            std::string path = tmp + "/" + name + ".jct";
            jcache::trace::saveTrace(t, path);
            ManifestEntry e{t.size(), fs::file_size(path),
                            jcache::trace::contentDigest(t)};
            text << name << ' ' << e.records << ' ' << e.bytes << ' '
                 << e.digest << "\n";
            manifest[name] = e;
        }
        std::ofstream(tmp + "/manifest.txt") << text.str();
        fs::rename(tmp, in.dir);
        pruneInputSets(root);
    }
    for (const std::string& name : programNames()) {
        in.paths.push_back(in.dir + "/" + name + ".jct");
        in.digests.push_back(manifest[name].digest);
    }
    return in;
}

// ----------------------------------------------------------------- cells

namespace
{

const std::vector<std::string> kMetrics = {"miss", "traffic", "dirty"};

std::size_t
indexOf(const std::vector<CacheConfig>& cells, const CacheConfig& config)
{
    auto it = std::find(cells.begin(), cells.end(), config);
    if (it == cells.end())
        jcache::fatal("perfbench: table cell missing from its grid");
    return static_cast<std::size_t>(it - cells.begin());
}

void
addTables(std::vector<TableSpec>& tables,
          const std::vector<CacheConfig>& cells, const std::string& axis,
          const CacheConfig& base,
          const jcache::sim::AxisPoints& points)
{
    for (const std::string& metric : kMetrics) {
        TableSpec t{axis, metric, base, points.labels, {}};
        for (const CacheConfig& c : points.configs)
            t.cells.push_back(indexOf(cells, c));
        tables.push_back(t);
    }
}

CacheConfig
paperBase(WriteHitPolicy hit, WriteMissPolicy miss)
{
    CacheConfig c;
    c.hitPolicy = hit;
    c.missPolicy = miss;
    return c;
}

/** The assoc axis without its direct-mapped point. */
jcache::sim::AxisPoints
setAssocPoints(const CacheConfig& base)
{
    jcache::sim::AxisPoints all =
        jcache::sim::buildAxisPoints("assoc", base);
    jcache::sim::AxisPoints points;
    for (std::size_t i = 0; i < all.configs.size(); ++i)
        if (all.configs[i].assoc > 1) {
            points.configs.push_back(all.configs[i]);
            points.labels.push_back(all.labels[i]);
        }
    return points;
}

CacheConfig
granularityBase()
{
    CacheConfig c = paperBase(WriteHitPolicy::WriteThrough,
                              WriteMissPolicy::WriteValidate);
    c.validGranularity = 4;
    return c;
}

const std::vector<std::pair<WriteHitPolicy, WriteMissPolicy>>&
assocPolicies()
{
    static const std::vector<std::pair<WriteHitPolicy, WriteMissPolicy>>
        policies = {
            {WriteHitPolicy::WriteBack, WriteMissPolicy::FetchOnWrite},
            {WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteValidate},
        };
    return policies;
}

const std::vector<ReplacementPolicy> kReplacements = {
    ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
    ReplacementPolicy::Random};

} // namespace

const std::vector<CacheConfig>&
paperCells()
{
    static const std::vector<CacheConfig> cells = [] {
        std::vector<CacheConfig> out;
        for (auto [hit, miss] : jcache::sim::legalPolicyPairs()) {
            CacheConfig base = paperBase(hit, miss);
            for (const CacheConfig& c :
                 jcache::sim::buildAxisPoints("size", base).configs)
                out.push_back(c);
            for (const CacheConfig& c :
                 jcache::sim::buildAxisPoints("line", base).configs)
                if (std::find(out.begin(), out.end(), c) == out.end())
                    out.push_back(c);
        }
        return out;
    }();
    return cells;
}

const std::vector<CacheConfig>&
assocCells()
{
    static const std::vector<CacheConfig> cells = [] {
        std::vector<CacheConfig> out;
        for (ReplacementPolicy repl : kReplacements)
            for (auto [hit, miss] : assocPolicies()) {
                CacheConfig base = paperBase(hit, miss);
                base.replacement = repl;
                for (const CacheConfig& c : setAssocPoints(base).configs)
                    out.push_back(c);
            }
        for (const CacheConfig& c :
             jcache::sim::buildAxisPoints("size", granularityBase())
                 .configs)
            out.push_back(c);
        return out;
    }();
    return cells;
}

const std::vector<TableSpec>&
paperTables()
{
    static const std::vector<TableSpec> tables = [] {
        std::vector<TableSpec> out;
        for (auto [hit, miss] : jcache::sim::legalPolicyPairs()) {
            CacheConfig base = paperBase(hit, miss);
            for (const char* axis : {"size", "line"})
                addTables(out, paperCells(), axis, base,
                          jcache::sim::buildAxisPoints(axis, base));
        }
        return out;
    }();
    return tables;
}

const std::vector<TableSpec>&
assocTables()
{
    static const std::vector<TableSpec> tables = [] {
        std::vector<TableSpec> out;
        for (ReplacementPolicy repl : kReplacements)
            for (auto [hit, miss] : assocPolicies()) {
                CacheConfig base = paperBase(hit, miss);
                base.replacement = repl;
                addTables(out, assocCells(), "assoc", base,
                          setAssocPoints(base));
            }
        addTables(out, assocCells(), "size", granularityBase(),
                  jcache::sim::buildAxisPoints("size", granularityBase()));
        return out;
    }();
    return tables;
}

bool
conserves(const jcache::sim::RunResult& r)
{
    const auto& s = r.cache;
    return s.readHits + s.readMisses == s.reads &&
           s.writeHits + s.writeMisses == s.writes &&
           r.fetchTraffic.transactions == s.linesFetched &&
           r.fetchTraffic.bytes == s.linesFetched * r.config.lineBytes;
}

void
renderTables(std::ostream& os, const std::vector<TableSpec>& tables,
             const std::string& traceName,
             const jcache::sim::RunResult* results)
{
    for (const TableSpec& table : tables) {
        Span span("service", "renderSweepTable");
        std::vector<jcache::sim::RunResult> row;
        for (std::size_t i : table.cells)
            row.push_back(results[i]);
        jcache::service::renderSweepTable(os, table.axis, table.metric,
                                          traceName, table.base,
                                          table.labels, row);
    }
}

bool
matchesPerCell(const jcache::trace::Trace& trace, const CacheConfig& config,
               const std::string& expected, PerCellTally& tally)
{
    jcache::sim::Request request;
    request.trace = &trace;
    request.config = config;
    request.flushAtEnd = true;
    auto start = Clock::now();
    jcache::sim::RunResult result = [&] {
        Span span("core", "runOne PerCell");
        return jcache::sim::runOne(request, jcache::sim::Engine::PerCell);
    }();
    tally.seconds += secondsSince(start);
    tally.records += trace.size();
    return resultJson(result) == expected;
}

std::string
resultJson(const jcache::sim::RunResult& result)
{
    std::ostringstream oss;
    jcache::stats::JsonWriter json(oss);
    json.beginObject();
    jcache::service::writeRunResult(json, "result", result);
    json.endObject();
    return oss.str();
}

std::string
runRequest(const std::string& digest, const CacheConfig& config,
           bool flush)
{
    std::ostringstream oss;
    jcache::stats::JsonWriter json(oss);
    json.beginObject();
    json.field("type", "run");
    json.field("trace_ref", "digest:" + digest);
    json.field("flush", flush);
    jcache::service::writeCacheConfig(json, "config", config);
    json.endObject();
    return oss.str();
}

std::string
batchRequest(const std::string& digest,
             const std::vector<CacheConfig>& configs, bool flush)
{
    std::ostringstream oss;
    jcache::stats::JsonWriter json(oss);
    json.beginObject();
    json.field("type", "batch");
    json.field("trace_ref", "digest:" + digest);
    json.field("flush", flush);
    json.beginArray("configs");
    for (const CacheConfig& c : configs) {
        json.beginObject();
        jcache::service::writeCacheConfig(json, "config", c);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return oss.str();
}

std::string
payloadText(const std::string& response)
{
    const std::string key = "\"payload\":";
    std::size_t start = response.find(key);
    std::size_t end = response.find_last_of('}');
    if (start == std::string::npos || end == std::string::npos ||
        end <= start)
        return {};
    start += key.size();
    while (start < end && std::isspace(
                              static_cast<unsigned char>(response[start])))
        ++start;
    while (end > start && std::isspace(static_cast<unsigned char>(
                              response[end - 1])))
        --end;
    return response.substr(start, end - start);
}

// --------------------------------------------------------- trace set-up

LoadedTraces
loadTraces(const Inputs& inputs, const std::string& jcrcDir,
           std::uint64_t prefix)
{
    fs::remove_all(jcrcDir);
    fs::create_directories(jcrcDir);
    LoadedTraces out;
    for (std::size_t i = 0; i < inputs.paths.size(); ++i) {
        auto start = Clock::now();
        auto trace = [&] {
            Span span("trace", "loadAnyTrace");
            return std::make_shared<jcache::trace::Trace>(
                jcache::trace::loadAnyTrace(inputs.paths[i]));
        }();
        out.loadSeconds += secondsSince(start);
        out.loadedRecords += trace->size();
        if (prefix != 0 && prefix < trace->size()) {
            auto cut = std::make_shared<jcache::trace::Trace>(
                trace->name());
            cut->reserve(prefix);
            for (std::size_t r = 0; r < prefix; ++r)
                cut->append((*trace)[r]);
            trace = cut;
        }

        start = Clock::now();
        std::string path = [&] {
            Span span("trace", "ensureReplayCache");
            return jcache::trace::ensureReplayCache(*trace, jcrcDir);
        }();
        out.jcrcWriteSeconds += secondsSince(start);

        start = Clock::now();
        auto map = [&] {
            Span span("trace", "MappedReplayCache");
            return std::make_shared<jcache::trace::MappedReplayCache>(
                path);
        }();
        out.jcrcOpenSeconds += secondsSince(start);

        if (prefix == 0 && map->digest() != inputs.digests[i])
            jcache::fatal("perfbench: " + inputs.paths[i] +
                          " does not match its manifest digest");
        out.records += trace->size();
        out.jcrcBytes += fs::file_size(path);
        out.digests.push_back(map->digest());
        out.traces.push_back(std::move(trace));
        out.maps.push_back(std::move(map));
    }
    return out;
}

// ----------------------------------------------------------------- spans

namespace
{

std::atomic<bool> g_armed{false};
std::atomic<int> g_nextSpan{0};
std::mutex g_spanMutex;
std::vector<Spans::Span> g_spans;
thread_local std::vector<Spans::Span> t_open;
thread_local int t_adopted = -1;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

void
Spans::arm(bool on)
{
    g_armed.store(on, std::memory_order_relaxed);
}

int
Spans::open(const char* layer, const char* name)
{
    if (!g_armed.load(std::memory_order_relaxed))
        return -1;
    Span s;
    s.id = g_nextSpan.fetch_add(1);
    s.parent = current();
    s.layer = layer;
    s.name = name;
    s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    s.startNs = nowNs();
    t_open.push_back(std::move(s));
    return t_open.back().id;
}

void
Spans::close(int id)
{
    if (id < 0 || t_open.empty() || t_open.back().id != id)
        return;
    Span s = std::move(t_open.back());
    t_open.pop_back();
    s.endNs = nowNs();
    std::lock_guard<std::mutex> lock(g_spanMutex);
    g_spans.push_back(std::move(s));
}

int
Spans::current()
{
    return t_open.empty() ? t_adopted : t_open.back().id;
}

void
Spans::adopt(int parent)
{
    t_adopted = parent;
}

std::size_t
Spans::count()
{
    std::lock_guard<std::mutex> lock(g_spanMutex);
    return g_spans.size();
}

std::map<std::string, double>
Spans::selfSeconds()
{
    std::lock_guard<std::mutex> lock(g_spanMutex);
    std::unordered_map<int, std::size_t> index;
    for (std::size_t i = 0; i < g_spans.size(); ++i)
        index[g_spans[i].id] = i;
    std::vector<std::int64_t> children(g_spans.size(), 0);
    for (const Span& s : g_spans) {
        auto it = index.find(s.parent);
        if (it != index.end() && g_spans[it->second].thread == s.thread)
            children[it->second] += s.endNs - s.startNs;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const Span& s = g_spans[i];
        self[s.layer] +=
            static_cast<double>(s.endNs - s.startNs - children[i]) * 1e-9;
    }
    return self;
}

void
Spans::save(const std::string& path)
{
    std::lock_guard<std::mutex> lock(g_spanMutex);
    std::ofstream os(path);
    std::int64_t origin = g_spans.empty() ? 0 : g_spans.front().startNs;
    for (const Span& s : g_spans)
        origin = std::min(origin, s.startNs);
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const Span& s = g_spans[i];
        os << (i ? ",\n" : "") << "{\"name\":"
           << jcache::stats::JsonWriter::quote(s.name)
           << ",\"cat\":" << jcache::stats::JsonWriter::quote(s.layer)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.thread % 100000)
           << ",\"ts\":" << (s.startNs - origin) / 1000.0
           << ",\"dur\":" << (s.endNs - s.startNs) / 1000.0
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n]}\n";
}

// ------------------------------------------------------------ statistics

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
mean(const std::vector<double>& values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double
selfPeakRssMb()
{
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
processPeakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

// ---------------------------------------------------------------- output

std::string
hostRecordJson(const Options& options)
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line))
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    std::ostringstream oss;
    using jcache::stats::JsonWriter;
    oss << "{\"cpu\":" << JsonWriter::quote(cpu)
        << ",\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"compiler\":" << JsonWriter::quote(PERFBENCH_COMPILER)
        << ",\"build_type\":" << JsonWriter::quote(PERFBENCH_BUILD_TYPE)
        << ",\"avx2_lanes\":"
        << (jcache::simd::avx2Enabled() ? "true" : "false")
        << ",\"commit\":" << JsonWriter::quote(options.commit)
        << ",\"source_digest\":" << JsonWriter::quote(options.sourceDigest)
        << "}";
    return oss.str();
}

} // namespace perfbench
