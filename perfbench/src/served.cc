/**
 * @file
 * The served-mix workload: jcached as a single node, driven by the
 * benchmark's own closed-loop client over two connections.
 *
 * Each pass launches a fresh daemon (reactor front end, two jobs, a
 * fresh store, a result cache smaller than the repeat window, and a
 * trace-cache directory of the nine seeded traces), times set-up until
 * the first digest run is answered, warms up, then times one
 * fixed-length seeded request sequence.  Passes repeat until the
 * run's seconds are spent.  Every response is checked afterwards
 * against in-process results, and every repeat against its first
 * answer.
 */

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/frame.hh"
#include "net/socket.hh"
#include "perfbench.hh"
#include "service/json_value.hh"
#include "service/render.hh"
#include "sim/engine.hh"
#include "sim/multiconfig.hh"
#include "util/logging.hh"

extern char** environ;

namespace fs = std::filesystem;

namespace perfbench
{

using jcache::core::CacheConfig;
using jcache::service::JsonValue;
using jcache::sim::RunResult;

// ---------------------------------------------------------------- daemon

namespace
{

/** Pids of the daemons alive now, for stopDaemonsAndExit(). */
std::atomic<int> g_daemons[8];

/** Swap `from` for `to` in the first slot holding `from`. */
void
trackDaemon(int from, int to)
{
    for (std::atomic<int>& slot : g_daemons) {
        int expected = from;
        if (slot.compare_exchange_strong(expected, to))
            return;
    }
}

} // namespace

void
stopDaemonsAndExit(int signal)
{
    for (std::atomic<int>& slot : g_daemons)
        if (int pid = slot.load(); pid > 0)
            ::kill(pid, SIGTERM);
    ::_exit(128 + signal);
}

Daemon::Daemon(const std::string& binary, const std::string& runDir,
               const std::string& traceCacheDir, std::size_t cacheEntries)
{
    fs::remove_all(runDir);
    fs::create_directories(runDir);
    std::string port_file = runDir + "/port";
    std::string log = runDir + "/jcached.log";
    std::vector<std::string> args = {
        binary,          "--port",          "0",
        "--port-file",   port_file,         "--jobs",
        "2",             "--server",        "reactor",
        "--cache",       std::to_string(cacheEntries),
        "--store-dir",   runDir + "/store", "--trace-cache-dir",
        traceCacheDir};
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                         argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    jcache::fatalIf(rc != 0, "perfbench: cannot start " + binary);
    pid_ = pid;
    trackDaemon(0, pid_);

    auto start = Clock::now();
    while (true) {
        std::ifstream in(port_file);
        unsigned port = 0;
        if (in >> port && port != 0) {
            port_ = static_cast<std::uint16_t>(port);
            return;
        }
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            trackDaemon(pid_, 0);
            pid_ = -1;
            jcache::fatal("perfbench: jcached exited during start-up; "
                          "see " + log);
        }
        if (secondsSince(start) > 60.0) {
            stop();
            jcache::fatal("perfbench: jcached did not publish a port");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

Daemon::~Daemon()
{
    try {
        stop();
    } catch (const std::exception&) {
        // stop() already reaped or killed the child.
    }
}

void
Daemon::stop()
{
    if (pid_ < 0)
        return;
    int pid = pid_;
    pid_ = -1;
    trackDaemon(pid, 0);
    if (port_ != 0) {
        try {
            requestOnce(port_, "{\"type\":\"shutdown\"}");
        } catch (const std::exception&) {
            ::kill(pid, SIGTERM);
        }
    } else {
        ::kill(pid, SIGTERM);
    }
    auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (secondsSince(start) > 10.0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

std::string
requestOnce(std::uint16_t port, const std::string& request)
{
    std::string error;
    jcache::net::Socket socket =
        jcache::net::Socket::connectTo("127.0.0.1", port, &error);
    jcache::fatalIf(!socket.valid(), "perfbench: connect: " + error);
    socket.setTimeout(120000);
    std::string response;
    jcache::fatalIf(
        jcache::net::writeFrame(socket, request) !=
                jcache::net::FrameStatus::Ok ||
            jcache::net::readFrame(socket, response) !=
                jcache::net::FrameStatus::Ok,
        "perfbench: request failed on port " + std::to_string(port));
    return response;
}

double
pingRttMicros(std::uint16_t port, unsigned count)
{
    std::string error;
    jcache::net::Socket socket =
        jcache::net::Socket::connectTo("127.0.0.1", port, &error);
    jcache::fatalIf(!socket.valid(), "perfbench: connect: " + error);
    socket.setTimeout(10000);
    std::vector<double> rtts;
    std::string response;
    for (unsigned i = 0; i < count; ++i) {
        Span span("net", "ping round trip");
        auto start = Clock::now();
        jcache::fatalIf(
            jcache::net::writeFrame(socket, "{\"type\":\"ping\"}") !=
                    jcache::net::FrameStatus::Ok ||
                jcache::net::readFrame(socket, response) !=
                    jcache::net::FrameStatus::Ok,
            "perfbench: ping failed");
        rtts.push_back(secondsSince(start) * 1e6);
    }
    return median(rtts);
}

// ------------------------------------------------------------ served-mix

namespace
{

/** Records of each served trace: a fixed prefix of the seeded trace. */
constexpr std::uint64_t kServedRecords = 131072;

/** A pass runs one in this many of the paper-grid cells as new runs. */
constexpr std::size_t kRunCellShare = 2;

constexpr unsigned kConnections = 2;
/** Cells per batch; a fixed number of them come from the assoc grid,
 * so every batch miss carries the same generic-lane work. */
constexpr std::size_t kBatchCells = 16;
constexpr std::size_t kBatchAssocCells = 4;
constexpr std::size_t kDaemonCacheEntries = 64;

/** Repeats draw from this many earlier new requests of their class. */
constexpr std::size_t kRepeatWindow = 256;

constexpr unsigned kSetupSamples = 3;
constexpr unsigned kMinPasses = 2;
constexpr unsigned kGateCellsPerTrace = 2;

/** One request of the sequence. */
struct Item
{
    std::string frame;
    bool batch = false;
    std::size_t trace = 0;
    std::vector<std::size_t> cells;  //!< indices into the union cells
};

/** The union of both grids' cells: paper cells, then assoc cells. */
const std::vector<CacheConfig>&
unionCells()
{
    static const std::vector<CacheConfig> cells = [] {
        std::vector<CacheConfig> all = paperCells();
        all.insert(all.end(), assocCells().begin(), assocCells().end());
        return all;
    }();
    return cells;
}

/**
 * The seeded sequence of each connection.  A seeded half of the
 * paper-grid cells of every trace run once as new requests; a fifth
 * of the requests are 16-cell batches; half of each class repeat an
 * earlier new request of the same connection, so a repeat is always
 * answered after its original.
 */
std::vector<std::vector<Item>>
buildSequences(std::uint64_t seed, const std::vector<std::string>& digests)
{
    Rng rng(seed ^ 0x73657276656400ull);
    const std::size_t traces = digests.size();
    const std::size_t paper = paperCells().size();

    std::vector<Item> run_new;
    for (std::size_t t = 0; t < traces; ++t)
        for (std::size_t c = 0; c < paper; ++c) {
            Item item;
            item.trace = t;
            item.cells = {c};
            item.frame = runRequest(digests[t], unionCells()[c], true);
            run_new.push_back(std::move(item));
        }
    for (std::size_t i = run_new.size(); i > 1; --i)
        std::swap(run_new[i - 1], run_new[rng.below(i)]);
    run_new.resize(run_new.size() / kRunCellShare);

    const std::size_t batch_new_count = run_new.size() / 4;
    std::vector<Item> batch_new;
    std::set<std::string> seen;
    while (batch_new.size() < batch_new_count) {
        Item item;
        item.batch = true;
        item.trace = rng.below(traces);
        std::vector<CacheConfig> configs;
        while (item.cells.size() < kBatchCells) {
            std::size_t c = item.cells.size() < kBatchAssocCells
                                ? paper + rng.below(assocCells().size())
                                : rng.below(paper);
            if (std::find(item.cells.begin(), item.cells.end(), c) ==
                item.cells.end()) {
                item.cells.push_back(c);
                configs.push_back(unionCells()[c]);
            }
        }
        item.frame = batchRequest(digests[item.trace], configs, true);
        if (seen.insert(item.frame).second)
            batch_new.push_back(std::move(item));
    }

    std::vector<std::vector<Item>> sequences(kConnections);
    for (unsigned conn = 0; conn < kConnections; ++conn) {
        std::vector<const Item*> runs, batches;
        for (std::size_t i = conn; i < run_new.size(); i += kConnections)
            runs.push_back(&run_new[i]);
        for (std::size_t i = conn; i < batch_new.size(); i += kConnections)
            batches.push_back(&batch_new[i]);
        // Remaining counts: new runs, repeated runs, new batches,
        // repeated batches.
        std::size_t left[4] = {runs.size(), runs.size(), batches.size(),
                               batches.size()};
        std::size_t next_run = 0, next_batch = 0;
        std::vector<Item>& seq = sequences[conn];
        while (left[0] + left[1] + left[2] + left[3] > 0) {
            std::size_t total = left[0] + left[1] + left[2] + left[3];
            std::size_t pick = rng.below(total), kind = 0;
            while (pick >= left[kind])
                pick -= left[kind++];
            if (kind == 1 && next_run == 0)
                kind = 0;
            if (kind == 3 && next_batch == 0)
                kind = 2;
            --left[kind];
            if (kind == 0) {
                seq.push_back(*runs[next_run++]);
            } else if (kind == 2) {
                seq.push_back(*batches[next_batch++]);
            } else {
                std::size_t made = kind == 1 ? next_run : next_batch;
                std::size_t lo = made > kRepeatWindow ? made - kRepeatWindow
                                                      : 0;
                const Item* orig = (kind == 1 ? runs : batches)
                    [lo + rng.below(made - lo)];
                seq.push_back(*orig);
            }
        }
    }
    return sequences;
}

/** What one connection observed for one request. */
struct Answer
{
    double millis = 0.0;
    std::string response;
};

/** Drive one connection closed-loop through its sequence. */
void
driveConnection(std::uint16_t port, const std::vector<Item>& sequence,
                std::vector<Answer>& answers,
                const std::atomic<bool>& go, int parent_span)
{
    Spans::adopt(parent_span);
    answers.assign(sequence.size(), Answer{});
    std::string error;
    jcache::net::Socket socket =
        jcache::net::Socket::connectTo("127.0.0.1", port, &error);
    if (!socket.valid())
        return;
    socket.setTimeout(120000);
    while (!go.load())
        std::this_thread::yield();
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        Span span("net", "request round trip");
        auto start = Clock::now();
        if (jcache::net::writeFrame(socket, sequence[i].frame) !=
                jcache::net::FrameStatus::Ok ||
            jcache::net::readFrame(socket, answers[i].response) !=
                jcache::net::FrameStatus::Ok) {
            answers[i].response.clear();
            return;
        }
        answers[i].millis = secondsSince(start) * 1e3;
    }
}

/** Launch a daemon and time it until the first digest run answers. */
std::unique_ptr<Daemon>
launch(const Options& options, const std::string& dir,
       const std::string& jcrc_dir, const std::vector<std::string>& digests,
       double& setup_seconds)
{
    auto start = Clock::now();
    auto daemon = std::make_unique<Daemon>(options.jcached, dir, jcrc_dir,
                                           kDaemonCacheEntries);
    requestOnce(daemon->port(), runRequest(digests[0], CacheConfig{}, false));
    setup_seconds = secondsSince(start);
    return daemon;
}

} // namespace

RunOutput
runServedMix(const Options& options)
{
    RunOutput out;
    jcache::fatalIf(options.jcached.empty(),
                    "perfbench: served-mix needs --jcached");
    Inputs inputs = prepareInputs(options);
    std::string run_dir =
        options.workDir + "/run-" + std::to_string(::getpid());
    std::string jcrc_dir = run_dir + "/jcrc";
    LoadedTraces loaded = [&] {
        Span span("bench", "prepare served traces");
        return loadTraces(inputs, jcrc_dir, kServedRecords);
    }();
    const std::size_t traces = loaded.maps.size();

    // In-process reference results for every cell the mix can name.
    jcache::sim::BatchOptions batch_options;
    batch_options.engine = jcache::sim::Engine::OnePass;
    batch_options.jobs = 2;
    std::vector<jcache::sim::Request> all;
    for (std::size_t t = 0; t < traces; ++t)
        for (const CacheConfig& c : unionCells()) {
            jcache::sim::Request r;
            r.source = loaded.maps[t].get();
            r.config = c;
            r.flushAtEnd = true;
            all.push_back(r);
        }
    jcache::sim::BatchOutcome reference = [&] {
        Span span("sim", "runBatch");
        return jcache::sim::runBatch(all, batch_options);
    }();
    std::uint64_t failed = reference.report.failures.size();
    if (options.plantMismatch)
        ++reference.results[0].cache.readHits;
    std::vector<std::string> expected;
    for (const RunResult& r : reference.results) {
        if (!conserves(r))
            ++failed;
        expected.push_back(resultJson(r));
    }

    // Render the figure tables of the served results once (the
    // per-layer render probe) and gate a sample with the per-cell
    // reference engine.
    std::ostringstream rendered;
    auto render = Clock::now();
    for (std::size_t t = 0; t < traces; ++t)
        renderTables(rendered, paperTables(), loaded.traces[t]->name(),
                     &reference.results[t * unionCells().size()]);
    double render_seconds = secondsSince(render);
    PerCellTally percell;
    Rng gate_rng(options.seed ^ 0x6761746500ull);
    for (std::size_t t = 0; t < traces; ++t)
        for (unsigned k = 0; k < kGateCellsPerTrace; ++k) {
            std::size_t i = gate_rng.below(unionCells().size());
            if (!matchesPerCell(*loaded.traces[t], unionCells()[i],
                                expected[t * unionCells().size() + i],
                                percell))
                ++failed;
        }

    std::vector<std::vector<Item>> sequences =
        buildSequences(options.seed, loaded.digests);
    std::size_t per_pass = 0;
    double cell_records_per_pass = 0.0;
    for (const auto& seq : sequences)
        for (const Item& item : seq) {
            ++per_pass;
            cell_records_per_pass +=
                static_cast<double>(item.cells.size()) *
                static_cast<double>(loaded.traces[item.trace]->size());
        }

    // Passes: a fresh daemon each, so every pass sees the same
    // sequence of hits and misses.
    std::vector<double> setups, walls, traced_walls, rss, miss_latencies;
    std::map<std::string, std::vector<double>> classes;
    std::map<std::string, std::string> first_payload;
    std::uint64_t attempted = 0;
    std::unique_ptr<Daemon> daemon;
    const unsigned min_passes = options.trace ? 2 * kMinPasses : kMinPasses;
    auto window = Clock::now();
    unsigned passes = 0;
    for (bool more = true; more;) {
        bool traced_pass = options.trace && passes % 2 == 1;
        daemon.reset();
        double setup = 0.0;
        daemon = launch(options, run_dir + "/daemon", jcrc_dir,
                        loaded.digests, setup);
        setups.push_back(setup);
        for (std::size_t t = 1; t < traces; ++t)
            requestOnce(daemon->port(),
                        runRequest(loaded.digests[t], CacheConfig{}, false));

        Spans::arm(traced_pass);
        std::vector<std::vector<Answer>> answers(kConnections);
        std::atomic<bool> go{false};
        double wall = 0.0;
        {
            Span span("bench", "served pass");
            std::vector<std::thread> clients;
            for (unsigned c = 0; c < kConnections; ++c)
                clients.emplace_back(driveConnection, daemon->port(),
                                     std::cref(sequences[c]),
                                     std::ref(answers[c]), std::cref(go),
                                     Spans::current());
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            auto start = Clock::now();
            go.store(true);
            for (std::thread& th : clients)
                th.join();
            wall = secondsSince(start);
        }
        Spans::arm(false);
        (traced_pass ? traced_walls : walls).push_back(wall);
        rss.push_back(processPeakRssMb(daemon->pid()));

        // Check every answer outside the timed window.
        for (unsigned c = 0; c < kConnections; ++c)
            for (std::size_t i = 0; i < sequences[c].size(); ++i) {
                const Item& item = sequences[c][i];
                const Answer& answer = answers[c][i];
                ++attempted;
                JsonValue response = JsonValue::parse(answer.response);
                if (!response.getBool("ok", false)) {
                    ++failed;
                    continue;
                }
                bool cached = response.getBool("cached", false);
                if (!cached)
                    miss_latencies.push_back(answer.millis);
                classes[std::string(item.batch ? "batch" : "run") +
                        (cached ? "_hit" : "_miss")]
                    .push_back(answer.millis);
                std::string payload = payloadText(answer.response);
                auto [it, fresh] =
                    first_payload.emplace(item.frame, payload);
                if (!fresh) {
                    if (it->second != payload)
                        ++failed;
                    continue;
                }
                const JsonValue& body = response.get("payload");
                std::vector<const JsonValue*> got;
                if (item.batch)
                    for (const JsonValue& r : body.get("results").items())
                        got.push_back(&r.get("result"));
                else
                    got.push_back(&body.get("result"));
                bool match = got.size() == item.cells.size();
                for (std::size_t k = 0; match && k < got.size(); ++k)
                    match = resultJson(jcache::service::parseRunResult(
                                *got[k])) ==
                            expected[item.trace * unionCells().size() +
                                     item.cells[k]];
                if (!match)
                    ++failed;
            }
        Spans::arm(options.trace);
        ++passes;
        more = passes < min_passes || secondsSince(window) < options.seconds;
    }
    // A traced run probes the last pass's daemon, still loaded.
    if (!options.trace)
        daemon.reset();
    // Set-up is sampled at least kSetupSamples times.
    while (setups.size() < kSetupSamples) {
        double setup = 0.0;
        auto probe = launch(options, run_dir + "/setup", jcrc_dir,
                            loaded.digests, setup);
        setups.push_back(setup);
    }

    std::uint64_t digest = fnv1a(rendered.str());
    for (const std::string& json : expected)
        digest = fnv1a(json, digest);
    std::set<std::pair<std::size_t, std::size_t>> lanes;
    std::size_t requested_fast = 0;
    for (const auto& seq : sequences)
        for (const Item& item : seq)
            for (std::size_t c : item.cells)
                if (lanes.emplace(item.trace, c).second)
                    requested_fast +=
                        jcache::sim::fastLaneEligible(unionCells()[c]);

    out.attempted = attempted;
    out.failed = failed;
    out.correct = failed == 0;
    out.resultsDigest = hex64(digest);
    out.counts["requests"] = static_cast<double>(per_pass);
    out.counts["records"] = static_cast<double>(loaded.records);
    out.counts["lanes_fast"] = static_cast<double>(requested_fast);
    out.counts["lanes_generic"] =
        static_cast<double>(lanes.size() - requested_fast);
    out.counts["jcrc_bytes"] = static_cast<double>(loaded.jcrcBytes);
    for (auto& [name, values] : classes) {
        out.counts[name + "_per_pass"] =
            static_cast<double>(values.size()) / passes;
        out.details[name + "_p50_ms"] = quantile(values, 0.50);
        out.details[name + "_p99_ms"] = quantile(values, 0.99);
        out.details[name + "_samples"] = static_cast<double>(values.size());
    }
    out.details["passes"] = passes;
    out.details["miss_p50_ms"] = quantile(miss_latencies, 0.50);

    if (!options.trace) {
        double wall = median(walls);
        out.add("setup_s", median(setups), "s");
        out.add("wall_s", wall, "s");
        out.add("cell_mrefs_per_s", cell_records_per_pass / wall / 1e6,
                "Mref/s");
        out.add("requests_per_s", static_cast<double>(per_pass) / wall,
                "1/s");
        out.add("peak_rss_mb", median(rss), "MB");
        out.add("miss_mean_ms", mean(miss_latencies), "ms");
        out.add("miss_p99_ms", quantile(miss_latencies, 0.99), "ms");
        fs::remove_all(run_dir);
        return out;
    }

    ProbeContext context;
    context.options = &options;
    context.loaded = &loaded;
    context.jcrcDir = jcrc_dir;
    context.scratchDir = run_dir + "/probe";
    context.results = reference.results;
    for (const auto& seq : sequences)
        for (const Item& item : seq)
            context.requests.push_back(item.frame);
    context.batchSeconds = reference.report.wallSeconds;
    context.utilization = reference.report.utilization();
    context.percell = percell;
    context.renderSeconds = render_seconds;
    context.tables = paperTables().size() * traces;
    context.daemonPort = daemon->port();
    probeLayers(context, out);
    out.add("bench.tracing_overhead_pct",
            (median(traced_walls) / median(walls) - 1.0) * 100.0, "%");
    daemon.reset();
    fs::remove_all(run_dir);
    return out;
}

} // namespace perfbench
