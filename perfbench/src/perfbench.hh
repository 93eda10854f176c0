/**
 * @file
 * Shared pieces of the jcache benchmark driver: options, seeded
 * inputs, the grid cell sets, spans, statistics and the result record.
 *
 * The driver runs one workload per invocation (paper-grid, assoc-grid
 * or served-mix), checks its outputs, and prints one JSON object as
 * the last line of standard output.  Untraced runs (--trace 0) report
 * the end-to-end metrics; traced runs (--trace 1) record spans around
 * the driver's calls into each jcache module and report the per-layer
 * metrics.  Nothing inside the library is instrumented.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "sim/run.hh"
#include "trace/replay_cache.hh"
#include "trace/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 7;
    unsigned seconds = 10;
    bool trace = false;

    /** Scratch space: inputs, replay caches, stores, spans. */
    std::string workDir = ".bench_build/work";

    /** The jcached binary served-mix launches. */
    std::string jcached;

    /** JSONL file each run appends its result record to. */
    std::string results;

    /** Build identity recorded with each result. */
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";

    /** Corrupt one result before the gate (self-test of the gate). */
    bool plantMismatch = false;
};

/** One metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload run produces: the contract fields, the metrics of
 * the requested kind, and the counts that must repeat exactly for a
 * given seed.
 */
struct RunOutput
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    /** Deterministic counts (same seed, same values). */
    std::map<std::string, double> counts;

    /** Further measurements recorded with the result, not bounded. */
    std::map<std::string, double> details;

    /** FNV-1a digest over every checked result. */
    std::string resultsDigest;

    void add(const std::string& name, double value,
             const std::string& unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }
};

// ---------------------------------------------------------------- inputs

/** The nine trace programs, in registry order. */
const std::vector<std::string>& programNames();

/** Seeded trace files on disk, one per trace program. */
struct Inputs
{
    std::string dir;
    std::vector<std::string> paths;
    std::vector<std::string> digests;
};

/**
 * Generate (or reuse) the nine `.jct` traces for `seed` at scale 1,
 * each cut to a fixed number of records.
 * Files are reused when the manifest's seed, scale and per-file size
 * match; each loaded trace's content digest is checked against the
 * manifest in set-up.
 */
Inputs prepareInputs(const Options& options);

/** The workload seed handed to the generators for a benchmark seed. */
std::uint64_t generatorSeed(std::uint64_t seed);

/** A small deterministic PRNG (splitmix64). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();

    /** Uniform in [0, bound). */
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  private:
    std::uint64_t state_;
};

// ----------------------------------------------------------------- cells

/** The 72 direct-mapped paper-grid cells of one trace. */
const std::vector<jcache::core::CacheConfig>& paperCells();

/** The 26 assoc-grid cells of one trace (none fast-eligible). */
const std::vector<jcache::core::CacheConfig>& assocCells();

/** One figure table: an axis over cells of one trace's grid. */
struct TableSpec
{
    std::string axis;
    std::string metric;
    jcache::core::CacheConfig base;
    std::vector<std::string> labels;
    std::vector<std::size_t> cells;  //!< indices into the cell list
};

const std::vector<TableSpec>& paperTables();
const std::vector<TableSpec>& assocTables();

/** Conservation laws every result must satisfy. */
bool conserves(const jcache::sim::RunResult& result);

/** Render every table of one trace's grid; `results` is in cell order. */
void renderTables(std::ostream& os, const std::vector<TableSpec>& tables,
                  const std::string& traceName,
                  const jcache::sim::RunResult* results);

/** Seconds and records the per-cell reference engine replayed. */
struct PerCellTally
{
    double seconds = 0.0;
    std::uint64_t records = 0;
};

/**
 * Re-simulate one cell of `trace` with sim::runOne(…, Engine::PerCell)
 * and compare its writeRunResult() JSON with `expected`; the replay is
 * added to `tally`.
 */
bool matchesPerCell(const jcache::trace::Trace& trace,
                    const jcache::core::CacheConfig& config,
                    const std::string& expected, PerCellTally& tally);

/** writeRunResult() of `result` wrapped in an object, as text. */
std::string resultJson(const jcache::sim::RunResult& result);

/** FNV-1a 64 over `text`, folded into `hash`. */
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

std::string hex64(std::uint64_t value);

// --------------------------------------------------------- trace set-up

/** Nine traces loaded from disk plus their mapped replay caches. */
struct LoadedTraces
{
    std::vector<std::shared_ptr<jcache::trace::Trace>> traces;
    std::vector<std::shared_ptr<jcache::trace::MappedReplayCache>> maps;
    std::vector<std::string> digests;

    /** Records replayed (after any prefix cut) and loaded from disk. */
    std::uint64_t records = 0;
    std::uint64_t loadedRecords = 0;
    std::uint64_t jcrcBytes = 0;

    double loadSeconds = 0.0;
    double jcrcWriteSeconds = 0.0;
    double jcrcOpenSeconds = 0.0;
};

/**
 * Load each input (trace::loadAnyTrace), write its JCRC replay cache
 * into a fresh `jcrcDir` (trace::ensureReplayCache) and map it.  When
 * `prefix` is non-zero each trace is cut to its first `prefix`
 * records before the cache is written.  Throws on a digest mismatch
 * against the manifest (full traces only).
 */
LoadedTraces loadTraces(const Inputs& inputs, const std::string& jcrcDir,
                        std::uint64_t prefix = 0);

// ----------------------------------------------------------------- spans

/**
 * In-memory span recorder.  Disarmed (the untraced run) a span costs
 * one relaxed load; armed, each span is appended under a mutex when
 * it closes.  Spans nest per thread; a thread may adopt a parent span
 * opened on another thread.
 */
class Spans
{
  public:
    struct Span
    {
        int id = 0;
        int parent = -1;
        std::string layer;
        std::string name;
        std::uint64_t thread = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    static void arm(bool on);

    /** Open a span; returns its id (or -1 when disarmed). */
    static int open(const char* layer, const char* name);
    static void close(int id);

    /** The innermost open span of this thread (-1 if none). */
    static int current();

    /** Make spans opened next on this thread children of `parent`. */
    static void adopt(int parent);

    /** Self time per layer, in seconds (children on the same thread
     * subtracted). */
    static std::map<std::string, double> selfSeconds();

    static std::size_t count();

    /** Write every span as Chrome trace-event JSON. */
    static void save(const std::string& path);
};

/** RAII span guard. */
class Span
{
  public:
    Span(const char* layer, const char* name)
        : id_(Spans::open(layer, name))
    {
    }
    ~Span() { Spans::close(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    int id_;
};

// ------------------------------------------------------------ statistics

/** Linear-interpolated quantile of `values` (q in [0, 1]). */
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

double mean(const std::vector<double>& values);

/** Peak resident set of this process, in MB. */
double selfPeakRssMb();

/** `VmHWM` of process `pid`, in MB (0 when unreadable). */
double processPeakRssMb(int pid);

// ------------------------------------------------------------- workloads

RunOutput runPaperGrid(const Options& options);
RunOutput runAssocGrid(const Options& options);
RunOutput runServedMix(const Options& options);

/** Per-layer probe inputs a workload hands to probeLayers(). */
struct ProbeContext
{
    const Options* options = nullptr;
    const LoadedTraces* loaded = nullptr;
    std::string jcrcDir;
    std::string scratchDir;

    /** Results of the workload's cells (for render/store probes). */
    std::vector<jcache::sim::RunResult> results;

    /** Request frames the workload sends or would send. */
    std::vector<std::string> requests;

    /** Seconds of the workload's batch and its utilization. */
    double batchSeconds = 0.0;
    double utilization = 0.0;

    /** The gate's per-cell reference replays. */
    PerCellTally percell;

    /** Table rendering: seconds and tables rendered. */
    double renderSeconds = 0.0;
    std::uint64_t tables = 0;

    /** A daemon already loaded by the workload (served-mix), or 0. */
    std::uint16_t daemonPort = 0;
};

/**
 * Measure every per-layer metric into `out`; the lane counts come from
 * `out.counts`.
 */
void probeLayers(const ProbeContext& context, RunOutput& out);

/** Build the wire request for one cell or one batch of cells. */
std::string runRequest(const std::string& digest,
                       const jcache::core::CacheConfig& config,
                       bool flush);
std::string batchRequest(
    const std::string& digest,
    const std::vector<jcache::core::CacheConfig>& configs, bool flush);

/**
 * A jcached child process on an ephemeral port.  The destructor asks
 * it to shut down and waits for it; a daemon that does not exit is
 * killed.
 */
class Daemon
{
  public:
    Daemon(const std::string& binary, const std::string& runDir,
           const std::string& traceCacheDir, std::size_t cacheEntries);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    std::uint16_t port() const { return port_; }
    int pid() const { return pid_; }

    /** Send `shutdown` and wait for the process to exit. */
    void stop();

  private:
    int pid_ = -1;
    std::uint16_t port_ = 0;
};

/** Stop-signal handler: SIGTERM every live Daemon, then exit. */
void stopDaemonsAndExit(int signal);

/** Send one request frame on a fresh connection; the response text. */
std::string requestOnce(std::uint16_t port, const std::string& request);

/** Median round trip of `count` pings on one connection, in µs. */
double pingRttMicros(std::uint16_t port, unsigned count);

/** Extract the raw `payload` text of a response envelope. */
std::string payloadText(const std::string& response);

// ---------------------------------------------------------------- output

/** The host and build record written with each result. */
std::string hostRecordJson(const Options& options);

/** Compare two JSONL result sets; returns the process exit code. */
int compareResults(const std::string& before, const std::string& after,
                   const std::string& benchmarkJson);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
