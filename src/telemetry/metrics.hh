/**
 * @file
 * Process-wide metrics: named Counter / Gauge / Histogram instruments.
 *
 * The paper's results are rates and latencies; the system that grew
 * around the reproduction (parallel sweeps, jcached, fault injection)
 * needs the same discipline applied to itself.  This header is the
 * measurement half of the telemetry subsystem: instruments record, the
 * exposition layer (exposition.hh, http_exporter.hh) publishes.
 *
 * Design constraints, in order:
 *
 *  - **Hot paths never contend.**  Counter increments land on one of
 *    several cache-line-padded atomic shards selected per thread, so
 *    two worker threads bumping the same counter never bounce a line.
 *  - **Bounded memory, bounded work.**  Histogram holds a fixed set
 *    of log-spaced buckets: observation is O(log buckets), a
 *    percentile estimate is O(buckets), and memory never grows with
 *    the sample count — this is what replaced the service layer's
 *    unbounded sample vector.
 *  - **Disarmed is (nearly) free.**  Call sites guard registry-owned
 *    instruments with `if (telemetry::armed())` — a single relaxed
 *    atomic load, mirroring the JCACHE_FAULT pattern — so a binary
 *    with telemetry compiled in but no exporter attached pays one
 *    predictable branch per instrument site.
 *
 * Instruments are usable standalone (the service owns its job
 * wall-time Histogram directly, because back-off hints depend on it
 * whether or not an exporter is attached) or through the process-wide
 * Registry, which names them, attaches optional labels, and renders
 * them in Prometheus text exposition format.
 */

#ifndef JCACHE_TELEMETRY_METRICS_HH
#define JCACHE_TELEMETRY_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace jcache::telemetry
{

/** Label set of one instrument: ordered (key, value) pairs. */
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail
{
/** True once telemetry is armed.  Read through armed() only. */
extern std::atomic<bool> armed;
} // namespace detail

/**
 * True when telemetry collection is armed (an exporter is attached or
 * a test asked for it): one relaxed atomic load.  Instrumentation
 * sites use this as their guard, so a disarmed process pays a single
 * predictable branch per site.
 */
inline bool
armed()
{
    return detail::armed.load(std::memory_order_relaxed);
}

/** Arm or disarm telemetry collection process-wide. */
void setArmed(bool on);

/**
 * Monotonically increasing event count.
 *
 * Increments are relaxed atomic adds on a per-thread shard padded to
 * its own cache line; value() sums the shards.  The total is exact
 * (every increment lands), only the read is unordered with respect to
 * concurrent writers — the standard trade for contention-free
 * counting.
 */
class Counter
{
  public:
    Counter() = default;

    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    /** Add `n` (default 1) to the counter. */
    void
    inc(std::uint64_t n = 1)
    {
        shards_[shardIndex()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Sum of all shards. */
    std::uint64_t value() const;

  private:
    /** Shards: enough to spread a typical worker pool. */
    static constexpr unsigned kShards = 16;

    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> value{0};
    };

    /** Stable per-thread shard assignment, round-robin at first use. */
    static unsigned shardIndex();

    std::array<Shard, kShards> shards_;
};

/** A value that can go up and down (queue depth, entries, ...). */
class Gauge
{
  public:
    Gauge() = default;

    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** Add `delta` (may be negative) via a CAS loop. */
    void add(double delta);

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Bucket layout of a Histogram: log-spaced upper bounds. */
struct HistogramOptions
{
    /** Upper bound of the first bucket. */
    double minBound = 1e-6;

    /**
     * Smallest value the last finite bucket must cover; larger
     * observations land in the overflow (+Inf) bucket.
     */
    double maxBound = 1e3;

    /** Buckets per decade of the log-spaced range. */
    unsigned bucketsPerDecade = 5;
};

/**
 * Fixed-bucket histogram with log-spaced bounds.
 *
 * observe() finds the bucket by binary search and bumps one relaxed
 * atomic; memory is O(buckets) forever.  percentile() walks the
 * cumulative counts (O(buckets)), interpolates linearly inside the
 * selected bucket, and clamps the estimate to the exact observed
 * [min, max] — so a single-sample histogram reports that sample
 * exactly, and the overflow bucket reports the true maximum instead
 * of infinity.
 */
class Histogram
{
  public:
    explicit Histogram(const HistogramOptions& options = {});

    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    /** Record one observation (negative values clamp to bucket 0). */
    void observe(double value);

    /** Number of observations. */
    std::uint64_t count() const;

    /** Sum of observations. */
    double sum() const;

    /** Smallest observation; 0 when empty. */
    double min() const;

    /** Largest observation; 0 when empty. */
    double max() const;

    /**
     * Estimate of the p-th percentile (p in [0, 100]); 0 when empty.
     * O(buckets), clamped into the observed [min, max].
     */
    double percentile(double p) const;

    /** Upper bounds of the finite buckets, ascending. */
    const std::vector<double>&
    bounds() const
    {
        return bounds_;
    }

    /**
     * Count in bucket `i`; `i == bounds().size()` addresses the
     * overflow (+Inf) bucket.
     */
    std::uint64_t bucketCount(std::size_t i) const;

  private:
    std::vector<double> bounds_;

    /** One count per finite bucket plus the overflow bucket. */
    std::vector<std::atomic<std::uint64_t>> counts_;

    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/** What a registered instrument is, for exposition typing. */
enum class InstrumentKind : std::uint8_t
{
    Counter,
    Gauge,
    Histogram,
};

/** Point-in-time value of one counter or gauge sample. */
struct SampleSnapshot
{
    Labels labels;
    double value = 0.0;
};

/** Point-in-time state of one histogram instrument. */
struct HistogramSnapshot
{
    Labels labels;

    /** (upper bound, cumulative count) per finite bucket, ascending. */
    std::vector<std::pair<double, std::uint64_t>> cumulative;

    std::uint64_t count = 0;
    double sum = 0.0;
};

/** All instruments registered under one metric name. */
struct FamilySnapshot
{
    std::string name;
    std::string help;
    InstrumentKind kind = InstrumentKind::Counter;

    /** Counter/gauge samples (empty for histogram families). */
    std::vector<SampleSnapshot> samples;

    /** Histogram instruments (empty for counter/gauge families). */
    std::vector<HistogramSnapshot> histograms;
};

/**
 * Process-wide instrument registry.
 *
 * Instruments are created on first request and live for the process;
 * requesting the same (name, labels) again returns the same
 * instrument, so call sites may cache the reference in a static.
 * Registration takes a mutex (cold path); the returned instruments
 * are lock-free.  Metric names must match the Prometheus grammar
 * `[a-zA-Z_:][a-zA-Z0-9_:]*`; a name re-registered as a different
 * kind is a FatalError.
 */
class Registry
{
  public:
    /** The process-wide registry. */
    static Registry& instance();

    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /** Find or create a counter. */
    Counter& counter(const std::string& name, const std::string& help,
                     const Labels& labels = {});

    /** Find or create a gauge. */
    Gauge& gauge(const std::string& name, const std::string& help,
                 const Labels& labels = {});

    /** Find or create a histogram. */
    Histogram& histogram(const std::string& name,
                         const std::string& help,
                         const HistogramOptions& options = {},
                         const Labels& labels = {});

    /** Snapshot every family for exposition, sorted by name. */
    std::vector<FamilySnapshot> snapshot() const;

  private:
    struct Instrument
    {
        Labels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    struct Family
    {
        std::string help;
        InstrumentKind kind = InstrumentKind::Counter;

        /** Keyed by serialized labels; pointers are stable. */
        std::map<std::string, Instrument> instruments;
    };

    Family& family(const std::string& name, const std::string& help,
                   InstrumentKind kind);

    mutable std::mutex mutex_;
    std::map<std::string, Family> families_;
};

} // namespace jcache::telemetry

#endif // JCACHE_TELEMETRY_METRICS_HH
