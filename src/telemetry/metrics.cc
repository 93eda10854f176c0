/**
 * @file
 * Implementation of the metrics instruments and registry.
 */

#include "telemetry/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace jcache::telemetry
{

namespace
{

/** CAS-add for pre-C++20-style atomic doubles (relaxed). */
void
atomicAdd(std::atomic<double>& target, double delta)
{
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
}

void
atomicMin(std::atomic<double>& target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (value < current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double>& target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (value > current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

bool
validMetricName(const std::string& name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (char c : name) {
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    }
    return true;
}

/** Canonical key of a label set, for instrument lookup. */
std::string
labelKey(const Labels& labels)
{
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string key;
    for (const auto& [k, v] : sorted) {
        key += k;
        key += '\x1f';
        key += v;
        key += '\x1e';
    }
    return key;
}

const char*
kindName(InstrumentKind kind)
{
    switch (kind) {
      case InstrumentKind::Counter:
        return "counter";
      case InstrumentKind::Gauge:
        return "gauge";
      case InstrumentKind::Histogram:
        return "histogram";
    }
    return "unknown";
}

} // namespace

namespace detail
{

std::atomic<bool> armed{false};

} // namespace detail

void
setArmed(bool on)
{
    detail::armed.store(on, std::memory_order_relaxed);
}

std::uint64_t
Counter::value() const
{
    std::uint64_t sum = 0;
    for (const Shard& shard : shards_)
        sum += shard.value.load(std::memory_order_relaxed);
    return sum;
}

unsigned
Counter::shardIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned index =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return index;
}

void
Gauge::add(double delta)
{
    atomicAdd(value_, delta);
}

Histogram::Histogram(const HistogramOptions& options)
{
    fatalIf(options.minBound <= 0.0 ||
                options.maxBound <= options.minBound ||
                options.bucketsPerDecade == 0,
            "histogram: bounds must satisfy 0 < min < max with at "
            "least one bucket per decade");
    double factor =
        std::pow(10.0, 1.0 / options.bucketsPerDecade);
    double bound = options.minBound;
    while (true) {
        bounds_.push_back(bound);
        if (bound >= options.maxBound)
            break;
        bound *= factor;
    }
    counts_ = std::vector<std::atomic<std::uint64_t>>(
        bounds_.size() + 1);
    // Extremes start saturated so concurrent first observations need
    // no seeding handshake; min()/max() report 0 while empty.
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

void
Histogram::observe(double value)
{
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    std::size_t bucket =
        static_cast<std::size_t>(it - bounds_.begin());
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, value);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicMin(min_, value);
    atomicMax(max_, value);
}

std::uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Histogram::min() const
{
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double
Histogram::max() const
{
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    return i < counts_.size()
        ? counts_[i].load(std::memory_order_relaxed)
        : 0;
}

double
Histogram::percentile(double p) const
{
    std::uint64_t total = 0;
    std::vector<std::uint64_t> counts(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        counts[i] = counts_[i].load(std::memory_order_relaxed);
        total += counts[i];
    }
    if (total == 0)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 100.0)
        p = 100.0;

    // Nearest-rank target, matching the service's historical
    // sorted-sample percentile; interpolation inside the selected
    // bucket smooths between its bounds.
    double rank = p / 100.0 * static_cast<double>(total - 1);
    std::uint64_t before = 0;
    std::size_t bucket = counts.size() - 1;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        if (static_cast<double>(before + counts[i]) > rank) {
            bucket = i;
            break;
        }
        before += counts[i];
    }

    double observed_min = min();
    double observed_max = max();
    double lower = bucket == 0 ? 0.0 : bounds_[bucket - 1];
    double upper = bucket < bounds_.size() ? bounds_[bucket]
                                           : observed_max;
    std::uint64_t in_bucket = counts[bucket];
    double fraction = in_bucket == 0
        ? 0.0
        : (rank - static_cast<double>(before)) /
              static_cast<double>(in_bucket);
    double estimate = lower + (upper - lower) * fraction;
    // The exact extremes bound the estimate: a single-sample
    // histogram answers that sample, and the overflow bucket answers
    // the true maximum instead of a bucket bound.
    if (estimate < observed_min)
        estimate = observed_min;
    if (estimate > observed_max)
        estimate = observed_max;
    return estimate;
}

Registry&
Registry::instance()
{
    // Intentionally leaked: instrumentation sites cache references
    // and may fire during static destruction.
    static Registry* registry = new Registry();
    return *registry;
}

Registry::Family&
Registry::family(const std::string& name, const std::string& help,
                 InstrumentKind kind)
{
    fatalIf(!validMetricName(name),
            "metric name '" + name +
                "' violates [a-zA-Z_:][a-zA-Z0-9_:]*");
    auto it = families_.find(name);
    if (it == families_.end()) {
        Family family;
        family.help = help;
        family.kind = kind;
        it = families_.emplace(name, std::move(family)).first;
    }
    fatalIf(it->second.kind != kind,
            "metric '" + name + "' already registered as " +
                kindName(it->second.kind) + ", requested " +
                kindName(kind));
    return it->second;
}

Counter&
Registry::counter(const std::string& name, const std::string& help,
                  const Labels& labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Family& fam = family(name, help, InstrumentKind::Counter);
    Instrument& inst = fam.instruments[labelKey(labels)];
    if (!inst.counter) {
        inst.labels = labels;
        inst.counter = std::make_unique<Counter>();
    }
    return *inst.counter;
}

Gauge&
Registry::gauge(const std::string& name, const std::string& help,
                const Labels& labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Family& fam = family(name, help, InstrumentKind::Gauge);
    Instrument& inst = fam.instruments[labelKey(labels)];
    if (!inst.gauge) {
        inst.labels = labels;
        inst.gauge = std::make_unique<Gauge>();
    }
    return *inst.gauge;
}

Histogram&
Registry::histogram(const std::string& name, const std::string& help,
                    const HistogramOptions& options,
                    const Labels& labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Family& fam = family(name, help, InstrumentKind::Histogram);
    Instrument& inst = fam.instruments[labelKey(labels)];
    if (!inst.histogram) {
        inst.labels = labels;
        inst.histogram = std::make_unique<Histogram>(options);
    }
    return *inst.histogram;
}

std::vector<FamilySnapshot>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<FamilySnapshot> out;
    out.reserve(families_.size());
    for (const auto& [name, fam] : families_) {
        FamilySnapshot snap;
        snap.name = name;
        snap.help = fam.help;
        snap.kind = fam.kind;
        for (const auto& [key, inst] : fam.instruments) {
            if (inst.counter) {
                snap.samples.push_back(
                    {inst.labels,
                     static_cast<double>(inst.counter->value())});
            } else if (inst.gauge) {
                snap.samples.push_back(
                    {inst.labels, inst.gauge->value()});
            } else if (inst.histogram) {
                HistogramSnapshot h;
                h.labels = inst.labels;
                const Histogram& histogram = *inst.histogram;
                std::uint64_t cumulative = 0;
                for (std::size_t i = 0;
                     i < histogram.bounds().size(); ++i) {
                    cumulative += histogram.bucketCount(i);
                    h.cumulative.emplace_back(histogram.bounds()[i],
                                              cumulative);
                }
                h.count = histogram.count();
                h.sum = histogram.sum();
                snap.histograms.push_back(std::move(h));
            }
        }
        out.push_back(std::move(snap));
    }
    return out;
}

} // namespace jcache::telemetry
