/**
 * @file
 * Implementation of the parallel sweep executor.
 */

#include "sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>

#include "stats/json.hh"
#include "stats/table.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace_writer.hh"

namespace jcache::sim
{

namespace
{

std::atomic<unsigned> default_jobs_override{0};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

unsigned
defaultJobs()
{
    unsigned jobs = default_jobs_override.load();
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    return jobs == 0 ? 1 : jobs;
}

void
setDefaultJobs(unsigned jobs)
{
    default_jobs_override.store(jobs);
}

double
SweepReport::busySeconds() const
{
    double sum = 0.0;
    for (const JobTiming& t : timings)
        sum += t.wallSeconds;
    return sum;
}

Count
SweepReport::totalInstructions() const
{
    Count sum = 0;
    for (const JobTiming& t : timings)
        sum += t.instructions;
    return sum;
}

double
SweepReport::megaInstructionsPerSecond() const
{
    if (wallSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(totalInstructions()) / wallSeconds /
           1e6;
}

double
SweepReport::utilization() const
{
    if (wallSeconds <= 0.0 || threads == 0)
        return 0.0;
    double u = busySeconds() / (threads * wallSeconds);
    return u > 1.0 ? 1.0 : u;
}

void
SweepReport::writeJson(std::ostream& os) const
{
    stats::JsonWriter json(os);
    json.beginObject();
    json.field("threads", static_cast<double>(threads));
    json.field("jobs", static_cast<double>(jobs()));
    json.field("wall_seconds", wallSeconds);
    json.field("busy_seconds", busySeconds());
    json.field("utilization", utilization());
    json.field("instructions",
               static_cast<double>(totalInstructions()));
    json.field("m_ins_per_sec", megaInstructionsPerSecond());
    json.beginArray("failures");
    for (const JobFailure& f : failures) {
        json.beginObject();
        json.field("job", static_cast<double>(f.index));
        json.field("error", f.message);
        json.endObject();
    }
    json.endArray();
    json.beginArray("job_timings");
    for (const JobTiming& t : timings) {
        json.beginObject();
        json.field("wall_seconds", t.wallSeconds);
        json.field("instructions",
                   static_cast<double>(t.instructions));
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

std::string
SweepReport::summary() const
{
    std::ostringstream oss;
    oss << jobs() << " jobs on " << threads << " thread"
        << (threads == 1 ? "" : "s") << " in "
        << stats::formatFixed(wallSeconds, 3) << "s ("
        << stats::formatFixed(megaInstructionsPerSecond(), 1)
        << " M ins/s, " << stats::formatFixed(utilization() * 100.0, 0)
        << "% utilization)";
    if (!failures.empty())
        oss << ", " << failures.size() << " FAILED";
    return oss.str();
}

WorkerPool::WorkerPool(unsigned threads)
{
    const unsigned n = threads == 0 ? defaultJobs() : threads;
    workers_.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread& t : workers_)
        t.join();
}

void
WorkerPool::run(std::size_t count,
                const std::function<void(std::size_t)>& task)
{
    if (count == 0)
        return;
    Grid grid;
    grid.task = &task;
    grid.count = count;
    std::unique_lock<std::mutex> lock(mutex_);
    grid.submitted = Clock::now();
    if (inFlight_++ == 0)
        heldSince_ = grid.submitted;
    open_.push_back(&grid);
    if (count == 1)
        workCv_.notify_one();
    else
        workCv_.notify_all();
    doneCv_.wait(lock, [&] { return grid.finished == grid.count; });
}

void
WorkerPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock,
                     [this] { return stopping_ || !open_.empty(); });
        if (open_.empty())
            return;
        Grid& grid = *open_.front();
        const std::size_t i = grid.next++;
        if (grid.next == grid.count)
            open_.pop_front();
        lock.unlock();

        // The grid stays alive until its last task is counted
        // finished below, so it may be read without the lock.
        const Clock::time_point start = Clock::now();
        if (telemetry::armed()) {
            static telemetry::Histogram& wait =
                telemetry::Registry::instance().histogram(
                    "jcache_pool_wait_seconds",
                    "Wait of one pool task, grid submission to start "
                    "on a worker");
            wait.observe(
                std::chrono::duration<double>(start - grid.submitted)
                    .count());
        }
        (*grid.task)(i);
        const double busy = secondsSince(start);

        lock.lock();
        busySeconds_ += busy;
        if (++grid.finished == grid.count) {
            if (--inFlight_ == 0)
                heldSeconds_ += secondsSince(heldSince_);
            doneCv_.notify_all();
        }
    }
}

std::size_t
WorkerPool::pending() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const Grid* grid : open_)
        n += grid->count - grid->next;
    return n;
}

double
WorkerPool::utilization() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double held = heldSeconds_;
    if (inFlight_ > 0)
        held += secondsSince(heldSince_);
    if (held <= 0.0)
        return 0.0;
    return std::min(1.0, busySeconds_ / (threads() * held));
}

ParallelExecutor::ParallelExecutor(unsigned threads, WorkerPool* pool)
    : threads_(pool ? pool->threads()
                    : threads == 0 ? defaultJobs() : threads),
      pool_(pool)
{
}

SweepReport
ParallelExecutor::runTasks(
    std::size_t count,
    const std::function<Count(std::size_t)>& task) const
{
    SweepReport report;
    report.timings.resize(count);
    // Oversubscription (threads > grid) just idles the excess
    // workers; clamp so the report reflects the pool that can do work.
    unsigned workers = threads_;
    if (count < workers)
        workers = count == 0 ? 1 : static_cast<unsigned>(count);
    report.threads = workers;

    telemetry::Span grid_span("sweep.grid", "sim");
    grid_span.arg("jobs", std::to_string(count));
    grid_span.arg("threads", std::to_string(workers));

    Clock::time_point grid_start = Clock::now();
    std::mutex failures_mutex;

    auto cell = [&](std::size_t i) {
        telemetry::Span cell_span("sweep.cell", "sim");
        cell_span.arg("index", std::to_string(i));
        Clock::time_point job_start = Clock::now();
        Count instructions = 0;
        bool failed = false;
        // A throwing task must cost only its own cell; an escaped
        // exception on a pool thread would terminate the process.
        try {
            instructions = task(i);
        } catch (const std::exception& e) {
            failed = true;
            std::lock_guard<std::mutex> lock(failures_mutex);
            report.failures.push_back({i, e.what()});
        } catch (...) {
            failed = true;
            std::lock_guard<std::mutex> lock(failures_mutex);
            report.failures.push_back({i, "unknown error"});
        }
        report.timings[i].wallSeconds = secondsSince(job_start);
        report.timings[i].instructions = instructions;
        if (telemetry::armed()) {
            auto& reg = telemetry::Registry::instance();
            static telemetry::Counter& cells = reg.counter(
                "jcache_sweep_cells_total",
                "Sweep grid cells executed");
            static telemetry::Counter& cell_failures = reg.counter(
                "jcache_sweep_cell_failures_total",
                "Sweep grid cells whose task threw");
            static telemetry::Histogram& cell_seconds =
                reg.histogram("jcache_sweep_cell_seconds",
                              "Wall time of one sweep grid cell");
            cells.inc();
            if (failed)
                cell_failures.inc();
            cell_seconds.observe(report.timings[i].wallSeconds);
        }
    };

    if (pool_)
        pool_->run(count, cell);
    else if (count > 0)
        WorkerPool(workers).run(count, cell);
    report.wallSeconds = secondsSince(grid_start);
    // Completion order is scheduling-dependent; reporting is not.
    std::sort(report.failures.begin(), report.failures.end(),
              [](const JobFailure& a, const JobFailure& b) {
                  return a.index < b.index;
              });
    return report;
}

} // namespace jcache::sim
