/**
 * @file
 * Implementation of the unified simulation entry point.
 *
 * The one-pass batch path does the request bookkeeping runTracePass()
 * stays out of: grouping by trace, deduplicating identical cells,
 * validating each distinct cell once, and planning the passes the
 * executor runs in parallel.  The plan keeps each write-through lane
 * in the pass of its write-back twin (writeBackTwin()), which answers
 * it without a replay, and balances the passes by replayed lanes.
 */

#include "sim/engine.hh"

#include <algorithm>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <tuple>
#include <utility>

#include "sim/multiconfig.hh"
#include "util/logging.hh"

namespace jcache::sim
{

namespace
{

/** One distinct (config, flush) cell and the requests it serves. */
struct Lane
{
    LaneSpec spec;
    std::vector<std::size_t> covers;  //!< request indices

    /** Answered from its write-back twin, the lane before it. */
    bool derived = false;
};

/** All requests against one reference stream, deduplicated. */
struct TraceGroup
{
    const trace::Trace* trace = nullptr;
    const trace::ReplaySource* source = nullptr;

    /** Distinct cells, in first-seen order until planning sorts them. */
    std::vector<Lane> lanes;
};

/** A contiguous slice of one group's lanes, run as one pass. */
struct Pass
{
    const TraceGroup* group = nullptr;
    const Lane* lanes = nullptr;  //!< first lane of the slice
    std::size_t count = 0;        //!< lanes in this pass
};

/**
 * Validate each distinct lane once.  An invalid lane fails the
 * requests it covers with the validation message and leaves the
 * group, so it never reaches a pass (where runTracePass's own check
 * would fail every lane beside it).
 */
void
dropInvalidLanes(TraceGroup& group, std::vector<JobFailure>& failures)
{
    std::erase_if(group.lanes, [&](const Lane& lane) {
        try {
            lane.spec.config.validate();
            return false;
        } catch (const std::exception& e) {
            for (std::size_t ri : lane.covers)
                failures.push_back(JobFailure{ri, e.what()});
            return true;
        }
    });
}

/**
 * Sort a group's lanes by (line size, kernel, hit policy), so lanes
 * that share a piece decode and a vector tile sit together and a
 * slice of them decodes as few line sizes as it can.  A write-through
 * lane whose writeBackTwin() is in the group is marked derived and
 * sorts directly after its twin instead.  Equal keys keep first-seen
 * order.
 */
void
sortLanes(TraceGroup& group)
{
    std::vector<Lane>& lanes = group.lanes;
    // at[i]: the lane whose place lane i takes, its twin or itself.
    std::vector<std::size_t> at(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        at[i] = i;
        if (std::optional<LaneSpec> twin = writeBackTwin(lanes[i].spec))
            for (std::size_t j = 0; j < lanes.size(); ++j)
                if (lanes[j].spec == *twin) {
                    at[i] = j;
                    lanes[i].derived = true;
                }
    }
    auto key = [&](std::size_t i) {
        const core::CacheConfig& c = lanes[at[i]].spec.config;
        return std::make_tuple(c.lineBytes, !fastLaneEligible(c),
                               c.hitPolicy, at[i], lanes[i].derived);
    };
    std::vector<std::size_t> order(lanes.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
    std::vector<Lane> sorted;
    sorted.reserve(lanes.size());
    for (std::size_t i : order)
        sorted.push_back(std::move(lanes[i]));
    lanes = std::move(sorted);
}

/**
 * Cut the batch into as few passes as keep `jobs` workers busy,
 * counting replayed lanes only: a derived lane costs its pass
 * nothing.  The target is jobs × ⌈traces / jobs⌉ passes of at most
 * ⌈replayed lanes / target⌉ replayed lanes each; one trace is cut
 * into at most `jobs` contiguous slices of near-equal replayed-lane
 * count, never between a lane and the derived lane after it.  So a
 * one-trace batch becomes min(jobs, replayed lanes) passes, and one
 * worker never splits a trace: every pass walks and decodes its whole
 * trace, so a split only pays when another worker takes the other
 * slice.
 */
std::vector<Pass>
planPasses(const std::vector<TraceGroup>& groups, std::size_t jobs)
{
    auto replayed = [](const TraceGroup& group) {
        return static_cast<std::size_t>(
            std::count_if(group.lanes.begin(), group.lanes.end(),
                          [](const Lane& lane) { return !lane.derived; }));
    };
    std::size_t traces = 0;
    std::size_t lanes = 0;
    for (const TraceGroup& group : groups)
        if (!group.lanes.empty()) {
            ++traces;
            lanes += replayed(group);
        }
    std::vector<Pass> passes;
    if (lanes == 0)
        return passes;
    const std::size_t target = jobs * ((traces + jobs - 1) / jobs);
    const std::size_t cap = (lanes + target - 1) / target;
    for (const TraceGroup& group : groups) {
        const std::size_t n = replayed(group);
        const std::size_t slices = std::min(jobs, (n + cap - 1) / cap);
        for (std::size_t s = 0, first = 0; s < slices; ++s) {
            // This slice's replayed lanes, then any derived lane that
            // follows the last of them.
            std::size_t want = n / slices + (s < n % slices ? 1 : 0);
            std::size_t end = first;
            while (end < group.lanes.size() &&
                   (want > 0 || group.lanes[end].derived)) {
                if (!group.lanes[end].derived)
                    --want;
                ++end;
            }
            passes.push_back(
                Pass{&group, group.lanes.data() + first, end - first});
            first = end;
        }
    }
    return passes;
}

BatchOutcome
runBatchPerCell(const std::vector<Request>& requests,
                const BatchOptions& options)
{
    BatchOutcome outcome;
    outcome.results.resize(requests.size());
    std::mutex complete_mutex;

    ParallelExecutor executor(options.jobs, options.pool);
    outcome.report = executor.runTasks(
        requests.size(), [&](std::size_t i) {
            const Request& request = requests[i];
            outcome.results[i] = runTrace(
                *request.trace, request.config, request.flushAtEnd);
            if (options.onComplete) {
                std::lock_guard<std::mutex> lock(complete_mutex);
                options.onComplete(i, outcome.results[i]);
            }
            return outcome.results[i].instructions;
        });
    return outcome;
}

BatchOutcome
runBatchOnePass(const std::vector<Request>& requests,
                const BatchOptions& options)
{
    // Group requests by reference stream (first-seen order),
    // deduplicating identical (config, flush) cells within each
    // group.  Both pointers participate in the key so a trace and a
    // mapped source over the same records stay separate passes.
    std::vector<TraceGroup> groups;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request& request = requests[i];
        TraceGroup* group = nullptr;
        for (TraceGroup& g : groups)
            if (g.trace == request.trace &&
                g.source == request.source) {
                group = &g;
                break;
            }
        if (!group) {
            groups.push_back(
                TraceGroup{request.trace, request.source, {}});
            group = &groups.back();
        }
        const LaneSpec spec{request.config, request.flushAtEnd};
        Lane* lane = nullptr;
        for (Lane& l : group->lanes)
            if (l.spec == spec) {
                lane = &l;
                break;
            }
        if (!lane) {
            group->lanes.push_back(Lane{spec, {}});
            lane = &group->lanes.back();
        }
        lane->covers.push_back(i);
    }

    BatchOutcome outcome;
    for (TraceGroup& group : groups) {
        dropInvalidLanes(group, outcome.report.failures);
        sortLanes(group);
    }
    ParallelExecutor executor(options.jobs, options.pool);
    const std::vector<Pass> passes =
        planPasses(groups, executor.threads());

    outcome.results.assign(requests.size(), Result{});
    std::vector<JobTiming> timings(requests.size());
    std::vector<double> passWall(passes.size(), 0.0);

    std::mutex complete_mutex;

    SweepReport pass_report = executor.runTasks(
        passes.size(), [&](std::size_t pi) -> Count {
            const Pass& pass = passes[pi];
            const TraceGroup& group = *pass.group;
            std::vector<LaneSpec> lanes;
            for (std::size_t k = 0; k < pass.count; ++k)
                lanes.push_back(pass.lanes[k].spec);
            std::vector<Result> results =
                group.source ? runTracePass(*group.source, lanes)
                             : runTracePass(*group.trace, lanes);
            Count replayed = 0;
            for (std::size_t k = 0; k < results.size(); ++k) {
                replayed = results[k].instructions;
                for (std::size_t ri : pass.lanes[k].covers) {
                    outcome.results[ri] = results[k];
                    timings[ri].instructions = results[k].instructions;
                }
            }
            if (options.onComplete) {
                std::lock_guard<std::mutex> lock(complete_mutex);
                for (std::size_t k = 0; k < results.size(); ++k)
                    for (std::size_t ri : pass.lanes[k].covers)
                        options.onComplete(ri, results[k]);
            }
            return replayed;
        });

    // Re-key the pass-level report to request granularity: a pass's
    // wall time is shared evenly by the requests it served, and a
    // pass failure fails every request it covered.
    for (std::size_t pi = 0; pi < passes.size(); ++pi)
        if (pi < pass_report.timings.size())
            passWall[pi] = pass_report.timings[pi].wallSeconds;

    outcome.report.threads = pass_report.threads;
    outcome.report.wallSeconds = pass_report.wallSeconds;
    for (std::size_t pi = 0; pi < passes.size(); ++pi) {
        const Pass& pass = passes[pi];
        std::size_t covered = 0;
        for (std::size_t k = 0; k < pass.count; ++k)
            covered += pass.lanes[k].covers.size();
        if (covered == 0)
            continue;
        double share = passWall[pi] / static_cast<double>(covered);
        for (std::size_t k = 0; k < pass.count; ++k)
            for (std::size_t ri : pass.lanes[k].covers)
                timings[ri].wallSeconds = share;
    }
    for (const JobFailure& failure : pass_report.failures) {
        const Pass& pass = passes[failure.index];
        for (std::size_t k = 0; k < pass.count; ++k)
            for (std::size_t ri : pass.lanes[k].covers)
                outcome.report.failures.push_back(
                    JobFailure{ri, failure.message});
    }
    std::sort(outcome.report.failures.begin(),
              outcome.report.failures.end(),
              [](const JobFailure& a, const JobFailure& b) {
                  return a.index < b.index;
              });
    outcome.report.timings = std::move(timings);
    return outcome;
}

} // namespace

std::string
name(Engine engine)
{
    return engine == Engine::PerCell ? "percell" : "onepass";
}

std::optional<Engine>
parseEngine(const std::string& code)
{
    if (code == "percell")
        return Engine::PerCell;
    if (code == "onepass")
        return Engine::OnePass;
    return std::nullopt;
}

Result
runOne(const Request& request, Engine engine)
{
    fatalIf(request.trace == nullptr && request.source == nullptr,
            "simulation request names no trace");
    if (engine == Engine::PerCell) {
        fatalIf(request.trace == nullptr,
                "the per-cell engine needs an in-memory trace; "
                "resolveMaterialized() the reference first");
        return runTrace(*request.trace, request.config,
                        request.flushAtEnd);
    }
    const LaneSpec lane{request.config, request.flushAtEnd};
    if (request.source)
        return runTracePass(*request.source, {lane}).front();
    return runTracePass(*request.trace, {lane}).front();
}

BatchOutcome
runBatch(const std::vector<Request>& requests,
         const BatchOptions& options)
{
    for (const Request& request : requests) {
        fatalIf(request.trace == nullptr && request.source == nullptr,
                "simulation request names no trace");
        fatalIf(options.engine == Engine::PerCell &&
                    request.trace == nullptr,
                "the per-cell engine needs an in-memory trace; "
                "resolveMaterialized() the reference first");
    }
    if (options.engine == Engine::PerCell)
        return runBatchPerCell(requests, options);
    return runBatchOnePass(requests, options);
}

} // namespace jcache::sim
