/**
 * @file
 * jcached: the cache-simulation daemon.
 *
 * Usage:
 *   jcached [--port N] [--port-file PATH] [--jobs N]
 *           [--engine percell|onepass] [--server reactor]
 *           [--coordinator] [--workers HOST:PORT,...]
 *           [--queue N] [--cache N] [--timeout MS]
 *           [--pipeline-cap N]
 *           [--admission codel|queue-cap]
 *           [--admission-target-ms MS] [--admission-interval-ms MS]
 *           [--store-dir PATH] [--store-cap-bytes N]
 *           [--trace-cache-dir PATH]
 *           [--metrics-port N] [--metrics-port-file PATH]
 *           [--trace-out PATH] [--version]
 *
 * Binds 127.0.0.1:<port> (0 = ephemeral; the chosen port is printed
 * and optionally written to --port-file for scripts), then serves
 * framed JSON requests until SIGINT/SIGTERM or an in-band shutdown
 * request, draining in-flight connections on the way out.  The nine
 * registry traces are generated and digested once, on a thread of
 * their own, when the first request needs them (a `name:` ref, or a
 * `digest:` ref that no upload or --trace-cache-dir file holds); the
 * event loop keeps serving meanwhile, and --jobs decides whether each
 * digest runs beside the next generation.  Protocol: docs/SERVICE.md.
 *
 * The front end multiplexes every connection onto one epoll event
 * loop and answers pipelined requests per connection in order;
 * --timeout is its connection idle timeout.  `--server reactor` names
 * that front end explicitly and is the only value --server accepts.
 * A malformed number, or a port above 65535, is a usage error (exit
 * 2).
 *
 * --coordinator with --workers turns the daemon into a shard
 * coordinator (docs/SHARDING.md): sweep and batch grids scatter over
 * the listed worker daemons in chunks, merge byte-identically, and
 * re-scatter around worker failures.  Workers are plain jcached
 * instances; pointing several at one --store-dir is safe (the store
 * serializes cross-process eviction on a lock file).
 *
 * --store-dir opens the persistent result store under the in-memory
 * result cache (docs/STORAGE.md): results survive restarts and are
 * shared with `jcache-sweep --incremental` runs over the same
 * directory.  --store-cap-bytes bounds it (default 256 MiB).  A job
 * is answered before its result is on disk: a writer thread retires
 * the puts from a write buffer, and SIGINT, SIGTERM and `shutdown`
 * drain that buffer before the daemon exits.
 *
 * --trace-cache-dir points the daemon's trace repository at a
 * replay-cache directory (docs/ENGINE.md): `digest:` trace
 * references also resolve against `<digest>.jcrc` files there and
 * replay them mmap'd, without materializing the records.
 *
 * --admission selects the overload policy (docs/RESILIENCE.md):
 * `codel` (default) sheds from the queue front when median sojourn
 * stays above --admission-target-ms for one --admission-interval-ms,
 * on top of the fixed --queue capacity; `queue-cap` restores the
 * capacity-only behavior.
 *
 * --metrics-port arms telemetry and serves Prometheus text exposition
 * on a second loopback port (GET /metrics); --trace-out captures
 * spans for the daemon's lifetime and writes Chrome trace-event JSON
 * at exit.  Both are documented in docs/OBSERVABILITY.md.
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_common.hh"
#include "service/async_server.hh"
#include "service/shard.hh"
#include "sim/parallel.hh"
#include "telemetry/http_exporter.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace_writer.hh"
#include "util/logging.hh"
#include "util/version.hh"

namespace
{

using namespace jcache;

std::atomic<service::AsyncServer*> g_server{nullptr};

void
onSignal(int)
{
    // requestStop() only stores to an atomic: async-signal-safe.
    if (service::AsyncServer* s = g_server.load())
        s->requestStop();
}

int
usage()
{
    std::cerr <<
        "usage: jcached [--port N] [--port-file PATH] [--jobs N]\n"
        "  [--engine percell|onepass] [--server reactor]\n"
        "  [--coordinator] [--workers HOST:PORT,...]\n"
        "  [--queue N] [--cache N] [--timeout MS]\n"
        "  [--pipeline-cap N]\n"
        "  [--admission codel|queue-cap]\n"
        "  [--admission-target-ms MS] [--admission-interval-ms MS]\n"
        "  [--store-dir PATH] [--store-cap-bytes N]\n"
        "  [--trace-cache-dir PATH]\n"
        "  [--metrics-port N] [--metrics-port-file PATH]\n"
        "  [--trace-out PATH] [--version]\n";
    return 2;
}

/**
 * Scrape-time refresh: sample the service's point-in-time state into
 * registry gauges so every scrape reports current depth/entries
 * rather than the state at some earlier push.
 */
void
refreshServiceGauges(service::Service& svc)
{
    auto& reg = telemetry::Registry::instance();
    service::ServiceSnapshot snap = svc.snapshot();
    reg.gauge("jcache_queue_depth", "Jobs waiting in the queue")
        .set(static_cast<double>(snap.queueDepth));
    reg.gauge("jcache_queue_capacity",
              "Admission limit of the job queue")
        .set(static_cast<double>(snap.queueCapacity));
    reg.gauge("jcache_result_cache_entries",
              "Entries resident in the result cache")
        .set(static_cast<double>(snap.cache.entries));
    reg.gauge("jcache_uptime_seconds",
              "Seconds since the service started")
        .set(snap.uptimeSeconds);
    reg.gauge("jcache_connections_open",
              "Client connections currently open")
        .set(static_cast<double>(snap.connectionsOpen));
    reg.gauge("jcache_job_wall_seconds_p50",
              "Median job wall time, from the job histogram")
        .set(snap.jobWallP50Seconds);
    reg.gauge("jcache_job_queue_wait_seconds_p50",
              "Median queue sojourn, admission to dequeue")
        .set(snap.queueWaitP50Seconds);
    reg.gauge("jcache_job_queue_wait_seconds_p99",
              "p99 queue sojourn, admission to dequeue")
        .set(snap.queueWaitP99Seconds);
    reg.gauge("jcache_admission_dropping",
              "1 while the CoDel admission controller is shedding")
        .set(snap.admission.dropping ? 1.0 : 0.0);
    reg.gauge("jcache_admission_window_p50_ms",
              "Median sojourn of the admission controller's window")
        .set(snap.admission.windowP50Millis);
    if (snap.role == "coordinator") {
        auto healthy = static_cast<double>(std::count_if(
            snap.workers.begin(), snap.workers.end(),
            [](const service::WorkerHealth& w) { return w.healthy; }));
        reg.gauge("jcache_shard_workers_healthy",
                  "Shard workers currently considered healthy")
            .set(healthy);
        reg.gauge("jcache_shard_degraded",
                  "1 while any shard worker is unhealthy")
            .set(healthy <
                         static_cast<double>(snap.workers.size())
                     ? 1.0
                     : 0.0);
    }
    if (snap.storeEnabled) {
        reg.gauge("jcache_store_occupancy_bytes",
                  "Bytes resident in the persistent result store")
            .set(static_cast<double>(snap.store.occupancyBytes));
        reg.gauge("jcache_store_entries",
                  "Blobs resident in the persistent result store")
            .set(static_cast<double>(snap.store.entries));
        reg.gauge("jcache_store_hit_ratio",
                  "Persistent-store hits over lookups since open")
            .set(snap.store.hitRate());
    }
}

/** A --port or --metrics-port value: parseUnsigned(), at most 65535. */
std::uint16_t
parsePort(const std::string& value, const std::string& flag)
{
    unsigned port = tools::parseUnsigned(value, flag);
    fatalIf(port > 65535,
            flag + " expects a port up to 65535, got '" + value + "'");
    return static_cast<std::uint16_t>(port);
}

/** Everything serveDaemon needs besides the server itself. */
struct DaemonOptions
{
    std::string portFile;
    bool metrics = false;
    std::uint16_t metricsPort = 0;
    std::string metricsPortFile;
    std::string traceOut;
};

/**
 * The daemon lifecycle: start, expose metrics, install signal
 * handlers, announce the port, serve, drain, flush the span trace.
 */
int
serveDaemon(service::AsyncServer& server, const DaemonOptions& opt)
{
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }

    telemetry::MetricsHttpServer metrics_server;
    if (opt.metrics) {
        service::Service& svc = server.service();
        if (!metrics_server.start(
                opt.metricsPort,
                [&svc] { refreshServiceGauges(svc); }, &error)) {
            std::cerr << "error: " << error << "\n";
            return 1;
        }
        if (!opt.metricsPortFile.empty()) {
            std::ofstream ofs(opt.metricsPortFile);
            fatalIf(!ofs, "cannot write metrics port file: " +
                              opt.metricsPortFile);
            ofs << metrics_server.port() << "\n";
        }
        std::cout << "metrics on http://127.0.0.1:"
                  << metrics_server.port() << "/metrics"
                  << std::endl;
    }

    g_server.store(&server);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (!opt.portFile.empty()) {
        std::ofstream ofs(opt.portFile);
        fatalIf(!ofs, "cannot write port file: " + opt.portFile);
        ofs << server.port() << "\n";
    }
    std::cout << "listening on 127.0.0.1:" << server.port()
              << std::endl;

    server.serve();
    std::cerr << "jcached: drained, exiting\n";
    g_server.store(nullptr);

    metrics_server.stop();
    if (!opt.traceOut.empty()) {
        telemetry::SpanTracer& tracer =
            telemetry::SpanTracer::instance();
        tracer.stop();
        if (!tracer.save(opt.traceOut, &error)) {
            std::cerr << "error: " << error << "\n";
            return 1;
        }
        std::cerr << "jcached: wrote " << tracer.eventCount()
                  << " trace events to " << opt.traceOut << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    service::AsyncServerConfig config;
    DaemonOptions opt;
    bool coordinator = false;
    std::string workers;

    tools::CommonFlags common;
    constexpr unsigned kCommonFlags =
        tools::kFlagJobs | tools::kFlagEngine;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string flag = argv[i];
            if (flag == "--version") {
                std::cout << versionLine("jcached") << "\n";
                return 0;
            }
            if (flag == "--coordinator") {
                coordinator = true;
                continue;
            }
            if (tools::parseCommonFlag(argc, argv, i, kCommonFlags,
                                       common))
                continue;
            if (i + 1 >= argc)
                return usage();
            std::string value = argv[++i];
            if (flag == "--port") {
                config.port = parsePort(value, flag);
            } else if (flag == "--port-file") {
                opt.portFile = value;
            } else if (flag == "--server") {
                if (value != "reactor") {
                    std::cerr << "error: --server must be reactor\n";
                    return usage();
                }
            } else if (flag == "--workers") {
                workers = value;
            } else if (flag == "--queue") {
                config.service.queueCapacity =
                    tools::parseUnsigned(value, flag);
            } else if (flag == "--cache") {
                config.service.cacheCapacity =
                    tools::parseUnsigned(value, flag);
            } else if (flag == "--timeout") {
                config.connectionTimeoutMillis =
                    tools::parseUnsigned(value, flag);
            } else if (flag == "--pipeline-cap") {
                config.maxPipelinedRequests =
                    tools::parseUnsigned(value, flag);
                if (config.maxPipelinedRequests == 0)
                    config.maxPipelinedRequests = 1;
            } else if (flag == "--admission") {
                auto mode = service::parseAdmissionMode(value);
                if (!mode) {
                    std::cerr << "error: --admission must be codel or "
                                 "queue-cap\n";
                    return usage();
                }
                config.service.admission.mode = *mode;
            } else if (flag == "--admission-target-ms") {
                config.service.admission.targetMillis =
                    std::strtod(value.c_str(), nullptr);
            } else if (flag == "--admission-interval-ms") {
                config.service.admission.intervalMillis =
                    std::strtod(value.c_str(), nullptr);
            } else if (flag == "--store-dir") {
                config.service.storeDir = value;
            } else if (flag == "--trace-cache-dir") {
                config.service.traceCacheDir = value;
            } else if (flag == "--store-cap-bytes") {
                config.service.storeCapBytes =
                    std::strtoull(value.c_str(), nullptr, 10);
            } else if (flag == "--metrics-port") {
                opt.metrics = true;
                opt.metricsPort = parsePort(value, flag);
            } else if (flag == "--metrics-port-file") {
                opt.metricsPortFile = value;
            } else if (flag == "--trace-out") {
                opt.traceOut = value;
            } else {
                return usage();
            }
        }
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage();
    }
    config.service.executorThreads = common.jobs;
    config.service.engine = common.engine;

    if (coordinator && workers.empty()) {
        std::cerr << "error: --coordinator requires --workers\n";
        return usage();
    }
    if (!workers.empty() && !coordinator) {
        std::cerr << "error: --workers requires --coordinator\n";
        return usage();
    }

    try {
        if (coordinator)
            config.service.shard.workers =
                service::parseWorkerList(workers);

        if (opt.metrics)
            telemetry::setArmed(true);
        if (!opt.traceOut.empty())
            telemetry::SpanTracer::instance().start();

        // The trace registry is built by the first request that needs
        // it; --jobs decides whether its digests run beside generation.
        std::cerr << versionLine("jcached")
                  << ": trace registry builds on first use\n";
        sim::setDefaultJobs(common.jobs);
        if (coordinator)
            std::cerr << "jcached: coordinating "
                      << config.service.shard.workers.size()
                      << " worker(s)\n";

        service::AsyncServer server(config);
        std::cerr << "jcached: reactor front end (epoll)\n";
        return serveDaemon(server, opt);
    } catch (const FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
