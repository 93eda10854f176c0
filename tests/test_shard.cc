/**
 * @file
 * Tests for the shard coordinator (service/shard.hh): worker-list
 * parsing, the batch result key, and an in-process coordinator
 * scattering real sweeps over real worker daemons — including the
 * headline guarantees, byte-identical merged responses and
 * completion through re-scatter when a worker is unreachable.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/socket.hh"
#include "service/async_server.hh"
#include "service/json_value.hh"
#include "service/service.hh"
#include "service/shard.hh"
#include "store/key.hh"
#include "util/logging.hh"

using namespace jcache;
using service::AsyncServer;
using service::AsyncServerConfig;
using service::JsonValue;
using service::Service;
using service::ServiceConfig;
using service::WorkerSpec;
using service::parseWorkerList;

// ---------------------------------------------------------------
// parseWorkerList
// ---------------------------------------------------------------

TEST(ParseWorkerList, HostPortPairs)
{
    std::vector<WorkerSpec> specs =
        parseWorkerList("127.0.0.1:7001,127.0.0.1:7002");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].host, "127.0.0.1");
    EXPECT_EQ(specs[0].port, 7001);
    EXPECT_EQ(specs[1].address(), "127.0.0.1:7002");
}

TEST(ParseWorkerList, BarePortMeansLoopback)
{
    std::vector<WorkerSpec> specs = parseWorkerList("7050");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].host, "127.0.0.1");
    EXPECT_EQ(specs[0].port, 7050);
}

TEST(ParseWorkerList, MalformedEntriesThrow)
{
    EXPECT_THROW(parseWorkerList(""), jcache::FatalError);
    EXPECT_THROW(parseWorkerList("host:"), jcache::FatalError);
    EXPECT_THROW(parseWorkerList(":7001"), jcache::FatalError);
    EXPECT_THROW(parseWorkerList("127.0.0.1:notaport"),
                 jcache::FatalError);
    EXPECT_THROW(parseWorkerList("127.0.0.1:99999"),
                 jcache::FatalError);
}

// ---------------------------------------------------------------
// batchKey
// ---------------------------------------------------------------

TEST(BatchKey, OrderAndFlushSensitive)
{
    store::KeyContext ctx;
    std::vector<std::string> ab = {"cfgA", "cfgB"};
    std::vector<std::string> ba = {"cfgB", "cfgA"};
    std::string base = store::batchKey(ctx, "trace-id", ab, false);
    EXPECT_EQ(base.size(), 16u);
    // The same cells in a different order are a different batch —
    // the merge step depends on scatter order.
    EXPECT_NE(base, store::batchKey(ctx, "trace-id", ba, false));
    EXPECT_NE(base, store::batchKey(ctx, "trace-id", ab, true));
    EXPECT_NE(base, store::batchKey(ctx, "other-id", ab, false));

    store::KeyContext newer;
    newer.apiMinor = ctx.apiMinor + 1;
    EXPECT_NE(base, store::batchKey(newer, "trace-id", ab, false));
}

// ---------------------------------------------------------------
// In-process coordinator over real workers
// ---------------------------------------------------------------

namespace
{

/** Two worker daemons plus helpers to build coordinators over them. */
class ShardIntegrationTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        for (int i = 0; i < 2; ++i) {
            AsyncServerConfig config;
            config.port = 0;
            config.service.executorThreads = 2;
            workers_.push_back(
                std::make_unique<AsyncServer>(config));
            std::string error;
            ASSERT_TRUE(workers_.back()->start(&error)) << error;
            threads_.emplace_back(
                [server = workers_.back().get()] { server->serve(); });
        }
    }

    void TearDown() override
    {
        for (auto& server : workers_)
            server->requestStop();
        for (auto& thread : threads_)
            if (thread.joinable())
                thread.join();
    }

    WorkerSpec workerSpec(int i) const
    {
        WorkerSpec spec;
        spec.host = "127.0.0.1";
        spec.port = workers_[i]->port();
        return spec;
    }

    /** A coordinator service over the given worker specs. */
    static ServiceConfig coordinatorConfig(
        std::vector<WorkerSpec> specs)
    {
        ServiceConfig config;
        config.executorThreads = 1;
        config.shard.workers = std::move(specs);
        // Recover and give up fast so failure tests stay quick.
        config.shard.requestTimeoutMillis = 5000;
        config.shard.probeIntervalMillis = 50;
        return config;
    }

    JsonValue parse(const std::string& text)
    {
        std::string error;
        JsonValue v = JsonValue::parse(text, &error);
        EXPECT_EQ(error, "") << text;
        return v;
    }

    std::vector<std::unique_ptr<AsyncServer>> workers_;
    std::vector<std::thread> threads_;
};

const char kSweepRequest[] =
    "{\"type\": \"sweep\", \"workload\": \"ccom\","
    " \"axis\": \"size\", \"config\": {\"size_bytes\": 4096},"
    " \"request_id\": \"s1\"}";

} // namespace

TEST_F(ShardIntegrationTest, SweepMatchesLocalByteForByte)
{
    ServiceConfig local_config;
    local_config.executorThreads = 1;
    Service local(local_config);
    std::string local_response = local.handle(kSweepRequest);
    ASSERT_TRUE(parse(local_response).getBool("ok", false))
        << local_response;

    Service coordinator(
        coordinatorConfig({workerSpec(0), workerSpec(1)}));
    std::string sharded_response = coordinator.handle(kSweepRequest);
    ASSERT_TRUE(parse(sharded_response).getBool("ok", false))
        << sharded_response;

    // The headline guarantee: raw counts round-trip the wire
    // exactly, so the merged response is the single-node response.
    EXPECT_EQ(sharded_response, local_response);
}

TEST_F(ShardIntegrationTest, RunScattersAndMatchesLocal)
{
    const char request[] =
        "{\"type\": \"run\", \"workload\": \"ccom\","
        " \"config\": {\"size_bytes\": 8192}, \"request_id\": \"r1\"}";
    ServiceConfig local_config;
    local_config.executorThreads = 1;
    Service local(local_config);
    std::string local_response = local.handle(request);

    Service coordinator(
        coordinatorConfig({workerSpec(0), workerSpec(1)}));
    std::string sharded_response = coordinator.handle(request);
    EXPECT_EQ(sharded_response, local_response);
}

TEST_F(ShardIntegrationTest, WorkerHealthInNodeBlock)
{
    Service coordinator(
        coordinatorConfig({workerSpec(0), workerSpec(1)}));
    ASSERT_TRUE(
        parse(coordinator.handle(kSweepRequest)).getBool("ok", false));

    JsonValue stats = parse(coordinator.handle(
        "{\"type\": \"stats\"}"));
    JsonValue node = stats.get("payload").get("node");
    EXPECT_EQ(node.getString("role"), "coordinator");
    EXPECT_EQ(node.getNumber("worker_count", 0), 2.0);
    EXPECT_FALSE(node.getBool("degraded", true));
    const JsonValue& workers = node.get("workers");
    ASSERT_TRUE(workers.isArray());
    ASSERT_EQ(workers.items().size(), 2u);
    double completed = 0;
    for (const JsonValue& w : workers.items()) {
        EXPECT_TRUE(w.getBool("healthy", false));
        completed += w.getNumber("chunks_completed", 0);
    }
    EXPECT_GT(completed, 0.0);
}

TEST_F(ShardIntegrationTest, OneChunkSweepsAlternateBetweenWorkers)
{
    // Each sweep is one chunk, and with the coordinator's cache off
    // every one scatters: four in a row go to the workers in turn.
    ServiceConfig config =
        coordinatorConfig({workerSpec(0), workerSpec(1)});
    config.cacheCapacity = 0;
    Service coordinator(config);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(parse(coordinator.handle(kSweepRequest))
                        .getBool("ok", false));
    }
    JsonValue node = parse(coordinator.handle("{\"type\": \"stats\"}"))
                         .get("payload")
                         .get("node");
    const JsonValue& workers = node.get("workers");
    ASSERT_EQ(workers.items().size(), 2u);
    for (const JsonValue& w : workers.items()) {
        EXPECT_EQ(w.getNumber("chunks_completed", 0), 2.0)
            << w.getString("address");
    }
}

TEST_F(ShardIntegrationTest, UnreachableWorkerRescattersAndDegrades)
{
    // Worker 1 plus an address nobody listens on: the scatter must
    // complete on the live worker alone, answer byte-identically,
    // and report the dead worker unhealthy afterwards.
    WorkerSpec dead;
    dead.host = "127.0.0.1";
    dead.port = 1;  // reserved port, connection refused
    ServiceConfig config = coordinatorConfig({workerSpec(0), dead});
    // Cache off: the retry loop below must re-scatter every time.
    config.cacheCapacity = 0;
    Service coordinator(config);
    std::string sharded_response = coordinator.handle(kSweepRequest);
    ASSERT_TRUE(parse(sharded_response).getBool("ok", false))
        << sharded_response;

    ServiceConfig local_config;
    local_config.executorThreads = 1;
    Service local(local_config);
    EXPECT_EQ(sharded_response, local.handle(kSweepRequest));

    // Which worker grabs a one-chunk sweep is a race; sweep until
    // the dead one has failed its way to unhealthy.
    JsonValue node;
    for (int attempt = 0; attempt < 20; ++attempt) {
        JsonValue health = parse(coordinator.handle(
            "{\"type\": \"health\"}"));
        node = health.get("payload").get("node");
        if (node.getBool("degraded", false))
            break;
        ASSERT_TRUE(parse(coordinator.handle(kSweepRequest))
                        .getBool("ok", false));
    }
    EXPECT_TRUE(node.getBool("degraded", false));
    const JsonValue& workers = node.get("workers");
    ASSERT_EQ(workers.items().size(), 2u);
    bool saw_unhealthy = false;
    for (const JsonValue& w : workers.items()) {
        if (w.getString("address") == dead.address()) {
            EXPECT_FALSE(w.getBool("healthy", true));
            saw_unhealthy = true;
        } else {
            EXPECT_TRUE(w.getBool("healthy", false));
            EXPECT_GT(w.getNumber("chunks_completed", 0), 0.0);
        }
    }
    EXPECT_TRUE(saw_unhealthy);
}

TEST_F(ShardIntegrationTest, AllWorkersDownReportsShardUnavailable)
{
    WorkerSpec dead;
    dead.host = "127.0.0.1";
    dead.port = 1;
    ServiceConfig config = coordinatorConfig({dead});
    config.shard.maxChunkAttempts = 2;
    Service coordinator(config);
    JsonValue v = parse(coordinator.handle(kSweepRequest));
    EXPECT_FALSE(v.getBool("ok", true));
    EXPECT_EQ(v.getString("code"), "shard_unavailable");
}

TEST_F(ShardIntegrationTest, SecondSweepServedFromCoordinatorCache)
{
    Service coordinator(
        coordinatorConfig({workerSpec(0), workerSpec(1)}));
    JsonValue first = parse(coordinator.handle(kSweepRequest));
    ASSERT_TRUE(first.getBool("ok", false));
    EXPECT_FALSE(first.getBool("cached", true));
    JsonValue second = parse(coordinator.handle(kSweepRequest));
    ASSERT_TRUE(second.getBool("ok", false));
    EXPECT_TRUE(second.getBool("cached", false));
    EXPECT_EQ(second.getString("digest"), first.getString("digest"));
}
