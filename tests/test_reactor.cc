/**
 * @file
 * Tests for the readiness event loop (net/reactor.hh): fd
 * registration and dispatch, interest changes, cross-thread post()
 * wakeup, hangups, and removal from inside a callback.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/reactor.hh"
#include "net/socket.hh"

using namespace jcache::net;

namespace
{

/** A connected local socket pair to drive readiness with. */
std::pair<Socket, Socket>
makePair()
{
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    return {Socket(fds[0]), Socket(fds[1])};
}

} // namespace

TEST(Reactor, DispatchesReadableFd)
{
    Reactor reactor;
    ASSERT_TRUE(reactor.valid());
    auto [a, b] = makePair();

    unsigned seen = 0;
    int dispatches = 0;
    ASSERT_TRUE(reactor.add(b.fd(), kReadable, [&](unsigned events) {
        seen = events;
        ++dispatches;
    }));

    // Nothing pending: a short wait dispatches nothing.
    EXPECT_EQ(reactor.runOnce(10), 0u);
    EXPECT_EQ(dispatches, 0);

    ASSERT_TRUE(a.writeAll("x", 1).ok());
    EXPECT_GE(reactor.runOnce(1000), 1u);
    EXPECT_EQ(dispatches, 1);
    EXPECT_TRUE(seen & kReadable);
}

TEST(Reactor, SetInterestMasksReadiness)
{
    Reactor reactor;
    ASSERT_TRUE(reactor.valid());
    auto [a, b] = makePair();

    int dispatches = 0;
    ASSERT_TRUE(reactor.add(b.fd(), kReadable,
                            [&](unsigned) { ++dispatches; }));
    ASSERT_TRUE(a.writeAll("x", 1).ok());

    // Drop read interest: the pending byte must not dispatch.
    ASSERT_TRUE(reactor.setInterest(b.fd(), 0));
    reactor.runOnce(20);
    EXPECT_EQ(dispatches, 0);

    // Restore it: now it does.
    ASSERT_TRUE(reactor.setInterest(b.fd(), kReadable));
    reactor.runOnce(1000);
    EXPECT_EQ(dispatches, 1);
}

TEST(Reactor, WritableInterestFiresImmediately)
{
    Reactor reactor;
    ASSERT_TRUE(reactor.valid());
    auto [a, b] = makePair();
    (void)a;

    unsigned seen = 0;
    ASSERT_TRUE(reactor.add(b.fd(), kWritable,
                            [&](unsigned events) { seen = events; }));
    // An idle socket's send buffer has room, so this is level-
    // triggered instant readiness.
    EXPECT_GE(reactor.runOnce(1000), 1u);
    EXPECT_TRUE(seen & kWritable);
}

TEST(Reactor, RemoveStopsDispatch)
{
    Reactor reactor;
    ASSERT_TRUE(reactor.valid());
    auto [a, b] = makePair();

    int dispatches = 0;
    ASSERT_TRUE(reactor.add(b.fd(), kReadable,
                            [&](unsigned) { ++dispatches; }));
    ASSERT_TRUE(a.writeAll("x", 1).ok());
    reactor.remove(b.fd());
    reactor.runOnce(20);
    EXPECT_EQ(dispatches, 0);
}

TEST(Reactor, RemoveInsideOwnCallbackIsSafe)
{
    Reactor reactor;
    ASSERT_TRUE(reactor.valid());
    auto [a, b] = makePair();

    int dispatches = 0;
    ASSERT_TRUE(reactor.add(b.fd(), kReadable, [&](unsigned) {
        ++dispatches;
        reactor.remove(b.fd());
    }));
    ASSERT_TRUE(a.writeAll("xy", 2).ok());
    reactor.runOnce(1000);
    // The byte is still unread, but the fd is gone: no redispatch.
    reactor.runOnce(20);
    EXPECT_EQ(dispatches, 1);
}

TEST(Reactor, PostRunsOnLoopIteration)
{
    Reactor reactor;
    ASSERT_TRUE(reactor.valid());
    int ran = 0;
    reactor.post([&] { ++ran; });
    reactor.post([&] { ++ran; });
    reactor.runOnce(0);
    EXPECT_EQ(ran, 2);
}

TEST(Reactor, PostFromAnotherThreadWakesWait)
{
    Reactor reactor;
    ASSERT_TRUE(reactor.valid());
    int ran = 0;
    std::thread poster([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        reactor.post([&] { ++ran; });
    });
    // Without the self-pipe wakeup this blocks the full 10 seconds
    // and the test times out; with it, the post lands promptly.
    auto start = std::chrono::steady_clock::now();
    while (ran == 0 &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(10))
        reactor.runOnce(10000);
    poster.join();
    EXPECT_EQ(ran, 1);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
}

TEST(Reactor, HangupReported)
{
    Reactor reactor;
    ASSERT_TRUE(reactor.valid());
    auto [a, b] = makePair();

    unsigned seen = 0;
    ASSERT_TRUE(reactor.add(b.fd(), kReadable,
                            [&](unsigned events) { seen |= events; }));
    a.close();
    reactor.runOnce(1000);
    // Peer closure surfaces as readable EOF and/or an explicit
    // hangup bit; either is actionable.
    EXPECT_TRUE(seen & (kReadable | kHangup));
}

TEST(Reactor, ManyFdsDispatchIndependently)
{
    Reactor reactor;
    ASSERT_TRUE(reactor.valid());

    constexpr int kPairs = 8;
    std::vector<std::pair<Socket, Socket>> pairs;
    std::vector<int> hits(kPairs, 0);
    for (int i = 0; i < kPairs; ++i) {
        pairs.push_back(makePair());
        ASSERT_TRUE(reactor.add(pairs[i].second.fd(), kReadable,
                                [&hits, i](unsigned) { ++hits[i]; }));
    }
    // Make only the even-numbered sockets readable.
    for (int i = 0; i < kPairs; i += 2)
        ASSERT_TRUE(pairs[i].first.writeAll("x", 1).ok());

    std::size_t dispatched = 0;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(5);
    while (dispatched < kPairs / 2 &&
           std::chrono::steady_clock::now() < deadline)
        dispatched += reactor.runOnce(100);
    for (int i = 0; i < kPairs; ++i)
        EXPECT_EQ(hits[i], i % 2 == 0 ? 1 : 0) << "pair " << i;
}
