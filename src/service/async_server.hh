/**
 * @file
 * The jcached TCP front end.
 *
 * AsyncServer runs on a single event-loop thread: every connection is
 * a nonblocking socket registered with a net::Reactor, reads feed a
 * per-connection FrameDecoder, and each decoded frame is dispatched
 * through Service::handleAsync() without ever blocking the loop.
 * Requests on one connection may therefore be *pipelined* — the
 * client sends several frames back to back — and responses are
 * written back in request order via a per-connection slot queue,
 * whatever order the scheduler completes them in.
 *
 * handleAsync() routes run/sweep/batch/upload through the service's
 * bounded queue and admission controller, so the overload contract
 * (busy + retry_after_ms, CoDel shed, deadline_exceeded) is the same
 * as for in-process Service::handle() callers.  Completions hop back
 * to the loop thread through Reactor::post().
 *
 * A misbehaving client costs only its own connection: an oversized or
 * truncated frame is answered best-effort (after any in-flight
 * responses, preserving order) and closes only that connection.
 * Shutdown — requestStop() or an in-band `shutdown` request — stops
 * accepting, answers frames already received, and drains within a
 * bounded grace period.
 */

#ifndef JCACHE_SERVICE_ASYNC_SERVER_HH
#define JCACHE_SERVICE_ASYNC_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/frame.hh"
#include "net/reactor.hh"
#include "net/socket.hh"
#include "service/service.hh"

namespace jcache::service
{

/** Tunables of one AsyncServer instance. */
struct AsyncServerConfig
{
    /** Loopback port to bind; 0 picks an ephemeral port. */
    std::uint16_t port = 7421;

    /**
     * Connection idle timeout in milliseconds: a connection with no
     * in-flight requests and no traffic for this long is closed.
     * Time spent waiting on a queued job never counts as idle.
     */
    unsigned connectionTimeoutMillis = 30000;

    /**
     * Maximum decoded-but-unanswered requests per connection.  When a
     * client pipelines past this, the server stops reading from that
     * connection (TCP backpressure) until responses flush — requests
     * are never dropped, only deferred.
     */
    unsigned maxPipelinedRequests = 128;

    ServiceConfig service;
};

/**
 * Event-loop accept/read/write machinery around a Service.
 */
class AsyncServer
{
  public:
    explicit AsyncServer(const AsyncServerConfig& config);
    ~AsyncServer();

    AsyncServer(const AsyncServer&) = delete;
    AsyncServer& operator=(const AsyncServer&) = delete;

    /**
     * Bind the listener.  Returns false (and sets `error` when
     * non-null) if the port is unavailable or the event loop could
     * not be set up.
     */
    bool start(std::string* error = nullptr);

    /** The bound port; meaningful after start(). */
    std::uint16_t port() const { return listener_.port(); }

    /**
     * Run the event loop until stopped.  Returns after in-flight
     * connections have drained or the grace period expires.
     */
    void serve();

    /**
     * Stop accepting and begin draining.  Async-signal-safe: only
     * stores to an atomic flag; the loop notices within one tick.
     */
    void requestStop() { stop_.store(true); }

    /** The request router (for tests and in-process callers). */
    Service& service() { return service_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One pipelined request awaiting its in-order response. */
    struct Slot
    {
        std::uint64_t seq = 0;
        bool done = false;
        std::string response;
    };

    /** Per-connection state owned by the loop thread. */
    struct Connection
    {
        net::Socket socket;
        std::uint64_t id = 0;
        net::FrameDecoder decoder;
        std::string outbuf;          //!< encoded frames awaiting write
        std::size_t outpos = 0;      //!< written prefix of outbuf
        std::deque<Slot> slots;      //!< responses owed, request order
        std::uint64_t nextSeq = 0;
        unsigned interest = 0;       //!< bits registered with reactor
        bool peerClosed = false;     //!< EOF seen; flush then close
        bool violated = false;       //!< protocol violation; no reads
        Clock::time_point lastActivity;
    };

    void onAccept();
    void onEvent(std::uint64_t id, unsigned events);
    bool handleReadable(Connection& conn);
    bool drainFrames(Connection& conn);
    void dispatch(Connection& conn, const std::string& payload);
    void onResponse(std::uint64_t id, std::uint64_t seq,
                    std::string response);
    void violation(Connection& conn, net::FrameStatus status);
    bool flushConnection(Connection& conn);
    bool writeOut(Connection& conn);
    void updateInterest(Connection& conn);
    void destroy(std::uint64_t id);
    void tick(Clock::time_point now);

    AsyncServerConfig config_;
    net::Reactor reactor_;
    net::Listener listener_;
    std::atomic<bool> stop_{false};
    bool draining_ = false;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
        connections_;
    std::uint64_t next_id_ = 0;

    // Declared last so it is destroyed first: the Service destructor
    // drains the scheduler, whose completion callbacks post to the
    // reactor — which must therefore outlive it.
    Service service_;
};

} // namespace jcache::service

#endif // JCACHE_SERVICE_ASYNC_SERVER_HH
