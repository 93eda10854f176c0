/**
 * @file
 * Readiness-driven event loop over epoll.
 *
 * The reactor multiplexes every jcached connection onto one thread:
 * file descriptors register a callback and a read/write interest set,
 * runOnce() waits for readiness and dispatches, and post() hands a
 * closure from any thread to the loop thread (a self-pipe wakes the
 * wait, so cross-thread completions land within the same iteration
 * rather than after the next timeout).
 *
 * Readiness is level-triggered: an fd that stays readable or
 * writable is dispatched again on every iteration until its interest
 * bits change.  Interest lives in the kernel (epoll_ctl), so a wait
 * costs O(ready fds), not O(registered fds).
 */

#ifndef JCACHE_NET_REACTOR_HH
#define JCACHE_NET_REACTOR_HH

#include <cstddef>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace jcache::net
{

/** Readiness interest / event bits (combinable). */
enum : unsigned
{
    kReadable = 1u,  //!< fd has bytes to read (or a pending accept)
    kWritable = 2u,  //!< fd's send buffer has room
    kHangup = 4u,    //!< error or peer hangup (always monitored)
};

/**
 * The event loop: fd callbacks plus a cross-thread task queue.
 *
 * Not thread-safe except where noted — add/setInterest/remove and
 * runOnce() belong to the loop thread; post() may be called from
 * anywhere.
 */
class Reactor
{
  public:
    /** Invoked with the ready event bits for the registered fd. */
    using Callback = std::function<void(unsigned events)>;

    Reactor();
    ~Reactor();

    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    /** False when epoll or the wakeup pipe could not be set up. */
    bool valid() const;

    /** Register `fd` with interest bits and a dispatch callback. */
    bool add(int fd, unsigned interest, Callback callback);

    /** Change the interest bits for a registered fd. */
    bool setInterest(int fd, unsigned interest);

    /** Unregister `fd` (safe to call from inside its own callback). */
    void remove(int fd);

    /**
     * Queue `task` for execution on the loop thread and wake the
     * current wait.  Thread-safe; the delivery path for completion
     * callbacks from the scheduler thread.
     */
    void post(std::function<void()> task);

    /**
     * One iteration: drain posted tasks, wait up to `timeout_millis`
     * for readiness, dispatch callbacks.  Returns the number of fd
     * events dispatched.
     */
    std::size_t runOnce(int timeout_millis);

  private:
    void drainPosted();

    int epfd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::unordered_map<int, Callback> callbacks_;
    std::mutex postedMutex_;
    std::vector<std::function<void()>> posted_;
};

} // namespace jcache::net

#endif // JCACHE_NET_REACTOR_HH
