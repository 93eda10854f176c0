/**
 * @file
 * Implementation of the epoll reactor.
 */

#include "net/reactor.hh"

#include <cstdint>
#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>
#include <utility>

namespace jcache::net
{

namespace
{

/** Most ready fds one runOnce() dispatches. */
constexpr int kMaxEvents = 64;

/** The epoll registration of `fd` for the kReadable/kWritable bits. */
epoll_event
makeEvent(int fd, unsigned interest)
{
    epoll_event ev = {};
    ev.data.fd = fd;
    if (interest & kReadable)
        ev.events |= EPOLLIN;
    if (interest & kWritable)
        ev.events |= EPOLLOUT;
    return ev;
}

/** An epoll event mask as kReadable/kWritable/kHangup bits. */
unsigned
readiness(std::uint32_t epoll_events)
{
    unsigned events = 0;
    if (epoll_events & (EPOLLIN | EPOLLRDHUP))
        events |= kReadable;
    if (epoll_events & EPOLLOUT)
        events |= kWritable;
    if (epoll_events & (EPOLLERR | EPOLLHUP))
        events |= kHangup;
    return events;
}

} // namespace

Reactor::Reactor() : epfd_(::epoll_create1(EPOLL_CLOEXEC))
{
    int fds[2];
    if (::pipe(fds) != 0)
        return;
    wakeRead_ = fds[0];
    wakeWrite_ = fds[1];
    ::fcntl(wakeRead_, F_SETFL, O_NONBLOCK);
    ::fcntl(wakeWrite_, F_SETFL, O_NONBLOCK);
    // The wake pipe drains inline, not through callbacks_.
    epoll_event ev = makeEvent(wakeRead_, kReadable);
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakeRead_, &ev);
}

Reactor::~Reactor()
{
    if (epfd_ >= 0)
        ::close(epfd_);
    if (wakeRead_ >= 0)
        ::close(wakeRead_);
    if (wakeWrite_ >= 0)
        ::close(wakeWrite_);
}

bool
Reactor::valid() const
{
    return epfd_ >= 0 && wakeRead_ >= 0;
}

bool
Reactor::add(int fd, unsigned interest, Callback callback)
{
    epoll_event ev = makeEvent(fd, interest);
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
        return false;
    callbacks_[fd] = std::move(callback);
    return true;
}

bool
Reactor::setInterest(int fd, unsigned interest)
{
    epoll_event ev = makeEvent(fd, interest);
    return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void
Reactor::remove(int fd)
{
    epoll_event ev = {};
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
    callbacks_.erase(fd);
}

void
Reactor::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(postedMutex_);
        posted_.push_back(std::move(task));
    }
    if (wakeWrite_ >= 0) {
        char byte = 1;
        // Best effort: a full pipe already guarantees a wakeup.
        [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &byte, 1);
    }
}

void
Reactor::drainPosted()
{
    std::vector<std::function<void()>> tasks;
    {
        std::lock_guard<std::mutex> lock(postedMutex_);
        tasks.swap(posted_);
    }
    for (auto& task : tasks)
        task();
}

std::size_t
Reactor::runOnce(int timeout_millis)
{
    drainPosted();
    epoll_event ready[kMaxEvents];
    int n = ::epoll_wait(epfd_, ready, kMaxEvents, timeout_millis);
    std::size_t dispatched = 0;
    for (int i = 0; i < n; ++i) {
        int fd = ready[i].data.fd;
        if (fd == wakeRead_) {
            char buf[256];
            while (::read(wakeRead_, buf, sizeof(buf)) > 0) {
            }
            continue;
        }
        // Look up per event: an earlier callback in this batch may
        // have removed (or replaced) this fd.
        auto it = callbacks_.find(fd);
        if (it == callbacks_.end())
            continue;
        Callback cb = it->second;
        cb(readiness(ready[i].events));
        ++dispatched;
    }
    drainPosted();
    return dispatched;
}

} // namespace jcache::net
