/**
 * @file
 * Implementation of the result store's write buffer.
 */

#include "store/write_buffer.hh"

#include "telemetry/metrics.hh"
#include "util/fs.hh"

namespace jcache::store
{

namespace
{

/** Armed-only count of appends that waited on a full buffer. */
void
countStall()
{
    if (!telemetry::armed())
        return;
    static telemetry::Counter& stalls =
        telemetry::Registry::instance().counter(
            "jcache_store_write_stalls_total",
            "Result-store puts that waited on a full write buffer");
    stalls.inc();
}

} // namespace

WriteBuffer::WriteBuffer(ResultStore& store)
    : store_(store), writer_([this] { drain(); })
{
}

WriteBuffer::~WriteBuffer()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_.notify_one();
    writer_.join();
}

void
WriteBuffer::append(std::string digest, std::string payload)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (puts_ >= kWriteBufferDepth) {
            countStall();
            space_.wait(lock,
                        [this] { return puts_ < kWriteBufferDepth; });
        }
        items_.push_back({std::move(digest), std::move(payload), {}});
        ++puts_;
    }
    work_.notify_one();
}

std::optional<std::string>
WriteBuffer::get(const std::string& digest)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = items_.rbegin(); it != items_.rend(); ++it) {
            if (!it->callback && it->digest == digest) {
                store_.countBufferedHit();
                return it->payload;
            }
        }
    }
    return store_.get(digest);
}

void
WriteBuffer::afterPending(std::function<void()> callback)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!items_.empty()) {
            items_.push_back({{}, {}, std::move(callback)});
            work_.notify_one();
            return;
        }
    }
    callback();
}

void
WriteBuffer::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_.wait(lock, [this] { return stopping_ || !items_.empty(); });
        if (items_.empty())
            return;
        // Appends only push at the back, which leaves a reference to
        // the front valid, so the item is run without the lock.
        Item& item = items_.front();
        lock.unlock();
        if (item.callback) {
            item.callback();
        } else {
            try {
                store_.put(item.digest, item.payload);
            } catch (const util::FsError&) {
                // Counted in the store's put_failures; the result was
                // answered and the memory cache holds it.
            }
        }
        lock.lock();
        bool was_put = !item.callback;
        items_.pop_front();
        if (was_put) {
            --puts_;
            space_.notify_one();
        }
    }
}

} // namespace jcache::store
