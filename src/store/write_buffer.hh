/**
 * @file
 * The write buffer in front of the persistent result store.
 *
 * A ResultStore put is write-through to disk: a blob write, two
 * fsyncs and a rename.  Jouppi's write-through caches stall the
 * processor on every write unless a write buffer takes the write and
 * retires it later; jcached does the same with its results.  A
 * scheduler thread appends a computed payload here and answers at
 * once, and one writer thread retires the buffered puts in FIFO order
 * through ResultStore::put().
 *
 *  - **Lookups see pending puts.**  get() answers a buffered key with
 *    the buffered bytes and counts a store hit, so the store's
 *    counters read as if the put had been synchronous; other keys go
 *    to the store.  An entry leaves the buffer only after its put
 *    returns, so every key is always in the buffer or in the store.
 *  - **The depth is fixed** at kWriteBufferDepth payloads.  append()
 *    on a full buffer waits for the writer, as a processor stalls on
 *    a full write buffer, and counts the stall in
 *    `jcache_store_write_stalls_total`.
 *  - **Callbacks queue behind the puts.**  afterPending() runs its
 *    callback once every put buffered before it has returned:
 *    jcached answers `stats` that way, so the store block it reports
 *    includes every result already answered.
 *  - **Destruction drains:** every buffered put and callback runs
 *    before the destructor returns.  A kill loses the puts still
 *    buffered; each result is recomputed on demand.
 *  - **Put failures stay inside:** ResultStore::put() counts them in
 *    StoreStats::putFailures, and the writer swallows its FsError.
 */

#ifndef JCACHE_STORE_WRITE_BUFFER_HH
#define JCACHE_STORE_WRITE_BUFFER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "store/store.hh"

namespace jcache::store
{

/** Puts a WriteBuffer holds, the one in flight included. */
inline constexpr std::size_t kWriteBufferDepth = 16;

/** A bounded FIFO of puts into one ResultStore, retired by a thread. */
class WriteBuffer
{
  public:
    /** Start the writer thread; `store` must outlive the buffer. */
    explicit WriteBuffer(ResultStore& store);

    /** Run every buffered put and callback, then join the writer. */
    ~WriteBuffer();

    WriteBuffer(const WriteBuffer&) = delete;
    WriteBuffer& operator=(const WriteBuffer&) = delete;

    /**
     * Buffer a put of `payload` under `digest` and return.  Waits
     * while kWriteBufferDepth puts are buffered.
     */
    void append(std::string digest, std::string payload);

    /**
     * Look `digest` up in the buffer, newest put first, then in the
     * store.  A buffered hit counts as a store hit.
     */
    std::optional<std::string> get(const std::string& digest);

    /**
     * Run `callback` once every put buffered now has returned: on the
     * caller's thread, before this returns, when the buffer is empty;
     * else on the writer thread, after the puts ahead of it.
     */
    void afterPending(std::function<void()> callback);

  private:
    /** One buffered put, or a callback when `callback` is set. */
    struct Item
    {
        std::string digest;
        std::string payload;
        std::function<void()> callback;
    };

    /** The writer thread: retire items in order until stopped and empty. */
    void drain();

    ResultStore& store_;

    std::mutex mutex_;

    /** Signals the writer: an item arrived, or stopping_ was set. */
    std::condition_variable work_;

    /** Signals appenders: a put left the buffer. */
    std::condition_variable space_;

    /** Oldest first; the front stays here while the writer runs it. */
    std::deque<Item> items_;

    /** Puts among items_, for the depth bound. */
    std::size_t puts_ = 0;

    bool stopping_ = false;
    std::thread writer_;
};

} // namespace jcache::store

#endif // JCACHE_STORE_WRITE_BUFFER_HH
