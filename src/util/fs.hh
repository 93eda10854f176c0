/**
 * @file
 * Crash-safe filesystem primitives.
 *
 * Every durable artifact in the system — saved traces, replay
 * caches and result-store blobs — follows the same write discipline:
 * write the full document to a temporary of its own beside the
 * target, flush and fsync it, then rename() it over the final path.
 * The visible file is therefore always a complete document; a crash
 * mid-write costs the update, never the previous version, and two
 * processes writing one path each rename a whole document.  This
 * header is the one implementation of that discipline.
 *
 * Torn writes are still a real failure mode (a disk that
 * acknowledges an fsync it did not perform, a kernel crash after the
 * rename but before the data reached media), so atomicWriteFile()
 * carries an optional fault site: when the site fires, only a prefix
 * of the data becomes visible under the final name — exactly the
 * on-disk state a reader must tolerate.  Readers detect the tear via
 * their own framing (checksums, counts); this layer only makes the
 * tear injectable.
 */

#ifndef JCACHE_UTIL_FS_HH
#define JCACHE_UTIL_FS_HH

#include <optional>
#include <string>

#include "util/logging.hh"

namespace jcache::util
{

/**
 * Thrown for any filesystem-level failure in this module: the target
 * directory cannot be created, the temporary file cannot be written
 * or fsynced, the rename fails.  A subtype of FatalError so existing
 * catch sites keep working.
 */
class FsError : public FatalError
{
  public:
    explicit FsError(const std::string& what) : FatalError(what) {}
};

/**
 * Atomically replace `path` with `data`.
 *
 * Writes a uniquely named temporary, `<path>.XXXXXX.tmp` (created
 * exclusively, mode 0644), flushes, fsyncs, then renames it over
 * `path` and best-effort fsyncs the parent directory, so the visible
 * file is always complete and the update is durable once the call
 * returns.  A failed call removes its temporary; a killed writer
 * leaves it behind for the directory's owner to sweep.
 *
 * @param path       final destination; its parent must exist.
 * @param data       full contents of the new file.
 * @param torn_site  optional fault site (see util/fault.hh): when it
 *                   fires, only the first half of `data` is written
 *                   and renamed into place — a deterministic torn
 *                   write for recovery tests.  Null disables.
 * @throws FsError when any step fails.
 */
void atomicWriteFile(const std::string& path, const std::string& data,
                     const char* torn_site = nullptr);

/**
 * Read a whole file into a string.  Returns nullopt when the file
 * does not exist or cannot be opened; throws FsError only on a read
 * error after a successful open.
 */
std::optional<std::string> readFileIfExists(const std::string& path);

/**
 * Create `dir` (and parents) if missing.  Throws FsError when the
 * path exists as a non-directory or creation fails.
 */
void ensureDirectory(const std::string& dir);

/**
 * RAII advisory whole-file lock (flock), for serializing mutations of
 * a directory shared between processes — several jcached workers
 * pointed at one `--store-dir` take the store's lock file around
 * puts, eviction and the open-time sweep of stale temporaries, so
 * concurrent evictors cannot both delete and double-count the same
 * blob, and no open deletes the temporary of a put in flight.
 *
 * Acquisition blocks until the peer releases.  Best effort by design:
 * if the lock file cannot be opened or flocked (exotic filesystem,
 * permissions), held() is false and the caller proceeds unlocked —
 * exactly the pre-lock single-process behavior, never a wedge.
 */
class FileLock
{
  public:
    /** An empty lock (held() == false). */
    FileLock() = default;

    /** Open (creating if needed) `path` and take an exclusive flock. */
    explicit FileLock(const std::string& path);

    /** Releases the lock and closes the file. */
    ~FileLock();

    FileLock(FileLock&& other) noexcept;
    FileLock& operator=(FileLock&& other) noexcept;
    FileLock(const FileLock&) = delete;
    FileLock& operator=(const FileLock&) = delete;

    /** True when the exclusive lock was actually acquired. */
    bool held() const { return fd_ >= 0; }

    /** Release early, before destruction. */
    void release();

  private:
    int fd_ = -1;
};

} // namespace jcache::util

#endif // JCACHE_UTIL_FS_HH
