/**
 * @file
 * Implementation of the crash-safe filesystem primitives.
 */

#include "util/fs.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/fault.hh"

namespace jcache::util
{

namespace
{

[[noreturn]] void
fail(const std::string& what, const std::string& path)
{
    throw FsError(what + ": " + path + " (" +
                  std::strerror(errno) + ")");
}

/**
 * Give the temporary `fd` the mode a plain open would, then write,
 * fsync and close it; throws FsError, with `fd` closed.
 */
void
writeAndSync(int fd, const std::string& path, const char* data,
             std::size_t size)
{
    auto fail_closing = [&](const char* what) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        fail(what, path);
    };
    if (::fchmod(fd, 0644) != 0)
        fail_closing("chmod failed");
    std::size_t written = 0;
    while (written < size) {
        ssize_t n = ::write(fd, data + written, size - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail_closing("write failed");
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0)
        fail_closing("fsync failed");
    if (::close(fd) != 0)
        fail("close failed", path);
}

/** fsync the directory containing `path`, best effort. */
void
syncParentDir(const std::string& path)
{
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        parent = ".";
    int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return; // not fatal: the rename itself already happened
    ::fsync(fd);
    ::close(fd);
}

} // namespace

void
atomicWriteFile(const std::string& path, const std::string& data,
                const char* torn_site)
{
    std::size_t bytes = data.size();
    if (torn_site != nullptr && JCACHE_FAULT(torn_site)) {
        // Deterministic torn write: half the document becomes
        // visible under the final name, as if the medium lost the
        // tail after an acknowledged flush.  Readers must treat the
        // result as corrupt, never as a short-but-valid document.
        bytes /= 2;
    }
    // A temporary of its own, created exclusively: concurrent writers
    // of one path never truncate or rename each other's file.
    std::string tmp = path + ".XXXXXX.tmp";
    int fd = ::mkstemps(tmp.data(), 4);
    if (fd < 0)
        fail("cannot create temporary", tmp);
    try {
        writeAndSync(fd, tmp, data.data(), bytes);
    } catch (const FsError&) {
        std::remove(tmp.c_str());
        throw;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int saved = errno;
        std::remove(tmp.c_str());
        errno = saved;
        fail("rename failed", tmp + " -> " + path);
    }
    syncParentDir(path);
}

std::optional<std::string>
readFileIfExists(const std::string& path)
{
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << ifs.rdbuf();
    if (ifs.bad())
        throw FsError("read failed: " + path);
    return buffer.str();
}

void
ensureDirectory(const std::string& dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        throw FsError("cannot create directory: " + dir + " (" +
                      ec.message() + ")");
    }
    if (!std::filesystem::is_directory(dir))
        throw FsError("not a directory: " + dir);
}

FileLock::FileLock(const std::string& path)
{
    int fd =
        ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0)
        return;
    int rc;
    do {
        rc = ::flock(fd, LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        ::close(fd);
        return;
    }
    fd_ = fd;
}

FileLock::~FileLock()
{
    release();
}

FileLock::FileLock(FileLock&& other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

FileLock&
FileLock::operator=(FileLock&& other) noexcept
{
    if (this != &other) {
        release();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
FileLock::release()
{
    if (fd_ >= 0) {
        ::flock(fd_, LOCK_UN);
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace jcache::util
