#include "src/util/file_io.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace lockdoc {
namespace {

std::string ErrnoText() { return std::string(strerror(errno)); }

// open() with EINTR retry.
int OpenRetry(const char* path, int flags, mode_t mode = 0) {
  int fd;
  do {
    fd = ::open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

void CloseQuietly(int fd) {
  // close() after a successful fsync: EINTR here means the descriptor state
  // is unspecified on some systems, but retrying a close risks closing a
  // reused fd. POSIX (and Linux) free the fd even on EINTR; do not retry.
  ::close(fd);
}

Status FsyncRetry(int fd, const std::string& name) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Status::Error(StrFormat("fsync %s: %s", name.c_str(), ErrnoText().c_str()));
  }
  return Status::Ok();
}

}  // namespace

Result<std::string> ReadFdToString(int fd, const std::string& name) {
  // The file size is only a hint: /proc files report 0, pipes have none,
  // and a growing file outruns it. Reads land directly in the string, sized
  // for the hint plus one chunk so a regular file reaches EOF without
  // regrowing; anything beyond grows the string as it comes.
  constexpr size_t kChunk = 1 << 16;
  size_t hint = 0;
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    hint = static_cast<size_t>(st.st_size);
  }
  std::string out;
  out.resize(hint + kChunk);
  size_t used = 0;
  while (true) {
    if (out.size() - used < kChunk) {
      out.resize(std::max(out.size() * 2, used + kChunk));
    }
    ssize_t n = ::read(fd, out.data() + used, out.size() - used);
    if (n < 0) {
      if (errno == EINTR) {
        continue;  // A signal mid-read is not damage.
      }
      return Status::Error(StrFormat("read %s: %s", name.c_str(), ErrnoText().c_str()));
    }
    if (n == 0) {
      out.resize(used);
      return out;
    }
    // Short reads are normal (pipes, NFS, signals): keep looping until EOF.
    used += static_cast<size_t>(n);
  }
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = OpenRetry(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Error(StrFormat("open %s: %s", path.c_str(), ErrnoText().c_str()));
  }
  auto result = ReadFdToString(fd, path);
  CloseQuietly(fd);
  return result;
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  int rc;
  do {
    rc = ::stat(path.c_str(), &st);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Status::Error(StrFormat("stat %s: %s", path.c_str(), ErrnoText().c_str()));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status WriteAllToFd(int fd, std::string_view bytes, const std::string& name) {
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Error(StrFormat("write %s: %s", name.c_str(), ErrnoText().c_str()));
    }
    written += static_cast<size_t>(n);  // Partial writes: keep going.
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  AtomicFileWriter writer;
  Status status = writer.Open(path);
  if (status.ok()) {
    status = writer.Append(bytes);
  }
  if (status.ok()) {
    status = writer.Commit();
  }
  return status;
}

Status AtomicFileWriter::Open(const std::string& path) {
  LOCKDOC_CHECK(fd_ < 0 && "AtomicFileWriter reused while open");
  std::filesystem::path target(path);
  dir_ = target.parent_path().empty() ? "." : target.parent_path().string();
  temp_ = dir_ + "/" + kAtomicTempPrefix + target.filename().string() + "." +
          std::to_string(static_cast<long long>(::getpid()));
  path_ = path;
  written_ = 0;
  hinted_ = 0;
  fd_ = OpenRetry(temp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    return Status::Error(StrFormat("open %s: %s", temp_.c_str(), ErrnoText().c_str()));
  }
  return Status::Ok();
}

Status AtomicFileWriter::Append(std::string_view bytes) {
  LOCKDOC_CHECK(fd_ >= 0 && "Append on a writer that is not open");
  Status status = WriteAllToFd(fd_, bytes, temp_);
  if (!status.ok()) {
    Abort();
    return status;
  }
  written_ += bytes.size();
  return Status::Ok();
}

void AtomicFileWriter::FlushHint() {
#ifdef __linux__
  if (fd_ >= 0 && written_ > hinted_) {
    // Kick off writeback for the freshly appended range so the Commit-time
    // fsync finds most pages already on their way to disk. Errors are
    // ignored on purpose: the fsync in Commit is the actual barrier.
    ::sync_file_range(fd_, static_cast<off64_t>(hinted_),
                      static_cast<off64_t>(written_ - hinted_), SYNC_FILE_RANGE_WRITE);
    hinted_ = written_;
  }
#endif
}

Status AtomicFileWriter::Commit() {
  LOCKDOC_CHECK(fd_ >= 0 && "Commit on a writer that is not open");
  Status status = FsyncRetry(fd_, temp_);
  CloseQuietly(fd_);
  fd_ = -1;
  if (!status.ok()) {
    ::unlink(temp_.c_str());
    return status;
  }
  status = RenameFile(temp_, path_);
  if (!status.ok()) {
    ::unlink(temp_.c_str());
    return status;
  }
  // The rename itself must reach disk, or a crash can forget the new name.
  return SyncDirectory(dir_);
}

void AtomicFileWriter::Abort() {
  if (fd_ >= 0) {
    CloseQuietly(fd_);
    fd_ = -1;
    ::unlink(temp_.c_str());
  }
}

Status RenameFile(const std::string& from, const std::string& to) {
  int rc;
  do {
    rc = ::rename(from.c_str(), to.c_str());
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Status::Error(StrFormat("rename %s -> %s: %s", from.c_str(), to.c_str(),
                                   ErrnoText().c_str()));
  }
  return Status::Ok();
}

Status RemoveFileIfExists(const std::string& path) {
  int rc;
  do {
    rc = ::unlink(path.c_str());
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != ENOENT) {
    return Status::Error(StrFormat("unlink %s: %s", path.c_str(), ErrnoText().c_str()));
  }
  return Status::Ok();
}

Status SyncDirectory(const std::string& dir) {
  int fd = OpenRetry(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Error(StrFormat("open dir %s: %s", dir.c_str(), ErrnoText().c_str()));
  }
  Status status = FsyncRetry(fd, dir);
  CloseQuietly(fd);
  return status;
}

}  // namespace lockdoc
