#include "durable/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/logging.h"
#include "stream/batch_codec.h"

namespace freeway {

namespace fs = std::filesystem;

namespace {

/// A payload above this is corruption, not data — the wire protocol's
/// frame bound, since every logged record arrived in one frame.
constexpr uint32_t kMaxPayload = 64u << 20;

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// RAII fd so every error path below can early-return without leaking.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

Status WriteAll(int fd, std::span<const char> data, const std::string& path) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write failed for", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) return ErrnoError("fsync failed for", path);
  return Status::OK();
}

Status FsyncParentDirectory(const std::string& path) {
  std::string dir = fs::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  ScopedFd fd(::open(dir.c_str(), O_RDONLY));
  if (fd.get() < 0) return ErrnoError("cannot open for fsync", dir);
  return FsyncFd(fd.get(), dir);
}

Status WriteTmp(const std::string& tmp_path,
                std::initializer_list<std::span<const char>> parts,
                bool fsync) {
  ScopedFd fd(::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
  if (fd.get() < 0) return ErrnoError("cannot create", tmp_path);
  for (std::span<const char> part : parts) {
    RETURN_IF_ERROR(WriteAll(fd.get(), part, tmp_path));
  }
  if (fsync) RETURN_IF_ERROR(FsyncFd(fd.get(), tmp_path));
  return Status::OK();
}

}  // namespace

Status AtomicFile::Write(const std::string& path,
                         std::initializer_list<std::span<const char>> parts,
                         bool fsync) {
  const std::string tmp_path = path + ".tmp";
  Status written = WriteTmp(tmp_path, parts, fsync);
  std::error_code ec;
  if (written.ok()) {
    fs::rename(tmp_path, path, ec);
    if (ec) {
      written = Status::IoError("rename " + tmp_path + " to " + path +
                                " failed: " + ec.message());
    }
  }
  if (!written.ok()) {
    fs::remove(tmp_path, ec);
    return written;
  }
  if (fsync) RETURN_IF_ERROR(FsyncParentDirectory(path));
  return Status::OK();
}

Result<std::vector<char>> AtomicFile::Read(const std::string& path) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file " + path);
    return ErrnoError("cannot open", path);
  }
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) return ErrnoError("cannot stat", path);
  std::vector<char> bytes(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd.get(), bytes.data() + got, bytes.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("read failed for", path);
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  bytes.resize(got);
  return bytes;
}

Result<RecordScan> RecordFile::Scan(const std::string& path,
                                    size_t header_bytes) {
  RecordScan scan;
  ASSIGN_OR_RETURN(scan.bytes, AtomicFile::Read(path));
  const std::vector<char>& bytes = scan.bytes;
  if (bytes.size() < header_bytes) {
    scan.valid_end = bytes.size();
    return scan;
  }
  size_t pos = header_bytes;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameBytes) {
      scan.torn = Status::InvalidArgument("truncated record header in " + path);
      break;
    }
    uint32_t size = 0;
    uint32_t crc = 0;
    std::memcpy(&size, bytes.data() + pos, 4);
    std::memcpy(&crc, bytes.data() + pos + 4, 4);
    if (size == 0 || size > kMaxPayload) {
      scan.torn = Status::InvalidArgument("record size " +
                                          std::to_string(size) +
                                          " out of range in " + path);
      break;
    }
    if (bytes.size() - pos - kFrameBytes < size) {
      scan.torn = Status::InvalidArgument("truncated record payload in " + path);
      break;
    }
    const char* payload = bytes.data() + pos + kFrameBytes;
    if (Crc32(payload, size) != crc) {
      scan.torn = Status::InvalidArgument("record CRC mismatch in " + path);
      break;
    }
    scan.payloads.emplace_back(payload, size);
    pos += kFrameBytes + size;
  }
  scan.valid_end = pos;
  return scan;
}

void RecordFile::Frame(std::span<const char> payload, std::vector<char>* out) {
  const uint32_t size = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  char frame[kFrameBytes];
  std::memcpy(frame, &size, 4);
  std::memcpy(frame + 4, &crc, 4);
  out->insert(out->end(), frame, frame + kFrameBytes);
  out->insert(out->end(), payload.begin(), payload.end());
}

RecordFile::~RecordFile() { Close(); }

Status RecordFile::Open(const std::string& path) {
  Close();
  ScopedFd fd(::open(path.c_str(), O_WRONLY | O_APPEND));
  if (fd.get() < 0) return ErrnoError("cannot open for append", path);
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) return ErrnoError("cannot stat", path);
  fd_ = fd.Release();
  path_ = path;
  size_ = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

void RecordFile::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status RecordFile::Append(std::span<const char> payload, bool fsync) {
  if (fd_ < 0) return Status::FailedPrecondition("record file is closed");
  std::vector<char> record;
  record.reserve(kFrameBytes + payload.size());
  Frame(payload, &record);
  Status written = WriteAll(fd_, record, path_);
  if (written.ok() && fsync) written = FsyncFd(fd_, path_);
  if (!written.ok()) {
    // Roll the partial record back so the file stays parseable. When that
    // fails too, the next Open() truncates the torn tail, but nothing may
    // be appended past it meanwhile.
    if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      FREEWAY_LOG(kError) << "append and rollback both failed for " << path_
                          << "; file closed: " << written;
      Close();
    }
    return written;
  }
  size_ += record.size();
  return Status::OK();
}

Status RecordFile::Truncate(uint64_t offset) {
  if (fd_ < 0) return Status::FailedPrecondition("record file is closed");
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
    return ErrnoError("cannot truncate", path_);
  }
  size_ = offset;
  return Status::OK();
}

Status RecordFile::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("record file is closed");
  return FsyncFd(fd_, path_);
}

}  // namespace freeway
