#ifndef FREEWAYML_DURABLE_DURABLE_FILE_H_
#define FREEWAYML_DURABLE_DURABLE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace freeway {

/// Whole-file writes that a crash can never leave half done, and the
/// matching whole-file read. Used for files rewritten as a unit: checkpoint
/// versions, raft hard state, and the first bytes of every log file.
class AtomicFile {
 public:
  /// Replaces `path` with the concatenation of `parts`. The bytes go to
  /// `<path>.tmp`, which is fsynced when `fsync` is set and then renamed
  /// over `path`; the directory is fsynced after the rename when `fsync`
  /// is set. A reader sees the old file or the whole new one, never a
  /// prefix. The `.tmp` is removed on every failure.
  static Status Write(const std::string& path,
                      std::initializer_list<std::span<const char>> parts,
                      bool fsync);

  /// Reads the whole file. kNotFound when it does not exist. A file that
  /// shrinks while being read yields the prefix that was there.
  static Result<std::vector<char>> Read(const std::string& path);
};

/// What one pass over a record file found.
struct RecordScan {
  /// The whole file as read.
  std::vector<char> bytes;
  /// Every intact record's payload, in file order (views into `bytes`).
  std::vector<std::span<const char>> payloads;
  /// Byte offset just past the last intact record; below bytes.size() only
  /// when the scan stopped early.
  size_t valid_end = 0;
  /// Why the scan stopped before the end of the file. OK when every byte
  /// after the header parsed as a record.
  Status torn = Status::OK();
};

/// An append-only file of CRC-framed records after a caller-owned header:
///
///   <header: the caller's magic, version and fields>
///   u32 payload size | u32 payload CRC-32 | payload      (per record)
///
/// This class owns the framing and the torn-tail rule. A scan stops at the
/// first record that is cut short (frame header or payload past end of
/// file), has a zero or over-64-MiB size, or fails its CRC; everything
/// from there on is a torn tail that a crash mid-append can explain. A
/// record that passes the CRC but that the caller cannot decode is
/// corruption, which no tear explains: callers fail instead of truncating.
///
/// Appends go out as one write() of the framed record plus, when asked,
/// one fsync(); a failed write or fsync is rolled back with ftruncate so
/// the file stays parseable. If the rollback fails too, the file is closed
/// and further appends fail. Not internally synchronized.
class RecordFile {
 public:
  static constexpr size_t kFrameBytes = 8;

  /// Reads `path` and validates its records, which start at byte
  /// `header_bytes`. A file shorter than its header holds no records; the
  /// caller checks its own header from `bytes`.
  static Result<RecordScan> Scan(const std::string& path, size_t header_bytes);

  /// Appends the framed record for `payload` to `out`.
  static void Frame(std::span<const char> payload, std::vector<char>* out);

  RecordFile() = default;
  ~RecordFile();
  RecordFile(const RecordFile&) = delete;
  RecordFile& operator=(const RecordFile&) = delete;

  /// Opens the existing `path` for appending at its current end, closing
  /// any file held before.
  Status Open(const std::string& path);
  void Close();

  Status Append(std::span<const char> payload, bool fsync);
  /// Cuts the file to `offset` bytes; the next append lands there.
  Status Truncate(uint64_t offset);
  Status Sync();

  bool is_open() const { return fd_ >= 0; }
  /// Current file length, i.e. where the next record starts.
  uint64_t size() const { return size_; }

 private:
  int fd_ = -1;
  std::string path_;
  uint64_t size_ = 0;
};

}  // namespace freeway

#endif  // FREEWAYML_DURABLE_DURABLE_FILE_H_
