#include "replication/raft_storage.h"

#include <cstring>
#include <filesystem>

#include "common/logging.h"
#include "durable/durable_file.h"
#include "fault/failpoint.h"
#include "stream/batch_codec.h"

namespace freeway {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kStateMagic = 0x53525746;  // 'FWRS'
constexpr uint32_t kLogMagic = 0x4C525746;    // 'FWRL'
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kStateBytes = 28;
constexpr size_t kLogHeaderBytes = 8;

/// Entry payload section tag.
constexpr uint32_t kTagEntry = 0x544E4552;  // 'RENT'

void AppendU32(std::vector<char>* out, uint32_t v) {
  out->insert(out->end(), reinterpret_cast<const char*>(&v),
              reinterpret_cast<const char*>(&v) + sizeof(v));
}

void AppendU64(std::vector<char>* out, uint64_t v) {
  out->insert(out->end(), reinterpret_cast<const char*>(&v),
              reinterpret_cast<const char*>(&v) + sizeof(v));
}

std::vector<char> EncodeEntryPayload(const RaftEntry& entry) {
  SnapshotWriter writer;
  writer.WriteSection(kTagEntry);
  writer.WriteU64(entry.index);
  writer.WriteU64(entry.term);
  writer.WriteBlob(entry.command);
  return writer.Take();
}

Status DecodeEntryPayload(std::span<const char> payload, RaftEntry* entry) {
  SnapshotReader reader(payload);
  RETURN_IF_ERROR(reader.ExpectSection(kTagEntry));
  RETURN_IF_ERROR(reader.ReadU64(&entry->index));
  RETURN_IF_ERROR(reader.ReadU64(&entry->term));
  RETURN_IF_ERROR(reader.ReadBlob(&entry->command));
  return reader.ExpectEnd();
}

}  // namespace

DurableRaftStorage::DurableRaftStorage(DurableRaftStorageOptions options)
    : options_(std::move(options)) {}

Status DurableRaftStorage::Open() {
  if (opened_) {
    return Status::FailedPrecondition("raft storage already opened");
  }
  if (options_.directory.empty()) {
    return Status::InvalidArgument("raft storage directory not set");
  }
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    return Status::IoError("raft: cannot create directory " +
                           options_.directory + ": " + ec.message());
  }
  RETURN_IF_ERROR(LoadHardState());
  RETURN_IF_ERROR(LoadLog());
  opened_ = true;
  return Status::OK();
}

Status DurableRaftStorage::LoadHardState() {
  const std::string path =
      (fs::path(options_.directory) / "raft-state.dat").string();
  Result<std::vector<char>> read = AtomicFile::Read(path);
  if (read.status().code() == StatusCode::kNotFound) {
    term_ = 0;
    voted_for_ = 0;
    return Status::OK();  // fresh node
  }
  if (!read.ok()) return read.status();
  const std::vector<char>& buf = *read;
  if (buf.size() < kStateBytes) {
    return Status::IoError("raft: state file " + path + " truncated (" +
                           std::to_string(buf.size()) + " bytes)");
  }
  uint32_t magic, version, crc;
  uint64_t term, voted_for;
  std::memcpy(&magic, buf.data(), 4);
  std::memcpy(&version, buf.data() + 4, 4);
  std::memcpy(&term, buf.data() + 8, 8);
  std::memcpy(&voted_for, buf.data() + 16, 8);
  std::memcpy(&crc, buf.data() + 24, 4);
  if (magic != kStateMagic) {
    return Status::IoError("raft: state file " + path + " bad magic");
  }
  if (version != kFormatVersion) {
    return Status::IoError("raft: state file " + path +
                           " unsupported version " + std::to_string(version));
  }
  if (crc != Crc32(buf.data() + 8, 16)) {
    return Status::IoError("raft: state file " + path + " CRC mismatch");
  }
  term_ = term;
  voted_for_ = voted_for;
  return Status::OK();
}

Status DurableRaftStorage::PersistHardState() {
  RETURN_IF_ERROR(
      failpoint::Check(options_.failpoint_scope + "raft.persist"));
  std::vector<char> buf;
  buf.reserve(kStateBytes);
  AppendU32(&buf, kStateMagic);
  AppendU32(&buf, kFormatVersion);
  AppendU64(&buf, term_);
  AppendU64(&buf, voted_for_);
  AppendU32(&buf, Crc32(buf.data() + 8, 16));
  return AtomicFile::Write(
      (fs::path(options_.directory) / "raft-state.dat").string(), {buf},
      options_.fsync);
}

Status DurableRaftStorage::LoadLog() {
  const std::string path =
      (fs::path(options_.directory) / "raft-log.dat").string();
  entries_.clear();
  entry_offsets_.clear();
  Result<RecordScan> scanned = RecordFile::Scan(path, kLogHeaderBytes);
  if (scanned.status().code() == StatusCode::kNotFound ||
      (scanned.ok() && scanned->bytes.empty())) {
    // Fresh log: write the header.
    std::vector<char> header;
    AppendU32(&header, kLogMagic);
    AppendU32(&header, kFormatVersion);
    RETURN_IF_ERROR(AtomicFile::Write(path, {header}, options_.fsync));
    entry_offsets_.push_back(kLogHeaderBytes);
    return log_.Open(path);
  }
  if (!scanned.ok()) return scanned.status();
  const RecordScan& scan = *scanned;
  if (scan.bytes.size() < kLogHeaderBytes) {
    return Status::IoError("raft: log " + path + " shorter than its header");
  }
  uint32_t magic, version;
  std::memcpy(&magic, scan.bytes.data(), 4);
  std::memcpy(&version, scan.bytes.data() + 4, 4);
  if (magic != kLogMagic) {
    return Status::IoError("raft: log " + path + " bad magic");
  }
  if (version != kFormatVersion) {
    return Status::IoError("raft: log " + path + " unsupported version " +
                           std::to_string(version));
  }
  // Every record before the torn tail must decode into the next dense
  // entry; a CRC-valid record that does not is corruption, not a tear.
  uint64_t offset = kLogHeaderBytes;
  entry_offsets_.push_back(offset);
  for (std::span<const char> payload : scan.payloads) {
    RaftEntry entry;
    Status parsed = DecodeEntryPayload(payload, &entry);
    if (!parsed.ok()) {
      return Status::IoError("raft: log " + path + " entry " +
                             std::to_string(entries_.size() + 1) +
                             " is corrupt: " + parsed.message());
    }
    if (entry.index != entries_.size() + 1) {
      return Status::IoError("raft: log " + path + " entry index " +
                             std::to_string(entry.index) +
                             " breaks density at position " +
                             std::to_string(entries_.size() + 1));
    }
    entries_.push_back(std::move(entry));
    offset += RecordFile::kFrameBytes + payload.size();
    entry_offsets_.push_back(offset);
  }
  RETURN_IF_ERROR(log_.Open(path));
  if (!scan.torn.ok()) {
    torn_bytes_truncated_ = scan.bytes.size() - scan.valid_end;
    FREEWAY_LOG(kWarning) << "raft: truncating torn log tail of "
                          << torn_bytes_truncated_ << " bytes in " << path
                          << ": " << scan.torn.message();
    RETURN_IF_ERROR(log_.Truncate(scan.valid_end));
  }
  return Status::OK();
}

Status DurableRaftStorage::PersistAppend(const RaftEntry& entry) {
  RETURN_IF_ERROR(
      failpoint::Check(options_.failpoint_scope + "raft.persist"));
  RETURN_IF_ERROR(log_.Append(EncodeEntryPayload(entry), options_.fsync));
  entry_offsets_.push_back(log_.size());
  return Status::OK();
}

Status DurableRaftStorage::PersistTruncateSuffix(uint64_t from_index) {
  RETURN_IF_ERROR(
      failpoint::Check(options_.failpoint_scope + "raft.persist"));
  FREEWAY_DCHECK(from_index >= 1 && from_index <= entry_offsets_.size())
      << "raft truncate index " << from_index << " out of range";
  RETURN_IF_ERROR(log_.Truncate(entry_offsets_[from_index - 1]));
  if (options_.fsync) RETURN_IF_ERROR(log_.Sync());
  entry_offsets_.resize(from_index);
  return Status::OK();
}

}  // namespace freeway
