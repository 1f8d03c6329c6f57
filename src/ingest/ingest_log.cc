#include "ingest/ingest_log.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "durable/durable_file.h"
#include "fault/failpoint.h"

namespace freeway {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kSegmentMagic = 0x47495746;  // 'FWIG'
constexpr uint32_t kSegmentFormatVersion = 1;
constexpr size_t kSegmentHeaderBytes = 16;

/// Record payload section tags.
constexpr uint32_t kTagBatchRecord = 0x54414249;   // 'IBAT'
constexpr uint32_t kTagRevertRecord = 0x54565249;  // 'IRVT'
constexpr uint32_t kTagWatermarks = 0x4B4D5749;    // 'IWMK'

/// Parses "ingest-<base_lsn>.seg" into the base LSN.
bool ParseSegmentFilename(const std::string& filename, uint64_t* base_lsn) {
  const std::string prefix = "ingest-";
  const std::string suffix = ".seg";
  if (filename.size() <= prefix.size() + suffix.size()) return false;
  if (filename.compare(0, prefix.size(), prefix) != 0) return false;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < filename.size() - suffix.size(); ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - (c - '0')) / 10) return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *base_lsn = value;
  return true;
}

/// One parsed record payload. Revert records reuse `record.client_id` /
/// `record.sequence` and name the batch record they cancel by LSN;
/// watermark records carry the raw snapshot bytes for
/// DedupIndex::LoadState.
struct LogRecord {
  uint32_t tag = 0;
  uint64_t lsn = 0;
  uint64_t cancelled_lsn = 0;
  IngestRecord record;
  std::vector<char> watermarks;
};

std::vector<char> EncodeBatchRecord(const IngestRecord& record, uint64_t lsn) {
  SnapshotWriter writer;
  writer.WriteSection(kTagBatchRecord);
  writer.WriteU64(lsn);
  writer.WriteU64(record.client_id);
  writer.WriteU64(record.sequence);
  writer.WriteU64(record.stream_id);
  writer.WriteU32(record.tenant_id);
  writer.WriteU32(record.priority);
  writer.WriteBatch(record.batch);
  return writer.Take();
}

std::vector<char> EncodeRevertRecord(uint64_t lsn, uint64_t cancelled_lsn,
                                     uint64_t client_id, uint64_t sequence) {
  SnapshotWriter writer;
  writer.WriteSection(kTagRevertRecord);
  writer.WriteU64(lsn);
  writer.WriteU64(cancelled_lsn);
  writer.WriteU64(client_id);
  writer.WriteU64(sequence);
  return writer.Take();
}

std::vector<char> EncodeWatermarkRecord(uint64_t covered_lsn,
                                        const DedupIndex& dedup) {
  SnapshotWriter writer;
  writer.WriteSection(kTagWatermarks);
  writer.WriteU64(covered_lsn);
  dedup.SaveState(&writer);
  return writer.Take();
}

/// Parses one CRC-verified record payload. Failure here is *not* a torn
/// tail — the CRC already passed — so callers treat it as hard corruption.
Status ParseRecordPayload(std::span<const char> payload, LogRecord* out) {
  SnapshotReader reader(payload);
  uint32_t tag = 0;
  RETURN_IF_ERROR(reader.ReadU32(&tag));
  uint32_t version = 0;
  RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != 1) {
    return Status::InvalidArgument("ingest: unsupported record version " +
                                   std::to_string(version));
  }
  out->tag = tag;
  RETURN_IF_ERROR(reader.ReadU64(&out->lsn));
  switch (tag) {
    case kTagBatchRecord: {
      RETURN_IF_ERROR(reader.ReadU64(&out->record.client_id));
      RETURN_IF_ERROR(reader.ReadU64(&out->record.sequence));
      RETURN_IF_ERROR(reader.ReadU64(&out->record.stream_id));
      RETURN_IF_ERROR(reader.ReadU32(&out->record.tenant_id));
      uint32_t priority = 0;
      RETURN_IF_ERROR(reader.ReadU32(&priority));
      if (priority > 255) {
        return Status::InvalidArgument("ingest: priority out of range");
      }
      out->record.priority = static_cast<uint8_t>(priority);
      RETURN_IF_ERROR(reader.ReadBatch(&out->record.batch));
      RETURN_IF_ERROR(reader.ExpectEnd());
      out->record.lsn = out->lsn;
      return Status::OK();
    }
    case kTagRevertRecord: {
      RETURN_IF_ERROR(reader.ReadU64(&out->cancelled_lsn));
      RETURN_IF_ERROR(reader.ReadU64(&out->record.client_id));
      RETURN_IF_ERROR(reader.ReadU64(&out->record.sequence));
      RETURN_IF_ERROR(reader.ExpectEnd());
      return Status::OK();
    }
    case kTagWatermarks: {
      // The rest of the payload is the DedupIndex snapshot, handed back
      // verbatim for LoadState.
      out->watermarks.assign(payload.end() - reader.remaining(),
                             payload.end());
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("ingest: unknown record tag " +
                                     std::to_string(tag));
  }
}

/// Everything one pass over a segment file learns.
struct SegmentScan {
  uint64_t base_lsn = 0;
  std::vector<LogRecord> records;
  /// Byte offset just past the last intact record. Below file_size only
  /// when the scan stopped early (see tail_error).
  size_t valid_end = 0;
  size_t file_size = 0;
  /// Why the scan stopped before the end of the file (RecordScan::torn).
  /// Only the *last* segment of a log may carry this (a torn tail);
  /// anywhere else it is corruption.
  Status tail_error = Status::OK();
};

Result<SegmentScan> ScanSegmentFile(const std::string& path) {
  ASSIGN_OR_RETURN(RecordScan file,
                   RecordFile::Scan(path, kSegmentHeaderBytes));
  if (file.bytes.size() < kSegmentHeaderBytes) {
    return Status::InvalidArgument("ingest: segment " + path +
                                   " is shorter than its header");
  }
  SegmentScan scan;
  uint32_t magic = 0;
  uint32_t version = 0;
  std::memcpy(&magic, file.bytes.data(), 4);
  std::memcpy(&version, file.bytes.data() + 4, 4);
  std::memcpy(&scan.base_lsn, file.bytes.data() + 8, 8);
  if (magic != kSegmentMagic) {
    return Status::InvalidArgument("ingest: bad magic in " + path);
  }
  if (version != kSegmentFormatVersion) {
    return Status::InvalidArgument("ingest: unsupported segment version " +
                                   std::to_string(version) + " in " + path);
  }
  for (std::span<const char> payload : file.payloads) {
    LogRecord record;
    RETURN_IF_ERROR(ParseRecordPayload(payload, &record));
    scan.records.push_back(std::move(record));
  }
  scan.valid_end = file.valid_end;
  scan.file_size = file.bytes.size();
  scan.tail_error = std::move(file.torn);
  return scan;
}

}  // namespace

IngestLog::IngestLog(IngestLogOptions options) : options_(std::move(options)) {
  if (options_.segment_max_bytes <
      kSegmentHeaderBytes + RecordFile::kFrameBytes) {
    options_.segment_max_bytes = kSegmentHeaderBytes + RecordFile::kFrameBytes;
  }
  if (options_.metrics != nullptr) {
    MetricsRegistry* registry = options_.metrics;
    metric_appends_ = registry->GetCounter("freeway_ingest_appends_total");
    metric_reverts_ = registry->GetCounter("freeway_ingest_reverts_total");
    metric_rotations_ = registry->GetCounter("freeway_ingest_rotations_total");
    metric_pruned_ =
        registry->GetCounter("freeway_ingest_segments_pruned_total");
    metric_append_bytes_ = registry->GetHistogram(
        "freeway_ingest_append_bytes", Histogram::DefaultSizeBounds());
    metric_append_seconds_ =
        registry->GetHistogram("freeway_ingest_append_seconds");
  }
}

Status IngestLog::Open(DedupIndex* dedup) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (opened_) return Status::FailedPrecondition("ingest: log already open");
  RETURN_IF_ERROR(OpenLocked(dedup));
  opened_ = true;
  return Status::OK();
}

Status IngestLog::OpenLocked(DedupIndex* dedup) {
  dedup_ = dedup;
  if (options_.directory.empty()) {
    return Status::InvalidArgument("ingest: log directory is empty");
  }
  std::error_code ec;
  if (!options_.read_only) {
    fs::create_directories(options_.directory, ec);
    if (ec) {
      return Status::IoError("ingest: cannot create directory " +
                             options_.directory + ": " + ec.message());
    }
  }

  std::vector<Segment> segments;
  fs::directory_iterator it(options_.directory, ec);
  if (ec) {
    if (options_.read_only && !fs::exists(options_.directory)) {
      // Nothing captured yet: an empty log, not an error.
      return Status::OK();
    }
    return Status::IoError("ingest: cannot list directory " +
                           options_.directory + ": " + ec.message());
  }
  for (const auto& entry : it) {
    const std::string filename = entry.path().filename().string();
    uint64_t base_lsn = 0;
    if (ParseSegmentFilename(filename, &base_lsn)) {
      segments.push_back({base_lsn, entry.path().string()});
      continue;
    }
    // A leftover .tmp is a rotation the process died inside; the renamed
    // segment never existed, so the bytes are garbage.
    if (!options_.read_only && filename.size() > 4 &&
        filename.compare(filename.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path(), ec);
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) {
              return a.base_lsn < b.base_lsn;
            });

  next_lsn_ = 1;
  for (size_t i = 0; i < segments.size(); ++i) {
    ASSIGN_OR_RETURN(SegmentScan scan, ScanSegmentFile(segments[i].path));
    if (scan.base_lsn != segments[i].base_lsn) {
      return Status::InvalidArgument(
          "ingest: segment " + segments[i].path + " header claims base LSN " +
          std::to_string(scan.base_lsn));
    }
    const bool last = i + 1 == segments.size();
    if (!scan.tail_error.ok()) {
      if (!last) {
        // Sealed segments are never written again, so a tear cannot
        // explain a bad record here.
        return Status(scan.tail_error.code(),
                      "ingest: corrupt sealed segment: " +
                          scan.tail_error.message());
      }
      stats_.torn_bytes_truncated += scan.file_size - scan.valid_end;
      FREEWAY_LOG(kWarning) << "ingest: truncating torn tail of "
                            << segments[i].path << " ("
                            << (scan.file_size - scan.valid_end)
                            << " bytes): " << scan.tail_error.message();
    }
    for (const LogRecord& record : scan.records) {
      ++stats_.recovered_records;
      switch (record.tag) {
        case kTagBatchRecord:
          if (dedup_ != nullptr) {
            dedup_->Advance(record.record.client_id, record.record.sequence);
          }
          next_lsn_ = std::max(next_lsn_, record.lsn + 1);
          break;
        case kTagRevertRecord:
          if (dedup_ != nullptr) {
            dedup_->Revert(record.record.client_id, record.record.sequence);
          }
          next_lsn_ = std::max(next_lsn_, record.lsn + 1);
          break;
        case kTagWatermarks:
          // Every segment head snapshots the full table, superseding
          // whatever the records before it rebuilt.
          if (dedup_ != nullptr) {
            SnapshotReader reader(record.watermarks);
            RETURN_IF_ERROR(dedup_->LoadState(&reader));
          }
          break;
      }
    }
    // A snapshot-only segment (fresh after an anchored truncation) carries
    // the next LSN in its header.
    next_lsn_ = std::max(next_lsn_, segments[i].base_lsn);
    if (last && !options_.read_only) {
      RETURN_IF_ERROR(active_.Open(segments[i].path));
      if (!scan.tail_error.ok()) {
        RETURN_IF_ERROR(active_.Truncate(scan.valid_end));
      }
    }
  }
  segments_ = std::move(segments);

  if (!options_.read_only && segments_.empty()) {
    RETURN_IF_ERROR(StartSegmentLocked(next_lsn_));
  }
  stats_.segments = segments_.size();
  return Status::OK();
}

Status IngestLog::StartSegmentLocked(uint64_t base_lsn) {
  active_.Close();
  const std::string path =
      (fs::path(options_.directory) /
       ("ingest-" + std::to_string(base_lsn) + ".seg"))
          .string();
  std::vector<char> head(kSegmentHeaderBytes);
  std::memcpy(head.data(), &kSegmentMagic, 4);
  std::memcpy(head.data() + 4, &kSegmentFormatVersion, 4);
  std::memcpy(head.data() + 8, &base_lsn, 8);
  if (dedup_ != nullptr) {
    // Head snapshot: everything the table learned from records below
    // base_lsn, so recovery never needs the pruned segments.
    RecordFile::Frame(
        EncodeWatermarkRecord(base_lsn == 0 ? 0 : base_lsn - 1, *dedup_),
        &head);
  }
  RETURN_IF_ERROR(AtomicFile::Write(path, {head}, options_.fsync));
  RETURN_IF_ERROR(active_.Open(path));
  segments_.push_back({base_lsn, path});
  stats_.segments = segments_.size();
  return Status::OK();
}

Status IngestLog::AppendPayloadLocked(const std::vector<char>& payload) {
  if (active_.size() >= options_.segment_max_bytes) {
    RETURN_IF_ERROR(RotateLocked());
  }
  Status appended = active_.Append(payload, options_.fsync);
  if (!appended.ok()) {
    // A segment closed by a failed rollback ends in a torn tail that the
    // next Open() truncates; this process must stop appending past it.
    if (!active_.is_open()) opened_ = false;
    return appended;
  }
  if (metric_append_bytes_ != nullptr) {
    metric_append_bytes_->Observe(
        static_cast<double>(RecordFile::kFrameBytes + payload.size()));
  }
  return Status::OK();
}

Result<uint64_t> IngestLog::Append(const IngestRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("ingest: log is not open");
  if (options_.read_only) {
    return Status::FailedPrecondition("ingest: log is read-only");
  }
  FREEWAY_FAILPOINT("ingest.append");
  const auto start = std::chrono::steady_clock::now();
  const uint64_t lsn = next_lsn_;
  RETURN_IF_ERROR(AppendPayloadLocked(EncodeBatchRecord(record, lsn)));
  next_lsn_ = lsn + 1;
  ++stats_.appends;
  if (metric_appends_ != nullptr) metric_appends_->Inc();
  if (metric_append_seconds_ != nullptr) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    metric_append_seconds_->Observe(elapsed.count());
  }
  return lsn;
}

Result<uint64_t> IngestLog::AppendRevert(uint64_t cancelled_lsn,
                                         uint64_t client_id,
                                         uint64_t sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("ingest: log is not open");
  if (options_.read_only) {
    return Status::FailedPrecondition("ingest: log is read-only");
  }
  const uint64_t lsn = next_lsn_;
  RETURN_IF_ERROR(AppendPayloadLocked(
      EncodeRevertRecord(lsn, cancelled_lsn, client_id, sequence)));
  next_lsn_ = lsn + 1;
  ++stats_.reverts;
  if (metric_reverts_ != nullptr) metric_reverts_->Inc();
  return lsn;
}

Status IngestLog::RotateLocked() {
  RETURN_IF_ERROR(StartSegmentLocked(next_lsn_));
  ++stats_.rotations;
  if (metric_rotations_ != nullptr) metric_rotations_->Inc();
  return Status::OK();
}

Status IngestLog::Rotate() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("ingest: log is not open");
  if (options_.read_only) {
    return Status::FailedPrecondition("ingest: log is read-only");
  }
  return RotateLocked();
}

Status IngestLog::TruncateBefore(uint64_t lsn, size_t keep_sealed_segments) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("ingest: log is not open");
  if (options_.read_only) {
    return Status::FailedPrecondition("ingest: log is read-only");
  }
  // A sealed segment's records all sit below its successor's base LSN, so
  // it is prunable exactly when that base covers everything up to `lsn`.
  // The active segment always stays, plus `keep_sealed_segments` of the
  // newest sealed ones (the retention window).
  std::error_code ec;
  while (segments_.size() > 1 + keep_sealed_segments &&
         segments_[1].base_lsn <= lsn + 1) {
    fs::remove(segments_.front().path, ec);
    if (ec) {
      return Status::IoError("ingest: cannot remove " +
                             segments_.front().path + ": " + ec.message());
    }
    segments_.erase(segments_.begin());
    ++stats_.segments_pruned;
    if (metric_pruned_ != nullptr) metric_pruned_->Inc();
  }
  stats_.segments = segments_.size();
  return Status::OK();
}

Status IngestLog::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_.is_open()) return Status::OK();
  return active_.Sync();
}

Status IngestLog::Replay(
    const std::function<Status(const IngestRecord& record)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("ingest: log is not open");
  // Pass 1: collect the LSNs cancelled by revert records (each revert
  // names its batch record exactly, so re-appended sequences and untracked
  // submits need no pairing heuristics).
  std::unordered_set<uint64_t> reverted;
  for (size_t i = 0; i < segments_.size(); ++i) {
    ASSIGN_OR_RETURN(SegmentScan scan, ScanSegmentFile(segments_[i].path));
    if (!scan.tail_error.ok() && i + 1 != segments_.size()) {
      return Status(scan.tail_error.code(),
                    "ingest: corrupt sealed segment: " +
                        scan.tail_error.message());
    }
    for (const LogRecord& record : scan.records) {
      if (record.tag == kTagRevertRecord) reverted.insert(record.cancelled_lsn);
    }
  }
  // Pass 2: yield the survivors in LSN order (segments are already sorted
  // and records within a segment are append-ordered).
  for (size_t i = 0; i < segments_.size(); ++i) {
    ASSIGN_OR_RETURN(SegmentScan scan, ScanSegmentFile(segments_[i].path));
    for (const LogRecord& record : scan.records) {
      if (record.tag != kTagBatchRecord) continue;
      if (reverted.count(record.lsn) != 0) continue;
      RETURN_IF_ERROR(fn(record.record));
    }
  }
  return Status::OK();
}

uint64_t IngestLog::last_lsn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_lsn_ - 1;
}

IngestLogStats IngestLog::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace freeway
