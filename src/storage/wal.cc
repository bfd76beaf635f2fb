#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "common/crc32c.h"
#include "common/failpoint.h"

namespace microspec {

namespace walenc {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}
bool GetU8(const std::string& in, size_t* pos, uint8_t* v) {
  if (*pos + 1 > in.size()) return false;
  *v = static_cast<uint8_t>(in[*pos]);
  *pos += 1;
  return true;
}
bool GetU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}
bool GetU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}
bool GetString(const std::string& in, size_t* pos, std::string* s) {
  uint32_t len = 0;
  if (!GetU32(in, pos, &len)) return false;
  if (*pos + len > in.size()) return false;
  s->assign(in, *pos, len);
  *pos += len;
  return true;
}

void EncodeTupleOp(std::string* out, uint32_t table, TupleId tid,
                   const char* img, uint32_t len) {
  PutU32(out, table);
  PutU64(out, tid);
  PutU32(out, len);
  out->append(img, len);
}
bool DecodeTupleOp(const std::string& in, uint32_t* table, TupleId* tid,
                   std::string* img) {
  size_t pos = 0;
  uint32_t len = 0;
  if (!GetU32(in, &pos, table) || !GetU64(in, &pos, tid) ||
      !GetU32(in, &pos, &len)) {
    return false;
  }
  if (pos + len != in.size()) return false;
  img->assign(in, pos, len);
  return true;
}

void EncodeUpdate(std::string* out, uint32_t table, TupleId old_tid,
                  TupleId new_tid, const char* old_img, uint32_t old_len,
                  const char* new_img, uint32_t new_len) {
  PutU32(out, table);
  PutU64(out, old_tid);
  PutU64(out, new_tid);
  PutU32(out, old_len);
  out->append(old_img, old_len);
  PutU32(out, new_len);
  out->append(new_img, new_len);
}
bool DecodeUpdate(const std::string& in, uint32_t* table, TupleId* old_tid,
                  TupleId* new_tid, std::string* old_img,
                  std::string* new_img) {
  size_t pos = 0;
  if (!GetU32(in, &pos, table) || !GetU64(in, &pos, old_tid) ||
      !GetU64(in, &pos, new_tid) || !GetString(in, &pos, old_img) ||
      !GetString(in, &pos, new_img)) {
    return false;
  }
  return pos == in.size();
}

void EncodeClr(std::string* out, uint64_t undo_next, uint8_t op,
               uint32_t table, TupleId tid, const char* img, uint32_t len) {
  PutU64(out, undo_next);
  PutU8(out, op);
  PutU32(out, table);
  PutU64(out, tid);
  PutU32(out, len);
  out->append(img, len);
}
bool DecodeClr(const std::string& in, uint64_t* undo_next, uint8_t* op,
               uint32_t* table, TupleId* tid, std::string* img) {
  size_t pos = 0;
  uint32_t len = 0;
  if (!GetU64(in, &pos, undo_next) || !GetU8(in, &pos, op) ||
      !GetU32(in, &pos, table) || !GetU64(in, &pos, tid) ||
      !GetU32(in, &pos, &len)) {
    return false;
  }
  if (pos + len != in.size()) return false;
  img->assign(in, pos, len);
  return true;
}

void EncodeCreateTable(std::string* out, uint32_t id, const std::string& name,
                       const std::string& schema_bytes) {
  PutU32(out, id);
  PutString(out, name);
  PutString(out, schema_bytes);
}
bool DecodeCreateTable(const std::string& in, uint32_t* id, std::string* name,
                       std::string* schema_bytes) {
  size_t pos = 0;
  return GetU32(in, &pos, id) && GetString(in, &pos, name) &&
         GetString(in, &pos, schema_bytes) && pos == in.size();
}

void EncodeCreateIndex(std::string* out, uint32_t table,
                       const std::string& name,
                       const std::vector<int>& key_columns) {
  PutU32(out, table);
  PutString(out, name);
  PutU32(out, static_cast<uint32_t>(key_columns.size()));
  for (int c : key_columns) PutU32(out, static_cast<uint32_t>(c));
}
bool DecodeCreateIndex(const std::string& in, uint32_t* table,
                       std::string* name, std::vector<int>* key_columns) {
  size_t pos = 0;
  uint32_t ncols = 0;
  if (!GetU32(in, &pos, table) || !GetString(in, &pos, name) ||
      !GetU32(in, &pos, &ncols)) {
    return false;
  }
  key_columns->clear();
  for (uint32_t i = 0; i < ncols; ++i) {
    uint32_t c = 0;
    if (!GetU32(in, &pos, &c)) return false;
    key_columns->push_back(static_cast<int>(c));
  }
  return pos == in.size();
}

void EncodeDropTable(std::string* out, uint32_t id) { PutU32(out, id); }
bool DecodeDropTable(const std::string& in, uint32_t* id) {
  size_t pos = 0;
  return GetU32(in, &pos, id) && pos == in.size();
}

void EncodeBeeSection(std::string* out, uint32_t table, uint8_t bee_id,
                      const std::string& blob) {
  PutU32(out, table);
  PutU8(out, bee_id);
  PutString(out, blob);
}
bool DecodeBeeSection(const std::string& in, uint32_t* table, uint8_t* bee_id,
                      std::string* blob) {
  size_t pos = 0;
  return GetU32(in, &pos, table) && GetU8(in, &pos, bee_id) &&
         GetString(in, &pos, blob) && pos == in.size();
}

}  // namespace walenc

namespace {

uint32_t RecordCrc(const WalRecordHeader& h, const char* payload,
                   uint32_t len) {
  const char* hdr = reinterpret_cast<const char*>(&h);
  uint32_t crc = Crc32c(hdr + sizeof(uint32_t),
                        sizeof(WalRecordHeader) - sizeof(uint32_t));
  return Crc32c(payload, len, crc);
}

/// Scans [0, size) of an open log fd, handing each valid record to `visit`
/// (when set) and storing in `*valid_end` the offset of the first invalid
/// byte — the torn-tail truncation point. The log is read through one buffer
/// filled by Wal::kScanChunkBytes-sized preads; a record that straddles the
/// end of the buffer is re-read from its start with the next chunk. One
/// WalRecord, and its payload buffer, is reused for every record. Returns
/// `visit`'s first error, which ends the scan.
Status ScanLog(int fd, uint64_t size, const Wal::RecordVisitor& visit,
               uint64_t* valid_end) {
  std::string chunk;  // bytes [chunk_off, chunk_off + chunk.size()) of the log
  uint64_t chunk_off = 0;
  // Makes [off, off + n) resident in `chunk`; false on a short read.
  auto load = [&](uint64_t off, uint64_t n) {
    if (off >= chunk_off && off + n <= chunk_off + chunk.size()) return true;
    uint64_t want = std::max<uint64_t>(
        n, std::min<uint64_t>(Wal::kScanChunkBytes, size - off));
    chunk.resize(static_cast<size_t>(want));
    chunk_off = off;
    size_t got = 0;
    while (got < chunk.size()) {
      ssize_t r = ::pread(fd, &chunk[got], chunk.size() - got,
                          static_cast<off_t>(off + got));
      if (r <= 0) break;
      got += static_cast<size_t>(r);
    }
    chunk.resize(got);
    return got >= n;
  };
  WalRecord rec;
  uint64_t off = 0;
  while (off + sizeof(WalRecordHeader) <= size) {
    WalRecordHeader h;
    if (!load(off, sizeof(h))) break;
    std::memcpy(&h, chunk.data() + (off - chunk_off), sizeof(h));
    if (h.len > Wal::kMaxPayload ||
        off + sizeof(h) + h.len > size ||
        h.type < static_cast<uint8_t>(WalRecordType::kBegin) ||
        h.type > static_cast<uint8_t>(WalRecordType::kCheckpoint)) {
      break;
    }
    if (!load(off, sizeof(h) + h.len)) break;
    const char* payload = chunk.data() + (off - chunk_off) + sizeof(h);
    if (RecordCrc(h, payload, h.len) != h.crc) break;
    if (visit) {
      rec.start_lsn = off + 1;
      rec.end_lsn = off + sizeof(h) + h.len;
      rec.txn_id = h.txn_id;
      rec.prev_lsn = h.prev_lsn;
      rec.type = static_cast<WalRecordType>(h.type);
      rec.payload.assign(payload, h.len);
      Status st = visit(rec);
      if (!st.ok()) {
        *valid_end = off;
        return st;
      }
    }
    off += sizeof(h) + h.len;
  }
  *valid_end = off;
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       const Options& options) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IoError("lseek " + path + ": " + std::strerror(errno));
  }
  uint64_t valid_end = 0;
  (void)ScanLog(fd, static_cast<uint64_t>(size), nullptr, &valid_end);
  if (valid_end != static_cast<uint64_t>(size)) {
    // Torn tail from a crash mid-pwrite: truncate so the next flush appends
    // over clean ground and a re-scan sees only whole records.
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
      ::close(fd);
      return Status::IoError("ftruncate " + path + ": " +
                             std::strerror(errno));
    }
  }
  std::unique_ptr<Wal> wal(new Wal());
  wal->path_ = path;
  wal->fd_ = fd;
  wal->group_commit_ = options.group_commit;
  wal->window_us_ = options.group_commit_window_us;
  wal->stats_ = options.stats;
  wal->buffer_base_ = valid_end;
  wal->append_offset_ = valid_end;
  wal->durable_offset_ = valid_end;
  if (wal->group_commit_) {
    wal->flusher_ = std::thread([w = wal.get()] { w->FlusherLoop(); });
  }
  return wal;
}

Wal::~Wal() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  bool crashed;
  {
    std::lock_guard<std::mutex> guard(mu_);
    crashed = crashed_;
  }
  if (!crashed) {
    std::lock_guard<std::mutex> io(io_mu_);
    (void)FlushLocked(0);
  }
  if (fd_ >= 0) ::close(fd_);
}

Wal::AppendResult Wal::Append(WalRecordType type, uint64_t txn_id,
                              uint64_t prev_lsn, const std::string& payload) {
  WalRecordHeader h;
  std::memset(&h, 0, sizeof(h));
  h.len = static_cast<uint32_t>(payload.size());
  h.txn_id = txn_id;
  h.prev_lsn = prev_lsn;
  h.type = static_cast<uint8_t>(type);
  h.crc = RecordCrc(h, payload.data(), h.len);
  std::lock_guard<std::mutex> guard(mu_);
  uint64_t start = append_offset_;
  pending_.append(reinterpret_cast<const char*>(&h), sizeof(h));
  pending_.append(payload);
  append_offset_ = start + sizeof(h) + payload.size();
  if (stats_ != nullptr) {
    stats_->wal_records.Add(1);
    stats_->wal_bytes.Add(static_cast<int64_t>(sizeof(h) + payload.size()));
  }
  return AppendResult{start + 1, append_offset_};
}

Status Wal::FlushLocked(uint64_t /*min_target*/) {
  std::string batch;
  uint64_t base = 0;
  uint64_t end = 0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!flush_error_.ok()) return flush_error_;
    if (crashed_) return Status::IoError("wal: simulated crash");
    if (pending_.empty()) return Status::OK();
    batch.swap(pending_);
    base = buffer_base_;
    buffer_base_ += batch.size();
    end = buffer_base_;
  }

  auto fail = [this](Status st) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      flush_error_ = st;
    }
    waiters_cv_.notify_all();
    return st;
  };

  if (failpoint::Enabled()) {
    // kKill fires inside Hit (SIGKILL before any byte reaches the file);
    // kTornWrite models power loss mid-write: one sector lands, then death.
    if (failpoint::Hit("wal.prewrite") == FailpointAction::kTornWrite) {
      size_t torn = batch.size() < 512 ? batch.size() : 512;
      (void)::pwrite(fd_, batch.data(), torn, static_cast<off_t>(base));
      (void)::fdatasync(fd_);
      ::raise(SIGKILL);
    }
  }

  ssize_t n = ::pwrite(fd_, batch.data(), batch.size(),
                       static_cast<off_t>(base));
  if (n != static_cast<ssize_t>(batch.size())) {
    return fail(Status::IoError("wal pwrite " + path_ + ": " +
                                std::strerror(errno)));
  }

  if (failpoint::Enabled() &&
      failpoint::Hit("wal.presync") == FailpointAction::kFailSync) {
    return fail(Status::IoError("wal: injected fsync failure"));
  }

  if (::fdatasync(fd_) != 0) {
    return fail(Status::IoError("wal fdatasync " + path_ + ": " +
                                std::strerror(errno)));
  }
  if (stats_ != nullptr) stats_->wal_fsyncs.Add(1);

  if (failpoint::Enabled()) (void)failpoint::Hit("wal.postsync");

  {
    std::lock_guard<std::mutex> guard(mu_);
    durable_offset_ = end;
  }
  waiters_cv_.notify_all();
  return Status::OK();
}

Status Wal::FlushUpTo(uint64_t end_lsn) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!flush_error_.ok()) return flush_error_;
    if (crashed_) return Status::IoError("wal: simulated crash");
    if (durable_offset_ >= end_lsn) return Status::OK();
  }
  std::lock_guard<std::mutex> io(io_mu_);
  return FlushLocked(end_lsn);
}

Status Wal::Flush() { return FlushUpTo(append_offset()); }

Status Wal::Commit(uint64_t end_lsn) {
  if (!group_commit_) return FlushUpTo(end_lsn);
  std::unique_lock<std::mutex> lock(mu_);
  if (!flush_error_.ok()) return flush_error_;
  if (crashed_) return Status::IoError("wal: simulated crash");
  if (durable_offset_ >= end_lsn) return Status::OK();
  flush_requested_ = true;
  flusher_cv_.notify_one();
  waiters_cv_.wait(lock, [&] {
    return durable_offset_ >= end_lsn || !flush_error_.ok() || crashed_;
  });
  if (!flush_error_.ok()) return flush_error_;
  if (crashed_) return Status::IoError("wal: simulated crash");
  return Status::OK();
}

void Wal::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    flusher_cv_.wait(lock, [&] { return stop_ || flush_requested_; });
    if (stop_) break;
    flush_requested_ = false;
    lock.unlock();
    if (window_us_ > 0) {
      // The group-commit window: let more committers pile their records
      // into the pending buffer so one fdatasync pays for all of them.
      std::this_thread::sleep_for(std::chrono::microseconds(window_us_));
    }
    {
      std::lock_guard<std::mutex> io(io_mu_);
      (void)FlushLocked(0);
    }
    lock.lock();
  }
}

Result<WalRecord> Wal::ReadRecord(uint64_t start_lsn) {
  if (start_lsn == 0) return Status::InvalidArgument("lsn 0");
  uint64_t off = start_lsn - 1;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (off >= buffer_base_) {
      size_t rel = static_cast<size_t>(off - buffer_base_);
      if (rel + sizeof(WalRecordHeader) > pending_.size()) {
        return Status::InvalidArgument("lsn past end of log");
      }
      WalRecordHeader h;
      std::memcpy(&h, pending_.data() + rel, sizeof(h));
      if (rel + sizeof(h) + h.len > pending_.size()) {
        return Status::Corruption("wal: pending record truncated");
      }
      WalRecord rec;
      rec.start_lsn = start_lsn;
      rec.end_lsn = off + sizeof(h) + h.len;
      rec.txn_id = h.txn_id;
      rec.prev_lsn = h.prev_lsn;
      rec.type = static_cast<WalRecordType>(h.type);
      rec.payload.assign(pending_, rel + sizeof(h), h.len);
      return rec;
    }
  }
  // On disk (or mid-pwrite: io_mu_ waits out any in-flight flush — the
  // buffer steal happens with io_mu_ held, so bytes below buffer_base_ are
  // fully written once we hold it).
  std::lock_guard<std::mutex> io(io_mu_);
  WalRecordHeader h;
  ssize_t n = ::pread(fd_, &h, sizeof(h), static_cast<off_t>(off));
  if (n != static_cast<ssize_t>(sizeof(h))) {
    return Status::IoError("wal: short header read at lsn " +
                           std::to_string(start_lsn));
  }
  if (h.len > kMaxPayload) {
    return Status::Corruption("wal: bad record at lsn " +
                              std::to_string(start_lsn));
  }
  WalRecord rec;
  rec.start_lsn = start_lsn;
  rec.end_lsn = off + sizeof(h) + h.len;
  rec.txn_id = h.txn_id;
  rec.prev_lsn = h.prev_lsn;
  rec.type = static_cast<WalRecordType>(h.type);
  rec.payload.resize(h.len);
  if (h.len != 0) {
    n = ::pread(fd_, &rec.payload[0], h.len,
                static_cast<off_t>(off + sizeof(h)));
    if (n != static_cast<ssize_t>(h.len)) {
      return Status::IoError("wal: short payload read at lsn " +
                             std::to_string(start_lsn));
    }
  }
  if (RecordCrc(h, rec.payload.data(), h.len) != h.crc) {
    return Status::Corruption("wal: crc mismatch at lsn " +
                              std::to_string(start_lsn));
  }
  return rec;
}

Result<std::vector<WalRecord>> Wal::ReadAll(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::vector<WalRecord>{};
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IoError("lseek " + path + ": " + std::strerror(errno));
  }
  std::vector<WalRecord> records;
  uint64_t valid_end = 0;
  (void)ScanLog(fd, static_cast<uint64_t>(size),
                [&records](const WalRecord& rec) {
                  records.push_back(rec);
                  return Status::OK();
                },
                &valid_end);
  ::close(fd);
  return records;
}

Status Wal::Replay(const RecordVisitor& visit) const {
  const uint64_t end = durable_offset();
  uint64_t valid_end = 0;
  MICROSPEC_RETURN_NOT_OK(ScanLog(fd_, end, visit, &valid_end));
  if (valid_end != end) {
    return Status::Corruption("wal: durable record at offset " +
                              std::to_string(valid_end) +
                              " no longer reads back");
  }
  return Status::OK();
}

void Wal::SimulateCrashForTests() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    crashed_ = true;
    buffer_base_ += pending_.size();
    append_offset_ = buffer_base_;
    pending_.clear();
  }
  waiters_cv_.notify_all();
}

uint64_t Wal::durable_offset() const {
  std::lock_guard<std::mutex> guard(mu_);
  return durable_offset_;
}

uint64_t Wal::append_offset() const {
  std::lock_guard<std::mutex> guard(mu_);
  return append_offset_;
}

}  // namespace microspec
