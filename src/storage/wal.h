#ifndef MICROSPEC_STORAGE_WAL_H_
#define MICROSPEC_STORAGE_WAL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/io_stats.h"
#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"

namespace microspec {

/// Physiological WAL record types. DML records carry beeID-tagged tuple
/// images (the bytes are exactly what the relation's form bee produced, so
/// redo through the log bee re-creates tuples byte-identical to the
/// original execution). DDL records make the in-memory catalog recoverable;
/// kBeeSection records persist tuple-bee data-section slabs as they grow.
enum class WalRecordType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kInsert = 4,
  kUpdate = 5,
  kDelete = 6,
  kClr = 7,  // compensation record written during undo
  kCreateTable = 8,
  kCreateIndex = 9,
  kDropTable = 10,
  kBeeSection = 11,  // non-transactional (txn_id 0): a new tuple-bee slab
  kCheckpoint = 12,
};

/// On-disk record header. The CRC-32C covers bytes [8, 32 + len) — i.e.
/// everything except the crc field itself — so a torn log write is detected
/// as a CRC mismatch and the tail is truncated at Open.
struct WalRecordHeader {
  uint32_t crc;
  uint32_t len;       // payload bytes following the header
  uint64_t txn_id;    // 0 = non-transactional
  uint64_t prev_lsn;  // start-LSN of this txn's previous record (0 = none)
  uint8_t type;
  uint8_t pad[7];
};
static_assert(sizeof(WalRecordHeader) == 32, "WAL header layout drift");

/// LSN convention (two addresses per record, both derived from the record's
/// byte range [start, end) in the log file):
///
///   start-LSN = start + 1   names the record; used for prev_lsn chains,
///                           CLR undo_next, and ReadRecord. The +1 keeps 0
///                           free to mean "none".
///   end-LSN   = end         one past the record's last byte; used for page
///                           LSN stamps and durability waits, so "flush up
///                           to end-LSN" and "page reflects records below
///                           end-LSN" are plain offset comparisons.
struct WalRecord {
  uint64_t start_lsn = 0;
  uint64_t end_lsn = 0;
  uint64_t txn_id = 0;
  uint64_t prev_lsn = 0;
  WalRecordType type = WalRecordType::kBegin;
  std::string payload;
};

/// Payload codecs. Free functions (not methods) so recovery, the runtime
/// undo path, and the tests share one encoding with no object to thread
/// through. Decode* return false on malformed/truncated payloads.
namespace walenc {

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutString(std::string* out, const std::string& s);
bool GetU8(const std::string& in, size_t* pos, uint8_t* v);
bool GetU32(const std::string& in, size_t* pos, uint32_t* v);
bool GetU64(const std::string& in, size_t* pos, uint64_t* v);
bool GetString(const std::string& in, size_t* pos, std::string* s);

/// kInsert / kDelete: {table, tid, image}. For kInsert the image is the
/// inserted tuple (redo re-inserts, undo deletes); for kDelete it is the
/// old tuple (redo deletes, undo restores).
void EncodeTupleOp(std::string* out, uint32_t table, TupleId tid,
                   const char* img, uint32_t len);
bool DecodeTupleOp(const std::string& in, uint32_t* table, TupleId* tid,
                   std::string* img);

/// kUpdate: {table, old_tid, new_tid, old image, new image}. The engine
/// logs only in-place updates this way (old_tid == new_tid); a moved update
/// is logged as an explicit kDelete + kInsert pair so every record demands
/// exactly one page mutation and undo never needs a two-op compensation.
void EncodeUpdate(std::string* out, uint32_t table, TupleId old_tid,
                  TupleId new_tid, const char* old_img, uint32_t old_len,
                  const char* new_img, uint32_t new_len);
bool DecodeUpdate(const std::string& in, uint32_t* table, TupleId* old_tid,
                  TupleId* new_tid, std::string* old_img,
                  std::string* new_img);

/// kClr: {undo_next, op, table, tid, image}. `op` is a LogApplyOp (see
/// bee/log_bee.h) describing the page-level inverse that was applied.
void EncodeClr(std::string* out, uint64_t undo_next, uint8_t op,
               uint32_t table, TupleId tid, const char* img, uint32_t len);
bool DecodeClr(const std::string& in, uint64_t* undo_next, uint8_t* op,
               uint32_t* table, TupleId* tid, std::string* img);

/// kCreateTable: {id, name, serialized Schema (with annotations)}.
void EncodeCreateTable(std::string* out, uint32_t id, const std::string& name,
                       const std::string& schema_bytes);
bool DecodeCreateTable(const std::string& in, uint32_t* id, std::string* name,
                       std::string* schema_bytes);

/// kCreateIndex: {table, name, key column indexes}.
void EncodeCreateIndex(std::string* out, uint32_t table,
                       const std::string& name,
                       const std::vector<int>& key_columns);
bool DecodeCreateIndex(const std::string& in, uint32_t* table,
                       std::string* name, std::vector<int>* key_columns);

/// kDropTable: {id}.
void EncodeDropTable(std::string* out, uint32_t id);
bool DecodeDropTable(const std::string& in, uint32_t* id);

/// kBeeSection: {table, bee_id, section blob}.
void EncodeBeeSection(std::string* out, uint32_t table, uint8_t bee_id,
                      const std::string& blob);
bool DecodeBeeSection(const std::string& in, uint32_t* table, uint8_t* bee_id,
                      std::string* blob);

}  // namespace walenc

/// The write-ahead log: one append-only file, group commit via a dedicated
/// flusher thread, torn-tail truncation at Open.
///
/// Concurrency contract: Append is thread-safe and cheap (memcpy into a
/// pending buffer under a mutex); durability is separate — Commit(end_lsn)
/// blocks until the log is durable through end_lsn. In group-commit mode
/// the flusher batches every pending record into one pwrite + fdatasync and
/// wakes all satisfied committers; otherwise Commit flushes inline.
///
/// Crash semantics: kill -9 loses exactly the user-space pending buffer.
/// Bytes already pwritten survive in the OS page cache even without the
/// fdatasync (process death is not power loss); the injected torn-write
/// failpoints model the stronger power-loss case by truncating the pwrite
/// itself before killing. Flush errors are sticky: after a failed sync the
/// log refuses further commits, because the kernel may have dropped the
/// dirty pages and "retry the fsync" would silently lie about durability.
class Wal {
 public:
  /// Payload-length sanity bound for the torn-tail scan: a header whose len
  /// exceeds this is garbage, not a record (the largest legal payload is two
  /// page-sized images plus fixed fields).
  static constexpr uint32_t kMaxPayload = 4 * kPageSize;

  /// Open, Replay and ReadAll read the log sequentially in preads of this
  /// size, so a scan holds one chunk and one record at a time, whatever the
  /// log's length.
  static constexpr size_t kScanChunkBytes = size_t{1} << 20;

  /// Called once per valid record, in log order. The record (and its
  /// payload buffer) is reused for the next one, so a visitor that keeps a
  /// record copies it. A non-OK status stops the scan and is returned.
  using RecordVisitor = std::function<Status(const WalRecord&)>;

  struct Options {
    bool group_commit = true;
    int group_commit_window_us = 0;  // flusher batching window (0 = none)
    IoStats* stats = nullptr;
  };

  /// Opens (creating if necessary) the log at `path`, scans it validating
  /// record CRCs, truncates any torn tail, and starts the flusher. The scan
  /// keeps no records; restart recovery reads them with Replay.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           const Options& options);
  ~Wal();
  MICROSPEC_DISALLOW_COPY_AND_MOVE(Wal);

  struct AppendResult {
    uint64_t start_lsn;
    uint64_t end_lsn;
  };

  /// Appends one record to the pending buffer (not yet durable).
  AppendResult Append(WalRecordType type, uint64_t txn_id, uint64_t prev_lsn,
                      const std::string& payload);

  /// Blocks until the log is durable through `end_lsn`.
  Status Commit(uint64_t end_lsn);

  /// Forces everything appended so far to disk (checkpoint/DDL path).
  Status Flush();

  /// Durability floor for the buffer pool's WAL-rule hook.
  Status FlushUpTo(uint64_t end_lsn);

  /// Reads the record starting at `start_lsn`, whether it is still in the
  /// pending buffer or already on disk. Used by runtime rollback and undo
  /// to walk prev_lsn chains.
  Result<WalRecord> ReadRecord(uint64_t start_lsn);

  /// Streams every record in [0, durable_offset()) through `visit`, in one
  /// forward pass over the file. Those bytes are never rewritten, so Replay
  /// needs no lock and may run while records are appended and flushed
  /// (restart redo's evictions call FlushUpTo). Returns Corruption if the
  /// durable prefix no longer reads back whole, or `visit`'s first error.
  Status Replay(const RecordVisitor& visit) const;

  /// Reads every valid record from a closed log file into one vector,
  /// stopping cleanly at the first torn/short/corrupt record. For tests and
  /// tools only: its memory grows with the log; restart recovery streams
  /// through Replay instead.
  static Result<std::vector<WalRecord>> ReadAll(const std::string& path);

  /// Drops the pending buffer and suppresses the destructor's final flush:
  /// the in-process stand-in for kill -9 (which loses exactly the
  /// user-space buffer and nothing more).
  void SimulateCrashForTests();

  uint64_t durable_offset() const;
  uint64_t append_offset() const;

 private:
  Wal() = default;

  Status FlushLocked(uint64_t target);  // requires io_mu_
  void FlusherLoop();

  std::string path_;
  int fd_ = -1;
  bool group_commit_ = false;
  int window_us_ = 0;
  IoStats* stats_ = nullptr;

  // mu_ guards the pending buffer and offsets; io_mu_ serializes the
  // actual pwrite+fdatasync so the buffer steal (under mu_) stays brief.
  mutable std::mutex mu_;
  std::mutex io_mu_;
  std::string pending_;         // appended, not yet pwritten
  uint64_t buffer_base_ = 0;    // file offset of pending_[0]
  uint64_t append_offset_ = 0;  // buffer_base_ + pending_.size()
  uint64_t durable_offset_ = 0;
  Status flush_error_;  // sticky
  bool crashed_ = false;

  std::condition_variable flusher_cv_;
  std::condition_variable waiters_cv_;
  bool flush_requested_ = false;
  bool stop_ = false;
  std::thread flusher_;
};

}  // namespace microspec

#endif  // MICROSPEC_STORAGE_WAL_H_
