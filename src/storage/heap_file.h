#ifndef MICROSPEC_STORAGE_HEAP_FILE_H_
#define MICROSPEC_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace microspec {

/// A heap of slotted pages storing one relation, accessed through the shared
/// buffer pool. Provides tuple-at-a-time insert/update/delete, a sequential
/// scan iterator, and an appender used by bulk loading (Figure 8).
class HeapFile {
 public:
  HeapFile(BufferPool* pool, std::unique_ptr<DiskManager> dm);
  ~HeapFile();
  MICROSPEC_DISALLOW_COPY_AND_MOVE(HeapFile);

  /// Inserts a tuple, extending the file as needed. When `pin_out` is
  /// non-null it receives the (still dirty-marked) pin on the target page,
  /// so a WAL-logging caller can append the record and stamp the page LSN
  /// while the page cannot be evicted underneath it.
  Result<TupleId> Insert(const char* tuple, uint32_t len,
                         PageGuard* pin_out = nullptr);

  /// Marks the tuple dead. `pin_out` as in Insert.
  Status Delete(TupleId tid, PageGuard* pin_out = nullptr);

  /// Replaces the tuple. Updates in place when the new version fits in the
  /// old slot's footprint; otherwise deletes and re-inserts, returning the
  /// (possibly new) TupleId. For WAL logging, `pin_old` receives the pin on
  /// the original page and `pin_new` the pin on the page holding the new
  /// version; for the in-place path only `pin_new` is populated (one page,
  /// one pin). The old page stays pinned across the re-insert so neither
  /// half of a moved update can be written back before its LSN is stamped.
  Result<TupleId> Update(TupleId tid, const char* tuple, uint32_t len,
                         PageGuard* pin_old = nullptr,
                         PageGuard* pin_new = nullptr);

  /// Copies the tuple at `tid` into `buf` (at most `cap` bytes) and sets
  /// `*len`. Returns NotFound for dead or out-of-range tuples.
  Status Fetch(TupleId tid, char* buf, uint32_t cap, uint32_t* len);

  PageNo num_pages() const { return dm_->num_pages(); }
  DiskManager* disk_manager() { return dm_.get(); }

  /// Sequential scan. Pins one page at a time; tuple pointers returned by
  /// Next() are valid until the following Next()/destruction.
  class Iterator {
   public:
    explicit Iterator(HeapFile* hf) : hf_(hf) {}
    /// Bounded variant over the page range [begin, end): the unit of work a
    /// SeqScan fragment claims from a shared MorselCursor. Unlike the
    /// unbounded iterator, which chases the live tail of a growing file, the
    /// bound is fixed at claim time.
    Iterator(HeapFile* hf, PageNo begin, PageNo end)
        : hf_(hf), page_(begin), end_page_(end) {}

    /// Advances to the next live tuple. Returns false at end-of-relation.
    /// On I/O error sets status() and returns false.
    bool Next(const char** tuple, uint32_t* len, TupleId* tid);

    /// Batch variant: fills `tuples[0..max)` with pointers to the next live
    /// tuples of the *current* page, never crossing a page boundary — the
    /// unit a page-granular batch bee (GCL-B) deforms in one call. Returns
    /// the count (0 at end-of-relation or on error; see status()). `*pin`
    /// receives its own pin on the backing page, so the pointers outlive
    /// this iterator's advance to the next page; a partially consumed page
    /// (max reached first) resumes at the following call.
    int NextPageBatch(const char** tuples, int max, PageGuard* pin);

    const Status& status() const { return status_; }

   private:
    HeapFile* hf_;
    PageGuard guard_;
    PageNo page_ = 0;
    /// kInvalidPageNo => unbounded (ends at the file's current last page).
    PageNo end_page_ = kInvalidPageNo;
    uint16_t slot_ = 0;
    bool page_loaded_ = false;
    Status status_;
  };

  Iterator Scan() { return Iterator(this); }
  /// Scan restricted to the page range [begin, end) — one morsel.
  Iterator Scan(PageNo begin, PageNo end) { return Iterator(this, begin, end); }

  /// Bulk appender: keeps the tail page pinned across inserts so loading
  /// does not pay a pin/unpin round trip per tuple.
  class BulkAppender {
   public:
    explicit BulkAppender(HeapFile* hf) : hf_(hf) {}
    Result<TupleId> Append(const char* tuple, uint32_t len);
    /// Stamps the WAL LSN onto the currently pinned tail page (no-op when
    /// nothing is pinned). Bulk loading logs per-tuple like Insert but the
    /// tail page stays pinned across appends, so the stamp rides here.
    void StampLsn(uint64_t lsn) {
      if (guard_.data() != nullptr) PageSetLsn(guard_.data(), lsn);
    }
    void Finish() { guard_.Release(); }

   private:
    HeapFile* hf_;
    PageGuard guard_;
    PageNo page_ = kInvalidPageNo;
  };

 private:
  friend class Iterator;
  friend class BulkAppender;

  BufferPool* pool_;
  std::unique_ptr<DiskManager> dm_;
  /// Append hint: last page known to have had free space.
  PageNo append_hint_ = kInvalidPageNo;
};

}  // namespace microspec

#endif  // MICROSPEC_STORAGE_HEAP_FILE_H_
