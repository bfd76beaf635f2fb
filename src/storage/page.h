#ifndef MICROSPEC_STORAGE_PAGE_H_
#define MICROSPEC_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>

#include "common/align.h"
#include "common/crc32c.h"
#include "common/macros.h"

namespace microspec {

/// Pages are 8 KiB, PostgreSQL's default block size.
inline constexpr uint32_t kPageSize = 8192;

/// Page number within a heap file.
using PageNo = uint32_t;
inline constexpr PageNo kInvalidPageNo = 0xFFFFFFFFu;

/// Identifies a tuple: (page number, slot index) packed into 64 bits.
using TupleId = uint64_t;
inline constexpr TupleId kInvalidTupleId = ~TupleId{0};

inline TupleId MakeTupleId(PageNo page, uint16_t slot) {
  return (static_cast<TupleId>(page) << 16) | slot;
}
inline PageNo TupleIdPage(TupleId tid) {
  return static_cast<PageNo>(tid >> 16);
}
inline uint16_t TupleIdSlot(TupleId tid) {
  return static_cast<uint16_t>(tid & 0xFFFF);
}

/// Byte layout of the page header. Exported as constants (rather than only
/// a private struct) because the native log-bee applier is lowered to C that
/// burns these offsets in as literals.
///
///   [0,8)    lsn       end-LSN of the last WAL record applied (WAL rule)
///   [8,12)   checksum  CRC-32C over the page with this field zeroed
///   [12,14)  slot_count
///   [14,16)  free_start  first free byte after the slot array
///   [16,18)  free_end    first used byte of tuple data
///   [18,20)  flags
///   [20,24)  reserved
inline constexpr uint32_t kPageLsnOffset = 0;
inline constexpr uint32_t kPageChecksumOffset = 8;
inline constexpr uint32_t kPageSlotCountOffset = 12;
inline constexpr uint32_t kPageFreeStartOffset = 14;
inline constexpr uint32_t kPageFreeEndOffset = 16;
inline constexpr uint32_t kPageFlagsOffset = 18;
inline constexpr uint32_t kPageHeaderSize = 24;
inline constexpr uint32_t kPageSlotSize = 4;

/// Page-LSN accessors work on raw buffers so the buffer pool can consult
/// them without constructing a SlottedPage.
inline uint64_t PageGetLsn(const char* page) {
  uint64_t lsn;
  std::memcpy(&lsn, page + kPageLsnOffset, sizeof(lsn));
  return lsn;
}
inline void PageSetLsn(char* page, uint64_t lsn) {
  std::memcpy(page + kPageLsnOffset, &lsn, sizeof(lsn));
}

/// An all-zero page is a freshly allocated, never-initialised page; it is
/// valid without a checksum (AllocatePage extends files with zeros).
inline bool PageIsZero(const char* page) {
  for (uint32_t i = 0; i < kPageSize; ++i) {
    if (page[i] != 0) return false;
  }
  return true;
}

/// CRC over the whole page with the checksum field treated as zero.
inline uint32_t PageComputeChecksum(const char* page) {
  static constexpr uint32_t kZero = 0;
  uint32_t crc = Crc32c(page, kPageChecksumOffset);
  crc = Crc32c(&kZero, sizeof(kZero), crc);
  return Crc32c(page + kPageChecksumOffset + 4,
                kPageSize - kPageChecksumOffset - 4, crc);
}

inline void PageStampChecksum(char* page) {
  uint32_t crc = PageComputeChecksum(page);
  std::memcpy(page + kPageChecksumOffset, &crc, sizeof(crc));
}

/// True if the stored checksum matches (or the page is all zeros). A torn
/// 512-byte sector write leaves a mismatch, which ReadPage reports as
/// corruption and recovery repairs from the log.
inline bool PageChecksumOk(const char* page) {
  uint32_t stored;
  std::memcpy(&stored, page + kPageChecksumOffset, sizeof(stored));
  if (stored == 0 && PageIsZero(page)) return true;
  return stored == PageComputeChecksum(page);
}

/// A slotted heap page laid out over a raw kPageSize buffer:
///
///   [ header | slot array (grows up) ... free ... tuple data (grows down) ]
///
/// Slot entries are (offset, length); length 0 marks a dead slot (the offset
/// is preserved, which is what lets redo re-install a tuple into its original
/// position). Tuples are stored 8-byte aligned so deformed pointer Datums
/// honor kMaxAlign.
class SlottedPage {
 public:
  explicit SlottedPage(char* data) : data_(data) {}

  /// Formats an empty page.
  static void Init(char* data) {
    Header* h = reinterpret_cast<Header*>(data);
    h->lsn = 0;
    h->checksum = 0;
    h->slot_count = 0;
    h->free_start = sizeof(Header);
    h->free_end = kPageSize;
    h->flags = 0;
    h->reserved[0] = 0;
    h->reserved[1] = 0;
  }

  uint16_t slot_count() const { return header()->slot_count; }

  /// Free bytes available for one more tuple (accounts for its slot entry).
  uint32_t FreeSpaceForTuple() const {
    const Header* h = header();
    uint32_t gap = h->free_end - h->free_start;
    return gap >= sizeof(Slot) ? gap - sizeof(Slot) : 0;
  }

  /// Inserts a tuple; returns the slot index or -1 if it does not fit.
  int InsertTuple(const char* tuple, uint32_t len) {
    Header* h = header();
    uint32_t need = AlignUp32(len, kMaxAlign);
    if (FreeSpaceForTuple() < need) return -1;
    h->free_end = static_cast<uint16_t>(h->free_end - need);
    std::memcpy(data_ + h->free_end, tuple, len);
    Slot* s = slot(h->slot_count);
    s->offset = h->free_end;
    s->length = static_cast<uint16_t>(len);
    h->free_start = static_cast<uint16_t>(h->free_start + sizeof(Slot));
    return h->slot_count++;
  }

  /// Returns tuple bytes for `slot_idx`, or nullptr if the slot is dead.
  const char* GetTuple(uint16_t slot_idx, uint32_t* len) const {
    MICROSPEC_DCHECK(slot_idx < slot_count());
    const Slot* s = slot(slot_idx);
    if (s->length == 0) return nullptr;
    *len = s->length;
    return data_ + s->offset;
  }

  /// Marks a slot dead. Space is not compacted (as in PG before VACUUM).
  void DeleteTuple(uint16_t slot_idx) {
    MICROSPEC_DCHECK(slot_idx < slot_count());
    slot(slot_idx)->length = 0;
  }

  /// Re-installs a tuple into a dead slot at its preserved offset — the
  /// undo of DeleteTuple, used by recovery. Fails if the slot is live, out
  /// of range, or the image would not fit at the preserved offset.
  bool RestoreTuple(uint16_t slot_idx, const char* tuple, uint32_t len) {
    if (slot_idx >= slot_count()) return false;
    Slot* s = slot(slot_idx);
    if (s->length != 0) return false;
    if (static_cast<uint32_t>(s->offset) + len > kPageSize) return false;
    std::memcpy(data_ + s->offset, tuple, len);
    s->length = static_cast<uint16_t>(len);
    return true;
  }

  /// Overwrites a tuple in place; only legal when new_len fits in the slot's
  /// original aligned footprint. Returns false otherwise.
  bool UpdateTupleInPlace(uint16_t slot_idx, const char* tuple,
                          uint32_t new_len) {
    MICROSPEC_DCHECK(slot_idx < slot_count());
    Slot* s = slot(slot_idx);
    if (s->length == 0) return false;
    if (AlignUp32(new_len, kMaxAlign) > AlignUp32(s->length, kMaxAlign)) {
      return false;
    }
    std::memcpy(data_ + s->offset, tuple, new_len);
    s->length = static_cast<uint16_t>(new_len);
    return true;
  }

 private:
  struct Header {
    uint64_t lsn;
    uint32_t checksum;
    uint16_t slot_count;
    uint16_t free_start;  // first free byte after the slot array
    uint16_t free_end;    // first used byte of tuple data
    uint16_t flags;
    uint16_t reserved[2];
  };
  static_assert(sizeof(Header) == kPageHeaderSize, "header layout drift");
  struct Slot {
    uint16_t offset;
    uint16_t length;  // 0 = dead
  };
  static_assert(sizeof(Slot) == kPageSlotSize, "slot layout drift");

  Header* header() { return reinterpret_cast<Header*>(data_); }
  const Header* header() const { return reinterpret_cast<const Header*>(data_); }
  Slot* slot(uint16_t i) {
    return reinterpret_cast<Slot*>(data_ + sizeof(Header)) + i;
  }
  const Slot* slot(uint16_t i) const {
    return reinterpret_cast<const Slot*>(data_ + sizeof(Header)) + i;
  }

  char* data_;
};

}  // namespace microspec

#endif  // MICROSPEC_STORAGE_PAGE_H_
