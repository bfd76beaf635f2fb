#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/wal.h"
#include "test_util.h"

namespace microspec {
namespace {

using testing::ScratchDir;

TEST(SlottedPage, InsertAndGet) {
  char data[kPageSize];
  SlottedPage::Init(data);
  SlottedPage page(data);
  int s0 = page.InsertTuple("hello", 5);
  int s1 = page.InsertTuple("world!", 6);
  ASSERT_EQ(s0, 0);
  ASSERT_EQ(s1, 1);
  uint32_t len = 0;
  const char* t0 = page.GetTuple(0, &len);
  EXPECT_EQ(std::string(t0, len), "hello");
  const char* t1 = page.GetTuple(1, &len);
  EXPECT_EQ(std::string(t1, len), "world!");
}

TEST(SlottedPage, DeleteMakesSlotDead) {
  char data[kPageSize];
  SlottedPage::Init(data);
  SlottedPage page(data);
  page.InsertTuple("abc", 3);
  page.DeleteTuple(0);
  uint32_t len = 0;
  EXPECT_EQ(page.GetTuple(0, &len), nullptr);
}

TEST(SlottedPage, UpdateInPlaceWithinFootprint) {
  char data[kPageSize];
  SlottedPage::Init(data);
  SlottedPage page(data);
  page.InsertTuple("12345678", 8);
  EXPECT_TRUE(page.UpdateTupleInPlace(0, "abc", 3));
  uint32_t len = 0;
  const char* t = page.GetTuple(0, &len);
  EXPECT_EQ(std::string(t, len), "abc");
  // Growing beyond the aligned footprint must be refused.
  EXPECT_FALSE(page.UpdateTupleInPlace(0, "0123456789ABCDEF0", 17));
}

TEST(SlottedPage, FillsUntilFull) {
  char data[kPageSize];
  SlottedPage::Init(data);
  SlottedPage page(data);
  char tuple[100];
  std::memset(tuple, 'x', sizeof(tuple));
  int inserted = 0;
  while (page.InsertTuple(tuple, sizeof(tuple)) >= 0) ++inserted;
  // 100 bytes align to 104 + 4-byte slot: ~75 tuples in an 8 KiB page.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
  // All inserted tuples remain readable.
  for (int i = 0; i < inserted; ++i) {
    uint32_t len = 0;
    ASSERT_NE(page.GetTuple(static_cast<uint16_t>(i), &len), nullptr);
    EXPECT_EQ(len, sizeof(tuple));
  }
}

/// A slotted page with fixed-seed tuples and LSN, zero-filled first so the
/// free gap is deterministic too.
void MakeFixedPage(char* data) {
  std::memset(data, 0, kPageSize);
  SlottedPage::Init(data);
  SlottedPage page(data);
  Rng rng(2012);
  for (int i = 0; i < 40; ++i) {
    std::string tuple = rng.AlnumString(20, 120);
    ASSERT_GE(page.InsertTuple(tuple.data(),
                               static_cast<uint32_t>(tuple.size())),
              0);
  }
  PageSetLsn(data, 0x0123456789ABCDEFull);
}

// The pinned values below were recorded with the byte-at-a-time CRC-32C
// that predates the dispatched kernel: they fix the on-disk page and log
// formats, so databases and logs written by either build open in the other.
constexpr uint32_t kFixedPageChecksum = 0xFC6C420Du;
constexpr uint32_t kFixedWalRecordCrc = 0xE95E9C0Au;

TEST(PageChecksum, StampedValueIsPinned) {
  alignas(8) char data[kPageSize];
  MakeFixedPage(data);
  PageStampChecksum(data);
  uint32_t stored = 0;
  std::memcpy(&stored, data + kPageChecksumOffset, sizeof(stored));
  EXPECT_EQ(stored, kFixedPageChecksum);
  EXPECT_TRUE(PageChecksumOk(data));
}

TEST(PageChecksum, AnySingleBitFlipIsCaught) {
  alignas(8) char data[kPageSize];
  MakeFixedPage(data);
  PageStampChecksum(data);
  Rng rng(512);
  for (int i = 0; i < 512; ++i) {
    uint64_t bit = rng.Uniform(uint64_t{kPageSize} * 8);
    char mask = static_cast<char>(1u << (bit % 8));
    data[bit / 8] ^= mask;
    EXPECT_FALSE(PageChecksumOk(data)) << "bit " << bit;
    data[bit / 8] ^= mask;
  }
  EXPECT_TRUE(PageChecksumOk(data));
}

TEST(WalFormat, RecordCrcIsPinned) {
  ScratchDir dir;
  std::string path = dir.path() + "/wal.log";
  {
    Wal::Options opts;
    opts.group_commit = false;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Wal> wal, Wal::Open(path, opts));
    std::string payload;
    walenc::EncodeTupleOp(&payload, 3, MakeTupleId(17, 5), "abcdef", 6);
    Wal::AppendResult r = wal->Append(WalRecordType::kInsert, 7, 0, payload);
    ASSERT_OK(wal->Commit(r.end_lsn));
  }
  std::ifstream f(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  ASSERT_GE(bytes.size(), sizeof(WalRecordHeader));
  uint32_t crc = 0;
  std::memcpy(&crc, bytes.data(), sizeof(crc));
  EXPECT_EQ(crc, kFixedWalRecordCrc);
}

TEST(DiskManager, PagesPersistAcrossReopen) {
  ScratchDir dir;
  IoStats stats;
  std::string path = dir.path() + "/file.dat";
  char page[kPageSize];
  std::memset(page, 0x5A, sizeof(page));
  {
    DiskManager dm;
    ASSERT_OK(dm.Open(path, &stats));
    PageNo no = 0;
    ASSERT_OK(dm.AllocatePage(&no));
    ASSERT_OK(dm.WritePage(no, page));
  }
  {
    DiskManager dm;
    ASSERT_OK(dm.Open(path, &stats));
    EXPECT_EQ(dm.num_pages(), 1u);
    char readback[kPageSize];
    ASSERT_OK(dm.ReadPage(0, readback));
    EXPECT_EQ(std::memcmp(page, readback, kPageSize), 0);
  }
  EXPECT_EQ(stats.pages_read.Value(), 1u);
  EXPECT_GE(stats.pages_written.Value(), 1u);
}

TEST(BufferPool, HitAvoidsDiskRead) {
  ScratchDir dir;
  IoStats stats;
  BufferPool pool(8, &stats);
  DiskManager dm;
  ASSERT_OK(dm.Open(dir.path() + "/f.dat", &stats));
  pool.RegisterFile(&dm);
  PageNo no = 0;
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.NewPage(&dm, &no));
    g.data()[0] = 'A';
    g.MarkDirty();
  }
  stats.Reset();
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(dm.file_id(), no));
    EXPECT_EQ(g.data()[0], 'A');
  }
  EXPECT_EQ(stats.pages_read.Value(), 0u);
  EXPECT_EQ(stats.buffer_hits.Value(), 1u);
}

TEST(BufferPool, EvictionWritesBackDirtyPages) {
  ScratchDir dir;
  IoStats stats;
  BufferPool pool(2, &stats);  // tiny pool forces eviction
  DiskManager dm;
  ASSERT_OK(dm.Open(dir.path() + "/f.dat", &stats));
  pool.RegisterFile(&dm);
  PageNo pages[4];
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.NewPage(&dm, &pages[i]));
    g.data()[0] = static_cast<char>('a' + i);
    g.MarkDirty();
  }
  // Every page must read back with its content despite eviction churn.
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(dm.file_id(), pages[i]));
    EXPECT_EQ(g.data()[0], static_cast<char>('a' + i));
  }
}

TEST(BufferPool, AllPinnedIsResourceExhausted) {
  ScratchDir dir;
  IoStats stats;
  BufferPool pool(2, &stats);
  DiskManager dm;
  ASSERT_OK(dm.Open(dir.path() + "/f.dat", &stats));
  pool.RegisterFile(&dm);
  PageNo p0 = 0;
  PageNo p1 = 0;
  PageNo p2 = 0;
  ASSERT_OK_AND_ASSIGN(PageGuard g0, pool.NewPage(&dm, &p0));
  ASSERT_OK_AND_ASSIGN(PageGuard g1, pool.NewPage(&dm, &p1));
  auto r = pool.NewPage(&dm, &p2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPool, DropAllFlushesAndEvicts) {
  ScratchDir dir;
  IoStats stats;
  BufferPool pool(8, &stats);
  DiskManager dm;
  ASSERT_OK(dm.Open(dir.path() + "/f.dat", &stats));
  pool.RegisterFile(&dm);
  PageNo no = 0;
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.NewPage(&dm, &no));
    g.data()[7] = 'Z';
    g.MarkDirty();
  }
  ASSERT_OK(pool.DropAll());
  stats.Reset();
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(dm.file_id(), no));
    EXPECT_EQ(g.data()[7], 'Z');
  }
  EXPECT_EQ(stats.pages_read.Value(), 1u);  // cold: had to hit disk
}

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stats_ = std::make_unique<IoStats>();
    pool_ = std::make_unique<BufferPool>(64, stats_.get());
    auto dm = std::make_unique<DiskManager>();
    ASSERT_OK(dm->Open(dir_.path() + "/heap.dat", stats_.get()));
    heap_ = std::make_unique<HeapFile>(pool_.get(), std::move(dm));
  }

  ScratchDir dir_;
  std::unique_ptr<IoStats> stats_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapFile> heap_;
};

TEST_F(HeapFileTest, InsertFetchRoundTrip) {
  ASSERT_OK_AND_ASSIGN(TupleId tid, heap_->Insert("tuple-bytes", 11));
  char buf[64];
  uint32_t len = 0;
  ASSERT_OK(heap_->Fetch(tid, buf, sizeof(buf), &len));
  EXPECT_EQ(std::string(buf, len), "tuple-bytes");
}

TEST_F(HeapFileTest, ScanSeesAllLiveTuples) {
  for (int i = 0; i < 500; ++i) {
    std::string t = "tuple-" + std::to_string(i);
    ASSERT_OK(heap_->Insert(t.data(), static_cast<uint32_t>(t.size())).status());
  }
  auto it = heap_->Scan();
  const char* tuple = nullptr;
  uint32_t len = 0;
  TupleId tid = 0;
  int count = 0;
  while (it.Next(&tuple, &len, &tid)) ++count;
  ASSERT_OK(it.status());
  EXPECT_EQ(count, 500);
}

TEST_F(HeapFileTest, DeleteHidesTupleFromScanAndFetch) {
  ASSERT_OK_AND_ASSIGN(TupleId t0, heap_->Insert("aaa", 3));
  ASSERT_OK_AND_ASSIGN(TupleId t1, heap_->Insert("bbb", 3));
  (void)t1;
  ASSERT_OK(heap_->Delete(t0));
  char buf[16];
  uint32_t len = 0;
  EXPECT_EQ(heap_->Fetch(t0, buf, sizeof(buf), &len).code(),
            StatusCode::kNotFound);
  auto it = heap_->Scan();
  const char* tuple = nullptr;
  TupleId tid = 0;
  int count = 0;
  while (it.Next(&tuple, &len, &tid)) ++count;
  EXPECT_EQ(count, 1);
}

TEST_F(HeapFileTest, UpdateInPlaceKeepsTid) {
  ASSERT_OK_AND_ASSIGN(TupleId tid, heap_->Insert("12345678", 8));
  ASSERT_OK_AND_ASSIGN(TupleId tid2, heap_->Update(tid, "abcdefgh", 8));
  EXPECT_EQ(tid, tid2);
}

TEST_F(HeapFileTest, UpdateThatGrowsMovesTuple) {
  ASSERT_OK_AND_ASSIGN(TupleId tid, heap_->Insert("abc", 3));
  std::string big(200, 'y');
  ASSERT_OK_AND_ASSIGN(
      TupleId tid2, heap_->Update(tid, big.data(),
                                  static_cast<uint32_t>(big.size())));
  EXPECT_NE(tid, tid2);
  char buf[256];
  uint32_t len = 0;
  ASSERT_OK(heap_->Fetch(tid2, buf, sizeof(buf), &len));
  EXPECT_EQ(std::string(buf, len), big);
  EXPECT_EQ(heap_->Fetch(tid, buf, sizeof(buf), &len).code(),
            StatusCode::kNotFound);
}

TEST_F(HeapFileTest, BulkAppenderMatchesScan) {
  HeapFile::BulkAppender appender(heap_.get());
  for (int i = 0; i < 2000; ++i) {
    std::string t(1 + i % 90, static_cast<char>('a' + i % 26));
    ASSERT_OK(
        appender.Append(t.data(), static_cast<uint32_t>(t.size())).status());
  }
  appender.Finish();
  auto it = heap_->Scan();
  const char* tuple = nullptr;
  uint32_t len = 0;
  TupleId tid = 0;
  int count = 0;
  while (it.Next(&tuple, &len, &tid)) {
    EXPECT_EQ(len, 1u + count % 90);
    ++count;
  }
  EXPECT_EQ(count, 2000);
}

TEST_F(HeapFileTest, FetchBadSlotIsNotFound) {
  char buf[8];
  uint32_t len = 0;
  EXPECT_EQ(heap_->Fetch(MakeTupleId(999, 0), buf, 8, &len).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace microspec
