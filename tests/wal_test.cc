#include "storage/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "test_util.h"

namespace microspec {
namespace {

using testing::ScratchDir;

class WalTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  std::unique_ptr<Wal> OpenWal(bool group_commit = true, int window_us = 0) {
    Wal::Options opts;
    opts.group_commit = group_commit;
    opts.group_commit_window_us = window_us;
    opts.stats = &stats_;
    auto res = Wal::Open(path(), opts);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() ? res.MoveValue() : nullptr;
  }

  std::string path() const { return dir_.path() + "/wal.log"; }

  ScratchDir dir_;
  IoStats stats_;
};

TEST_F(WalTest, AppendFlushReadBack) {
  std::vector<Wal::AppendResult> appended;
  {
    auto wal = OpenWal();
    std::string p1;
    walenc::EncodeTupleOp(&p1, 3, 42, "abcdef", 6);
    appended.push_back(wal->Append(WalRecordType::kBegin, 7, 0, ""));
    appended.push_back(wal->Append(WalRecordType::kInsert, 7,
                                   appended[0].start_lsn, p1));
    appended.push_back(wal->Append(WalRecordType::kCommit, 7,
                                   appended[1].start_lsn, ""));
    ASSERT_OK(wal->Commit(appended[2].end_lsn));
    EXPECT_EQ(wal->durable_offset(), appended[2].end_lsn);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records, Wal::ReadAll(path()));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(records[1].type, WalRecordType::kInsert);
  EXPECT_EQ(records[2].type, WalRecordType::kCommit);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(records[i].start_lsn, appended[i].start_lsn);
    EXPECT_EQ(records[i].end_lsn, appended[i].end_lsn);
    EXPECT_EQ(records[i].txn_id, 7u);
  }
  EXPECT_EQ(records[1].prev_lsn, appended[0].start_lsn);
  uint32_t table = 0;
  TupleId tid = 0;
  std::string img;
  ASSERT_TRUE(walenc::DecodeTupleOp(records[1].payload, &table, &tid, &img));
  EXPECT_EQ(table, 3u);
  EXPECT_EQ(tid, 42u);
  EXPECT_EQ(img, "abcdef");
}

TEST_F(WalTest, ReadRecordCoversPendingBuffer) {
  auto wal = OpenWal();
  Wal::AppendResult a = wal->Append(WalRecordType::kBegin, 1, 0, "");
  Wal::AppendResult b =
      wal->Append(WalRecordType::kCheckpoint, 0, 0, "payload");
  // Nothing flushed yet; both records must still be readable.
  ASSERT_OK_AND_ASSIGN(WalRecord ra, wal->ReadRecord(a.start_lsn));
  EXPECT_EQ(ra.type, WalRecordType::kBegin);
  ASSERT_OK(wal->Flush());
  ASSERT_OK_AND_ASSIGN(WalRecord rb, wal->ReadRecord(b.start_lsn));
  EXPECT_EQ(rb.payload, "payload");
}

TEST_F(WalTest, TornTailTruncatedAtOpen) {
  uint64_t good_end = 0;
  {
    auto wal = OpenWal();
    wal->Append(WalRecordType::kBegin, 1, 0, "");
    good_end = wal->Append(WalRecordType::kCommit, 1, 0, "").end_lsn;
    ASSERT_OK(wal->Flush());
  }
  // Simulate a torn final write: garbage bytes after the last record.
  {
    std::ofstream f(path(), std::ios::binary | std::ios::app);
    f.write("torngarbagetorngarbage", 22);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records, Wal::ReadAll(path()));
  EXPECT_EQ(records.size(), 2u);
  {
    // Open truncates the tail so new appends land at the valid end.
    auto wal = OpenWal();
    EXPECT_EQ(wal->append_offset(), good_end);
    Wal::AppendResult c = wal->Append(WalRecordType::kBegin, 2, 0, "");
    ASSERT_OK(wal->Commit(c.end_lsn));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> after, Wal::ReadAll(path()));
  EXPECT_EQ(after.size(), 3u);
}

TEST_F(WalTest, CorruptRecordStopsReadAll) {
  uint64_t second_start = 0;
  {
    auto wal = OpenWal();
    wal->Append(WalRecordType::kBegin, 1, 0, "aaaa");
    second_start = wal->Append(WalRecordType::kBegin, 2, 0, "bbbb").start_lsn;
    wal->Append(WalRecordType::kBegin, 3, 0, "cccc");
    ASSERT_OK(wal->Flush());
  }
  {
    // Flip one payload byte of the second record: CRC must catch it and the
    // scan must stop there, keeping only the first record.
    std::fstream f(path(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(second_start - 1 +
                                        sizeof(WalRecordHeader)));
    f.put('X');
  }
  ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records, Wal::ReadAll(path()));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "aaaa");
}

/// Appends records of varied payload sizes until the log is longer than
/// `min_bytes`, flushes, and returns what was appended (payload i is filled
/// with a byte derived from i so misplaced bytes show up).
struct AppendedRecord {
  Wal::AppendResult lsns;
  std::string payload;
};
std::vector<AppendedRecord> AppendPast(Wal* wal, uint64_t min_bytes) {
  std::vector<AppendedRecord> out;
  for (uint64_t i = 0; wal->append_offset() <= min_bytes; ++i) {
    std::string payload(3000 + (i * 977) % 20000,
                        static_cast<char>('a' + i % 26));
    Wal::AppendResult r =
        wal->Append(WalRecordType::kInsert, i + 1, 0, payload);
    out.push_back({r, std::move(payload)});
  }
  EXPECT_OK(wal->Flush());
  return out;
}

TEST_F(WalTest, RecordStraddlingScanChunkReadsBack) {
  std::vector<AppendedRecord> appended;
  {
    auto wal = OpenWal(/*group_commit=*/false);
    appended = AppendPast(wal.get(), 2 * Wal::kScanChunkBytes + 1);
  }
  // At least one record spans the first chunk's end, so the scan has to
  // refill mid-record.
  bool straddles = false;
  for (const AppendedRecord& a : appended) {
    straddles |= a.lsns.start_lsn - 1 < Wal::kScanChunkBytes &&
                 a.lsns.end_lsn > Wal::kScanChunkBytes;
  }
  ASSERT_TRUE(straddles);
  ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records, Wal::ReadAll(path()));
  ASSERT_EQ(records.size(), appended.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].start_lsn, appended[i].lsns.start_lsn);
    EXPECT_EQ(records[i].end_lsn, appended[i].lsns.end_lsn);
    EXPECT_EQ(records[i].txn_id, i + 1);
    EXPECT_EQ(records[i].payload, appended[i].payload) << "record " << i;
  }
  // Open finds no torn tail.
  auto wal = OpenWal();
  EXPECT_EQ(wal->append_offset(), appended.back().lsns.end_lsn);
}

TEST_F(WalTest, TornTailInsideLastChunkTruncatedAtOpen) {
  // Cut the last record inside its header, then inside its payload; both
  // lie past the first chunk, so the tear is found by a later refill.
  for (uint64_t keep_of_last : {uint64_t{10}, uint64_t{500}}) {
    std::vector<AppendedRecord> appended;
    {
      auto wal = OpenWal(/*group_commit=*/false);
      appended = AppendPast(wal.get(), Wal::kScanChunkBytes + 100000);
    }
    const uint64_t last_start = appended.back().lsns.start_lsn - 1;
    ASSERT_GT(last_start, Wal::kScanChunkBytes);
    ASSERT_EQ(::truncate(path().c_str(),
                         static_cast<off_t>(last_start + keep_of_last)),
              0);
    ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records,
                         Wal::ReadAll(path()));
    ASSERT_EQ(records.size(), appended.size() - 1);
    EXPECT_EQ(records.back().end_lsn, last_start);
    {
      auto wal = OpenWal();
      EXPECT_EQ(wal->append_offset(), last_start);
    }
    std::ifstream f(path(), std::ios::binary | std::ios::ate);
    EXPECT_EQ(static_cast<uint64_t>(f.tellg()), last_start);
    std::remove(path().c_str());
  }
}

TEST_F(WalTest, MaxPayloadIsTheLargestRecord) {
  uint64_t max_start = 0;
  uint64_t valid_end = 0;
  {
    auto wal = OpenWal(/*group_commit=*/false);
    max_start = wal->Append(WalRecordType::kInsert, 1, 0,
                            std::string(Wal::kMaxPayload, 'm'))
                    .start_lsn;
    valid_end = wal->Append(WalRecordType::kCommit, 1, max_start, "").end_lsn;
    // One byte over the bound reads as garbage: the scan stops before it.
    wal->Append(WalRecordType::kInsert, 2, 0,
                std::string(Wal::kMaxPayload + 1, 'x'));
    ASSERT_OK(wal->Flush());
  }
  ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records, Wal::ReadAll(path()));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, std::string(Wal::kMaxPayload, 'm'));
  EXPECT_EQ(records[1].end_lsn, valid_end);
  auto wal = OpenWal();
  EXPECT_EQ(wal->append_offset(), valid_end);
  ASSERT_OK_AND_ASSIGN(WalRecord rec, wal->ReadRecord(max_start));
  EXPECT_EQ(rec.payload.size(), Wal::kMaxPayload);
}

TEST_F(WalTest, GroupCommitOneFsyncPerBatch) {
  constexpr int kThreads = 8;
  auto wal = OpenWal(/*group_commit=*/true, /*window_us=*/100000);
  // Everything below rides one flusher batch: all records are appended
  // before any committer asks for durability.
  const uint64_t fsyncs_before = stats_.wal_fsyncs.Value();
  std::vector<uint64_t> end_lsn(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    end_lsn[i] =
        wal->Append(WalRecordType::kCommit, static_cast<uint64_t>(i + 1), 0,
                    "group")
            .end_lsn;
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      if (!wal->Commit(end_lsn[i]).ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The proof metric: N concurrent committers, exactly one fdatasync.
  EXPECT_EQ(stats_.wal_fsyncs.Value() - fsyncs_before, 1u);
  EXPECT_EQ(stats_.wal_records.Value(), static_cast<uint64_t>(kThreads));
}

TEST_F(WalTest, InlineCommitFsyncsEachTime) {
  auto wal = OpenWal(/*group_commit=*/false);
  const uint64_t fsyncs_before = stats_.wal_fsyncs.Value();
  for (int i = 0; i < 5; ++i) {
    uint64_t end =
        wal->Append(WalRecordType::kCommit, static_cast<uint64_t>(i + 1), 0,
                    "solo")
            .end_lsn;
    ASSERT_OK(wal->Commit(end));
  }
  EXPECT_EQ(stats_.wal_fsyncs.Value() - fsyncs_before, 5u);
}

TEST_F(WalTest, FlushUpToIsADurabilityFloor) {
  auto wal = OpenWal();
  uint64_t first = wal->Append(WalRecordType::kBegin, 1, 0, "").end_lsn;
  wal->Append(WalRecordType::kBegin, 2, 0, "");
  ASSERT_OK(wal->FlushUpTo(first));
  EXPECT_GE(wal->durable_offset(), first);
}

TEST_F(WalTest, StickySyncError) {
  auto wal = OpenWal();
  uint64_t end = wal->Append(WalRecordType::kBegin, 1, 0, "").end_lsn;
  failpoint::Arm("wal.presync", FailpointAction::kFailSync, 1);
  EXPECT_FALSE(wal->Commit(end).ok());
  // The error is sticky: the log refuses to pretend a later retry fixed
  // durability the kernel may already have dropped.
  uint64_t end2 = wal->Append(WalRecordType::kBegin, 2, 0, "").end_lsn;
  EXPECT_FALSE(wal->Commit(end2).ok());
}

TEST_F(WalTest, SimulateCrashDropsOnlyPendingBuffer) {
  uint64_t durable_end = 0;
  {
    auto wal = OpenWal();
    durable_end = wal->Append(WalRecordType::kBegin, 1, 0, "keep").end_lsn;
    ASSERT_OK(wal->Commit(durable_end));
    wal->Append(WalRecordType::kBegin, 2, 0, "lose");
    wal->SimulateCrashForTests();
  }
  ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records, Wal::ReadAll(path()));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "keep");
}

/// TSan target: concurrent committers racing a simulated kill. The crash
/// must be an ordinary (if fatal) state transition — no data race, no
/// deadlock, committers just start failing.
TEST_F(WalTest, CommitCrashRaceIsClean) {
  auto wal = OpenWal(/*group_commit=*/true, /*window_us=*/100);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      uint64_t txn = static_cast<uint64_t>(i) * 1000000 + 1;
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t end =
            wal->Append(WalRecordType::kCommit, txn++, 0, "race").end_lsn;
        if (!wal->Commit(end).ok()) break;  // crashed underneath us
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  wal->SimulateCrashForTests();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  // The file still parses cleanly up to the last durable batch.
  ASSERT_OK(Wal::ReadAll(path()).status());
}

}  // namespace
}  // namespace microspec
