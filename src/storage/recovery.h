#ifndef MICROSPEC_STORAGE_RECOVERY_H_
#define MICROSPEC_STORAGE_RECOVERY_H_

#include <cstdint>

#include "common/result.h"
#include "common/status.h"
#include "storage/wal.h"

namespace microspec {

class Database;

/// What one restart recovery did. Surfaced via Database::last_recovery()
/// so tests can assert on the shape of the run (e.g. a clean shutdown
/// redoes nothing; a kill -9 mid-commit undoes exactly the losers).
struct RecoveryStats {
  bool ran = false;
  uint64_t records_scanned = 0;
  uint64_t redo_applied = 0;
  uint64_t redo_skipped = 0;  // page LSN already past the record
  uint64_t txns_committed = 0;
  uint64_t txns_undone = 0;
  uint64_t clrs_appended = 0;
  uint64_t pages_rebuilt = 0;  // torn/corrupt pages re-imaged from the log
};

/// ARIES-lite restart. One forward pass over the log (Wal::Replay) does
/// analysis and redo together: it tracks the open transactions, rebuilds the
/// in-memory catalog from DDL records and the tuple-bee slabs from
/// kBeeSection records, and repeats history (redo gated on page LSNs,
/// applied through the per-relation log bees). It holds one record at a
/// time, so its memory follows the open transactions, not the log's length.
/// Then it undoes the loser transactions writing CLRs, and rebuilds tuple
/// counts and B+tree indexes by heap scan. Called by Database::Open when
/// wal_enabled; the database must be freshly opened (empty catalog, clean
/// buffer pool).
Result<RecoveryStats> RunRecovery(Database* db);

/// Shared by restart undo and runtime rollback (Database::AbortTxn): walks
/// one transaction's prev_lsn chain backwards from `last_lsn`, applying the
/// page-level inverse of each DML record through the relation's log bee and
/// appending one CLR per undone record. Skips records already compensated
/// (CLR undo_next jumps). When `fix_indexes` is true the B+tree entries and
/// tuple counts are corrected too (runtime rollback; restart undo instead
/// rebuilds indexes wholesale after the pass). Does not append kAbort —
/// the caller does, with prev = the last CLR's start-LSN (returned in
/// `*out_last_lsn`).
Status UndoTransactionChain(Database* db, uint64_t txn_id, uint64_t last_lsn,
                            bool fix_indexes, uint64_t* out_last_lsn,
                            uint64_t* clrs_appended);

}  // namespace microspec

#endif  // MICROSPEC_STORAGE_RECOVERY_H_
