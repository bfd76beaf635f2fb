#ifndef MICROSPEC_SERVER_STMT_CACHE_H_
#define MICROSPEC_SERVER_STMT_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/macros.h"
#include "common/result.h"
#include "sqlfe/ast.h"

namespace microspec::server {

/// Normalizes SQL text into the cache's canonical form: whitespace runs
/// collapse to one space, characters outside quoted literals fold to lower
/// case, and a trailing semicolon is dropped — so "SELECT  * FROM t;" and
/// "select * from t" share one cache entry (and therefore one parse and one
/// set of forged query bees). Quoted literal bytes pass through untouched.
std::string NormalizeSql(const std::string& sql);

/// --- Process-wide prepared-statement cache ----------------------------------
/// Maps normalized SQL to its parsed AST, shared across every session of the
/// server. The entry is built exactly once per distinct statement shape
/// (per-entry once-flag — K sessions racing on the same PARSE block on one
/// parse, never duplicate it), LRU-evicted beyond `capacity`, and stamped
/// with the database's DDL epoch at build time: any CREATE/DROP TABLE makes
/// every older entry stale, so the next lookup rebuilds against the new
/// catalog instead of executing a plan that binds dropped tables.
///
/// This is the first level of the shared bee economy: the second is the
/// engine's QueryBeeCache, which the cached statement's executions feed.
/// Each entry records a "queued"/"succeeded stmt:<hash>" span pair on the
/// background lane (trace::RecordBuild), giving tests exact build-once
/// accounting.
///
/// Parse failures are cached negatively (the entry holds the error), so a
/// client replaying a malformed statement does not reparse it each time;
/// such entries count toward capacity and age out like any other.
class StmtCache {
 public:
  explicit StmtCache(size_t capacity) : capacity_(capacity) {}
  MICROSPEC_DISALLOW_COPY_AND_MOVE(StmtCache);

  /// Returns the parsed statement for `sql` (normalizing first), parsing
  /// and inserting on miss. `ddl_epoch` is the database's current epoch:
  /// entries stamped with an older epoch are treated as misses and rebuilt.
  /// The returned Statement is immutable and shared; it stays valid after
  /// eviction or invalidation for as long as the caller holds the pointer.
  Result<std::shared_ptr<const sqlfe::Statement>> GetOrParse(
      const std::string& sql, uint64_t ddl_epoch);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;     // includes stale-epoch rebuilds
    uint64_t evictions = 0;  // capacity evictions (not epoch invalidations)
    size_t entries = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const sqlfe::Statement> stmt;  // null if parse failed
    Status error;      // set when stmt == nullptr
    uint64_t epoch = 0;
    std::list<std::string>::iterator lru_it;
  };

  mutable std::mutex mutex_;
  size_t capacity_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::list<std::string> lru_;  // front = most recent
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace microspec::server

#endif  // MICROSPEC_SERVER_STMT_CACHE_H_
