#include "server/stmt_cache.h"

#include <cctype>

#include "common/telemetry.h"
#include "common/tracing.h"
#include "sqlfe/parser.h"

namespace microspec::server {

namespace {

telemetry::Counter* HitCounter() {
  static telemetry::Counter* c = telemetry::Registry::Global().GetCounter(
      "microspec_stmt_cache_hits_total");
  return c;
}

telemetry::Counter* MissCounter() {
  static telemetry::Counter* c = telemetry::Registry::Global().GetCounter(
      "microspec_stmt_cache_misses_total");
  return c;
}

telemetry::Counter* EvictionCounter() {
  static telemetry::Counter* c = telemetry::Registry::Global().GetCounter(
      "microspec_stmt_cache_evictions_total");
  return c;
}

}  // namespace

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_string = false;  // inside a '...' literal
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (in_string) {
      out.push_back(c);
      if (c == '\'') {
        // '' is an escaped quote, not a terminator.
        if (i + 1 < sql.size() && sql[i + 1] == '\'') {
          out.push_back(sql[++i]);
        } else {
          in_string = false;
        }
      }
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    if (c == '\'') {
      in_string = true;
      out.push_back(c);
      continue;
    }
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

Result<std::shared_ptr<const sqlfe::Statement>> StmtCache::GetOrParse(
    const std::string& sql, uint64_t ddl_epoch) {
  const std::string key = NormalizeSql(sql);
  std::shared_ptr<Entry> entry;
  bool created = false;

  {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second->epoch != ddl_epoch) {
      // Stale: DDL happened since this entry was parsed. Drop and rebuild.
      lru_.erase(it->second->lru_it);
      entries_.erase(it);
      it = entries_.end();
    }
    if (it == entries_.end()) {
      entry = std::make_shared<Entry>();
      entry->epoch = ddl_epoch;
      lru_.push_front(key);
      entry->lru_it = lru_.begin();
      entries_.emplace(key, entry);
      created = true;
      ++misses_;
      while (entries_.size() > capacity_) {
        const std::string& victim = lru_.back();
        entries_.erase(victim);
        lru_.pop_back();
        ++evictions_;
        EvictionCounter()->Add(1);
      }
    } else {
      entry = it->second;
      lru_.splice(lru_.begin(), lru_, entry->lru_it);  // touch
      ++hits_;
    }
  }
  if (created) {
    MissCounter()->Add(1);
  } else {
    HitCounter()->Add(1);
  }

  // Parse outside the cache lock; racing sessions on the same fresh entry
  // serialize on its once-flag only.
  std::call_once(entry->once, [&] {
    const uint64_t t0 = telemetry::NowNs();
    Result<sqlfe::Statement> parsed = sqlfe::Parse(key);
    if (parsed.ok()) {
      entry->stmt = std::make_shared<const sqlfe::Statement>(
          std::move(parsed.MoveValue()));
    } else {
      entry->error = parsed.status();
    }
    trace::RecordBuild("stmt:", key, t0, parsed.status());
  });

  if (entry->stmt == nullptr) return entry->error;
  return std::shared_ptr<const sqlfe::Statement>(entry->stmt);
}

StmtCache::Stats StmtCache::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  return s;
}

}  // namespace microspec::server
