#include "exec/shared_bees.h"

#include "common/telemetry.h"
#include "common/tracing.h"

namespace microspec {

namespace {

/// Binary, self-delimiting serialization: every field is either fixed-width
/// or length-prefixed, so distinct trees can never serialize identically.

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendBytes(std::string* out, const void* p, size_t n) {
  AppendU32(out, static_cast<uint32_t>(n));
  out->append(static_cast<const char*>(p), n);
}

void AppendMeta(std::string* out, const ColMeta& m) {
  out->push_back(static_cast<char>(m.type));
  AppendU32(out, static_cast<uint32_t>(m.attlen));
}

/// The value bytes of a constant Datum of type `meta` — byref payloads are
/// serialized by content, so equal-looking pointers to different bytes (and
/// vice versa) fingerprint correctly.
void AppendDatum(std::string* out, Datum d, const ColMeta& meta) {
  switch (meta.type) {
    case TypeId::kBool:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kFloat64:
      AppendU64(out, static_cast<uint64_t>(d));
      return;
    case TypeId::kChar:
      AppendBytes(out, DatumToPointer(d), static_cast<size_t>(meta.attlen));
      return;
    case TypeId::kVarchar: {
      std::string_view sv = VarlenaView(d);
      AppendBytes(out, sv.data(), sv.size());
      return;
    }
  }
}

void AppendExpr(std::string* out, const Expr& e) {
  out->push_back(static_cast<char>(e.kind()));
  switch (e.kind()) {
    case ExprKind::kVar: {
      const auto& v = static_cast<const VarExpr&>(e);
      out->push_back(static_cast<char>(v.side()));
      AppendU32(out, static_cast<uint32_t>(v.attno()));
      AppendMeta(out, v.meta());
      return;
    }
    case ExprKind::kConst: {
      const auto& c = static_cast<const ConstExpr&>(e);
      AppendMeta(out, c.meta());
      out->push_back(c.is_null_const() ? 1 : 0);
      if (!c.is_null_const()) AppendDatum(out, c.value(), c.meta());
      return;
    }
    case ExprKind::kCmp: {
      const auto& c = static_cast<const CmpExpr&>(e);
      out->push_back(static_cast<char>(c.op()));
      AppendExpr(out, *c.lhs());
      AppendExpr(out, *c.rhs());
      return;
    }
    case ExprKind::kArith: {
      const auto& a = static_cast<const ArithExpr&>(e);
      out->push_back(static_cast<char>(a.op()));
      AppendExpr(out, *a.lhs());
      AppendExpr(out, *a.rhs());
      return;
    }
    case ExprKind::kBool: {
      const auto& b = static_cast<const BoolExpr&>(e);
      out->push_back(static_cast<char>(b.op()));
      AppendU32(out, static_cast<uint32_t>(b.children().size()));
      for (const ExprPtr& c : b.children()) AppendExpr(out, *c);
      return;
    }
    case ExprKind::kLike: {
      const auto& l = static_cast<const LikeExpr&>(e);
      out->push_back(static_cast<char>(l.mode()));
      out->push_back(l.negated() ? 1 : 0);
      AppendBytes(out, l.needle().data(), l.needle().size());
      AppendExpr(out, *l.input());
      return;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      AppendMeta(out, in.item_meta());
      AppendU32(out, static_cast<uint32_t>(in.items().size()));
      for (Datum d : in.items()) AppendDatum(out, d, in.item_meta());
      AppendExpr(out, *in.input());
      return;
    }
  }
}

void AppendMetaList(std::string* out, const std::vector<ColMeta>* meta) {
  if (meta == nullptr) {
    AppendU32(out, 0xFFFFFFFFu);
    return;
  }
  AppendU32(out, static_cast<uint32_t>(meta->size()));
  for (const ColMeta& m : *meta) AppendMeta(out, m);
}

telemetry::Counter* CacheHits() {
  static telemetry::Counter* c = telemetry::Registry::Global().GetCounter(
      "microspec_query_bee_cache_hits_total");
  return c;
}

telemetry::Counter* CacheMisses() {
  static telemetry::Counter* c = telemetry::Registry::Global().GetCounter(
      "microspec_query_bee_cache_misses_total");
  return c;
}

/// Shared find-or-build over one of the two entry maps. The map mutex is
/// held only for the lookup; the (possibly expensive) builder runs under the
/// entry's own once-flag so concurrent sessions preparing the same shape
/// block on each other, never on unrelated keys.
template <typename Evaluator, typename Map, typename Builder>
std::shared_ptr<Evaluator> GetOrBuild(std::mutex* mutex, Map* map,
                                      uint64_t* hits, uint64_t* misses,
                                      const std::string& key,
                                      const Builder& build,
                                      const char* trace_prefix) {
  std::shared_ptr<typename Map::mapped_type::element_type> entry;
  bool created = false;
  {
    std::lock_guard<std::mutex> guard(*mutex);
    auto& slot = (*map)[key];
    if (slot == nullptr) {
      slot = std::make_shared<typename Map::mapped_type::element_type>();
      created = true;
    }
    entry = slot;
    if (created) {
      ++*misses;
    } else {
      ++*hits;
    }
  }
  if (created) {
    CacheMisses()->Add(1);
  } else {
    CacheHits()->Add(1);
  }
  std::call_once(entry->once, [&] {
    const uint64_t t0 = telemetry::NowNs();
    entry->bee = build();
    trace::RecordBuild(trace_prefix, key, t0,
                       entry->bee != nullptr
                           ? Status::OK()
                           : Status::NotSupported("not specializable"));
  });
  return entry->bee;
}

}  // namespace

std::string ExprFingerprint(const Expr& expr,
                            const std::vector<ColMeta>* input_meta) {
  std::string out = "evp|";
  AppendMetaList(&out, input_meta);
  AppendExpr(&out, expr);
  return out;
}

std::string JoinKeysFingerprint(const std::vector<int>& outer_cols,
                                const std::vector<int>& inner_cols,
                                const std::vector<ColMeta>& key_meta,
                                int outer_width, int inner_width) {
  std::string out = "evj|";
  AppendU32(&out, static_cast<uint32_t>(outer_width));
  AppendU32(&out, static_cast<uint32_t>(inner_width));
  AppendU32(&out, static_cast<uint32_t>(outer_cols.size()));
  for (size_t i = 0; i < outer_cols.size(); ++i) {
    AppendU32(&out, static_cast<uint32_t>(outer_cols[i]));
    AppendU32(&out, static_cast<uint32_t>(inner_cols[i]));
    AppendMeta(&out, key_meta[i]);
  }
  return out;
}

std::shared_ptr<PredicateEvaluator> QueryBeeCache::GetOrBuildPredicate(
    const std::string& key, const PredicateBuilder& build) {
  return GetOrBuild<PredicateEvaluator>(&mutex_, &predicates_, &hits_,
                                        &misses_, key, build, "evp:");
}

std::shared_ptr<JoinKeyEvaluator> QueryBeeCache::GetOrBuildJoinKeys(
    const std::string& key, const JoinKeysBuilder& build) {
  return GetOrBuild<JoinKeyEvaluator>(&mutex_, &join_keys_, &hits_, &misses_,
                                      key, build, "evj:");
}

void QueryBeeCache::Invalidate() {
  std::lock_guard<std::mutex> guard(mutex_);
  predicates_.clear();
  join_keys_.clear();
}

QueryBeeCache::Stats QueryBeeCache::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.entries = predicates_.size() + join_keys_.size();
  return s;
}

}  // namespace microspec
