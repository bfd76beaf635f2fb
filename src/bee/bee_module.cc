#include "bee/bee_module.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/stat.h>

#include "storage/tuple.h"

namespace microspec::bee {

namespace {

/// Adapter exposing a relation bee's GCL routine as a TupleDeformer.
class GclDeformer final : public TupleDeformer {
 public:
  explicit GclDeformer(RelationBeeState* state) : state_(state) {}

  void Deform(const char* tuple, int natts, Datum* values,
              bool* isnull) const override {
    // Prefer the natively compiled routine on the fast (no NULLs) path; the
    // program backend handles the NULL slow path and serves as fallback.
    // The acquire load is the forge's swap-in point: a scan racing a
    // promotion keeps using the program tier and picks up the native
    // routine on its next tuple. The tier counters feed the forge's
    // hotness-ordered compile queue.
    TupleBeeManager* bees = state_->tuple_bees();
    NativeGclFn native = state_->native_gcl();
    // Per-call latency timing costs two clock reads per tuple, so it only
    // runs when the process-wide telemetry flag is up; the flag itself is a
    // relaxed load, cheap enough for this per-tuple path.
    const bool timed = telemetry::Enabled();
    const uint64_t t0 = timed ? telemetry::NowNs() : 0;
    if (native != nullptr &&
        (static_cast<uint8_t>(tuple[2]) & kTupleHasNulls) == 0) {
      state_->BumpNativeTier();
      workops::Bump(2 * static_cast<uint64_t>(natts));
      native(tuple, natts, values, reinterpret_cast<char*>(isnull),
             bees != nullptr ? bees->datum_table() : nullptr);
      if (timed) state_->native_deform_ns()->Observe(telemetry::NowNs() - t0);
      return;
    }
    state_->BumpProgramTier();
    state_->gcl().Execute(tuple, natts, values, isnull, bees);
    if (timed) state_->program_deform_ns()->Observe(telemetry::NowNs() - t0);
  }

  /// GCL-B: deforms all live tuples of one pinned page in a single call.
  /// The native batch routine (like its scalar sibling) assumes the
  /// no-nulls fixed layout, so one header-flag sweep decides the tier for
  /// the whole page; a page carrying any NULL tuple runs the program-tier
  /// batch loop, which handles mixed pages tuple by tuple.
  void DeformBatch(const char* const* tuples, int ntuples, int natts,
                   Datum* const* cols, bool* const* nulls) const override {
    if (ntuples <= 0) return;
    TupleBeeManager* bees = state_->tuple_bees();
    NativeGclBatchFn native = state_->native_gcl_batch();
    const bool timed = telemetry::Enabled();
    const uint64_t t0 = timed ? telemetry::NowNs() : 0;
    if (native != nullptr) {
      bool clean = true;
      for (int r = 0; r < ntuples; ++r) {
        if ((static_cast<uint8_t>(tuples[r][2]) & kTupleHasNulls) != 0) {
          clean = false;
          break;
        }
      }
      if (clean) {
        state_->BumpNativeBatchTier(static_cast<uint64_t>(ntuples));
        // One batch dispatch for the page; the scalar native tier pays
        // 2*natts per tuple, the page loop amortizes half of that away.
        workops::Bump(2 + static_cast<uint64_t>(natts) *
                              static_cast<uint64_t>(ntuples));
        std::vector<char*> nullp(static_cast<size_t>(natts));
        for (int c = 0; c < natts; ++c) {
          nullp[static_cast<size_t>(c)] = reinterpret_cast<char*>(nulls[c]);
        }
        native(tuples, ntuples, natts, cols, nullp.data(),
               bees != nullptr ? bees->datum_table() : nullptr);
        if (timed) {
          state_->native_deform_ns()->Observe(telemetry::NowNs() - t0);
        }
        return;
      }
    }
    state_->BumpProgramBatchTier(static_cast<uint64_t>(ntuples));
    state_->gcl().ExecuteBatch(tuples, ntuples, natts, cols, nulls, bees);
    if (timed) state_->program_deform_ns()->Observe(telemetry::NowNs() - t0);
  }

 private:
  RelationBeeState* state_;
};

/// Adapter exposing SCL (+ tuple-bee creation) as a TupleFormer.
class SclFormer final : public TupleFormer {
 public:
  explicit SclFormer(RelationBeeState* state) : state_(state) {}

  Status FormTuple(const Datum* values, const bool* isnull,
                   std::string* out) const override {
    state_->BumpProgramTier();  // SCL always runs on the program tier
    uint8_t bee_id = 0;
    bool has_bee = false;
    TupleBeeManager* bees = state_->tuple_bees();
    if (bees != nullptr) {
      // Specialized attributes must be NOT NULL (annotation contract).
      for (int c : state_->spec_cols()) {
        if (isnull != nullptr && isnull[c]) {
          return Status::InvalidArgument(
              "NULL in a tuple-bee specialized column");
        }
      }
      MICROSPEC_ASSIGN_OR_RETURN(bee_id, bees->Intern(values));
      has_bee = true;
    }
    if (state_->scl().applicable(isnull)) {
      state_->scl().Execute(values, bee_id, has_bee, out);
      return Status::OK();
    }
    // NULL-carrying tuples use the null-aware specialized variant (bitmap
    // writes folded in, offsets still resolved at bee-creation time).
    state_->scl().ExecuteNullable(values, isnull, bee_id, has_bee, out);
    return Status::OK();
  }

 private:
  RelationBeeState* state_;
};

void EnsureDir(const std::string& dir) {
  ::mkdir(dir.c_str(), 0755);
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
bool GetU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 4);
  *pos += 4;
  return true;
}
bool GetU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 8);
  *pos += 8;
  return true;
}

constexpr uint32_t kBeeCacheMagic = 0xBEEC0DEu;

}  // namespace

RelationBeeState::RelationBeeState(TableInfo* table,
                                   std::vector<int> spec_cols)
    : table_(table),
      name_(table->name()),
      spec_cols_(std::move(spec_cols)),
      // Value copy: forge workers verify/compile against this schema and
      // must not chase the TableInfo, which dies with a DROP TABLE.
      logical_(table->schema()) {
  std::vector<Column> stored_cols;
  for (int i = 0; i < logical_.natts(); ++i) {
    bool spec = false;
    for (int c : spec_cols_) spec = spec || (c == i);
    if (!spec) stored_cols.push_back(logical_.column(i));
  }
  stored_ = Schema(std::move(stored_cols));
}

Status RelationBeeState::Build(const BeeModuleOptions& options) {
  gcl_ = DeformProgram::Compile(logical_, stored_, spec_cols_);
  scl_ = FormProgram::Compile(logical_, stored_, spec_cols_);
  log_applier_ = LogApplierProgram::Compile(stored_, !spec_cols_.empty());
  if (!spec_cols_.empty()) {
    bees_ = std::make_unique<TupleBeeManager>(&logical_, spec_cols_);
  }
  // Static verification of the program tier before its routines become
  // reachable: a bad bee is a silent data-corruption bug, so a reject
  // refuses installation under kEnforce and degrades to a loud warning
  // under kWarn.
  if (options.verify != VerifyMode::kOff) {
    Status st = BeeVerifier::VerifyDeform(gcl_, logical_, stored_, spec_cols_);
    if (st.ok()) {
      st = BeeVerifier::VerifyForm(scl_, logical_, stored_, spec_cols_);
    }
    if (!st.ok()) {
      // Rejections surface through telemetry (counter + trace event), not
      // stderr; under kEnforce the relation bee is refused outright.
      if (BeeVerifier::ReportReject("relation", name_, st, options.verify)) {
        return Status(st.code(), "relation bee for '" + name_ +
                                     "' rejected: " + st.message());
      }
    }
    // The log applier answers to its own verifier family: a wrong constant
    // here re-installs corrupt tuples during redo rather than misreading
    // them during scans, so it is never installed unverified either.
    Status lst = BeeVerifier::VerifyLogApplier(log_applier_.steps(), logical_,
                                               stored_, spec_cols_);
    if (!lst.ok()) {
      if (BeeVerifier::ReportReject("logapp", name_, lst, options.verify)) {
        return Status(lst.code(), "log bee for '" + name_ +
                                      "' rejected: " + lst.message());
      }
    }
  }
  if (options.backend == BeeBackend::kNative &&
      NativeJit::CompilerAvailable()) {
    // The native tier is a second lowering of the programs just verified,
    // so every constant in the C text comes from a checked step. Lowering
    // is cheap string work and happens here, on the DDL thread; the
    // compiler invocation and the dlopen are the forge's job (bee/forge.h)
    // and never block CREATE TABLE in async mode. The log applier rides in
    // the same translation unit so the triple (scalar GCL, GCL-B, log
    // applier) ships and publishes atomically.
    native_symbol_ = "bee_gcl_t" + std::to_string(table_->id());
    native_source_ = NativeJit::LowerRelationBee(
        gcl_.steps(), log_applier_.steps(), native_symbol_);
  }
  deformer_ = std::make_unique<GclDeformer>(this);
  former_ = std::make_unique<SclFormer>(this);
  return Status::OK();
}

BeeModule::BeeModule(BeeModuleOptions options)
    : options_(std::move(options)),
      placement_(options_.placement_isolation) {
  if (!options_.cache_dir.empty()) EnsureDir(options_.cache_dir);
  if (options_.backend == BeeBackend::kNative &&
      NativeJit::CompilerAvailable()) {
    forge_ = std::make_unique<Forge>(&jit_, options_.cache_dir,
                                     options_.forge);
  }
}

BeeModule::~BeeModule() = default;

Status BeeModule::CreateRelationBees(TableInfo* table,
                                     bool enable_tuple_bees) {
  std::vector<int> spec_cols;
  if (enable_tuple_bees) {
    const Schema& s = table->schema();
    for (int i = 0; i < s.natts(); ++i) {
      if (s.column(i).low_cardinality() && s.column(i).not_null()) {
        spec_cols.push_back(i);
      }
    }
  }
  auto state = std::make_shared<RelationBeeState>(table, std::move(spec_cols));
  MICROSPEC_RETURN_NOT_OK(state->Build(options_));
  {
    std::unique_lock<std::shared_mutex> guard(mutex_);
    states_[table->id()] = state;
  }
  // Outside the catalog-facing lock: DDL holds mutex_ only for the map
  // insert, never across forge scheduling (which in sync mode compiles).
  ScheduleNative(state);
  return Status::OK();
}

void BeeModule::ScheduleNative(
    const std::shared_ptr<RelationBeeState>& state) {
  if (forge_ == nullptr || state->native_source().empty()) return;
  forge_->Enqueue(state);
}

void BeeModule::CollectTable(TableId id) {
  std::unique_lock<std::shared_mutex> guard(mutex_);
  auto it = states_.find(id);
  if (it == states_.end()) return;
  // A forge job may still hold a reference; the flag turns its eventual
  // verify/compile/publish into a no-op.
  it->second->MarkCollected();
  states_.erase(it);
}

RelationBeeState* BeeModule::StateFor(TableId id) {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  auto it = states_.find(id);
  return it == states_.end() ? nullptr : it->second.get();
}

void BeeModule::Quiesce() {
  if (forge_ != nullptr) forge_->Quiesce();
}

const TupleDeformer* BeeModule::DeformerFor(TableInfo* table,
                                            const SessionOptions& opts) {
  RelationBeeState* state = StateFor(table->id());
  if (state == nullptr) return nullptr;
  // Relations with tuple bees cannot be read by the generic loop: their
  // stored layout omits the specialized attributes. GCL is mandatory there.
  if (state->has_tuple_bees()) return state->deformer();
  return opts.enable_gcl ? state->deformer() : nullptr;
}

const TupleFormer* BeeModule::FormerFor(TableInfo* table,
                                        const SessionOptions& opts) {
  RelationBeeState* state = StateFor(table->id());
  if (state == nullptr) return nullptr;
  if (state->has_tuple_bees()) return state->former();
  return opts.enable_scl ? state->former() : nullptr;
}

std::unique_ptr<PredicateEvaluator> BeeModule::SpecializePredicate(
    const Expr& expr, const SessionOptions& opts,
    const std::vector<ColMeta>* input_meta) {
  if (!opts.enable_evp) return nullptr;
  std::unique_ptr<PredicateEvaluator> bee = TrySpecializePredicateChecked(
      expr, &placement_, /*input_nullable=*/true, input_meta,
      options_.verify);
  if (bee != nullptr) evp_created_.fetch_add(1, std::memory_order_relaxed);
  return bee;
}

std::unique_ptr<JoinKeyEvaluator> BeeModule::SpecializeJoinKeys(
    const std::vector<int>& outer_cols, const std::vector<int>& inner_cols,
    const std::vector<ColMeta>& key_meta, const SessionOptions& opts,
    int outer_width, int inner_width) {
  if (!opts.enable_evj) return nullptr;
  std::unique_ptr<JoinKeyEvaluator> bee = TrySpecializeJoinKeysChecked(
      outer_cols, inner_cols, key_meta, &placement_, outer_width,
      inner_width, options_.verify);
  if (bee != nullptr) evj_created_.fetch_add(1, std::memory_order_relaxed);
  return bee;
}

Status BeeModule::SaveCache() const {
  if (options_.cache_dir.empty()) return Status::OK();
  std::string out;
  PutU32(&out, kBeeCacheMagic);
  std::shared_lock<std::shared_mutex> guard(mutex_);
  PutU32(&out, static_cast<uint32_t>(states_.size()));
  for (const auto& [id, state] : states_) {
    PutU32(&out, id);
    PutU64(&out, state->table()->schema().LayoutFingerprint());
    PutU32(&out, static_cast<uint32_t>(state->spec_cols().size()));
    for (int c : state->spec_cols()) PutU32(&out, static_cast<uint32_t>(c));
    const TupleBeeManager* bees = state->tuple_bees();
    uint32_t nsec =
        bees == nullptr ? 0 : static_cast<uint32_t>(bees->num_sections());
    PutU32(&out, nsec);
    for (uint32_t i = 0; i < nsec; ++i) {
      const DataSection* s = bees->section(static_cast<uint8_t>(i));
      PutU32(&out, static_cast<uint32_t>(s->blob.size()));
      out.append(s->blob);
    }
  }
  std::ofstream f(options_.cache_dir + "/beecache.msb", std::ios::binary);
  if (!f) return Status::IoError("cannot write bee cache");
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  return f.good() ? Status::OK() : Status::IoError("bee cache write failed");
}

Status BeeModule::LoadCache(Catalog* catalog, bool enable_tuple_bees) {
  (void)enable_tuple_bees;
  std::ifstream f(options_.cache_dir + "/beecache.msb", std::ios::binary);
  if (!f) return Status::NotFound("no bee cache");
  std::string in((std::istreambuf_iterator<char>(f)),
                 std::istreambuf_iterator<char>());
  size_t pos = 0;
  uint32_t magic = 0;
  uint32_t count = 0;
  if (!GetU32(in, &pos, &magic) || magic != kBeeCacheMagic ||
      !GetU32(in, &pos, &count)) {
    return Status::Corruption("bee cache header");
  }
  for (uint32_t t = 0; t < count; ++t) {
    uint32_t id = 0;
    uint64_t fp = 0;
    uint32_t nspec = 0;
    if (!GetU32(in, &pos, &id) || !GetU64(in, &pos, &fp) ||
        !GetU32(in, &pos, &nspec)) {
      return Status::Corruption("bee cache entry");
    }
    std::vector<int> spec_cols;
    for (uint32_t i = 0; i < nspec; ++i) {
      uint32_t c = 0;
      if (!GetU32(in, &pos, &c)) return Status::Corruption("bee cache spec");
      spec_cols.push_back(static_cast<int>(c));
    }
    uint32_t nsec = 0;
    if (!GetU32(in, &pos, &nsec)) return Status::Corruption("bee cache nsec");
    TableInfo* table = catalog->GetTable(static_cast<TableId>(id));
    if (table == nullptr) {
      return Status::Corruption("bee cache references unknown table");
    }
    // Bee Reconstruction: schema changed since the cache was written means
    // the bee must be rebuilt from scratch; sections cannot be trusted.
    if (table->schema().LayoutFingerprint() != fp) {
      return Status::Corruption("bee cache fingerprint mismatch");
    }
    auto state = std::make_shared<RelationBeeState>(table, spec_cols);
    MICROSPEC_RETURN_NOT_OK(state->Build(options_));
    for (uint32_t i = 0; i < nsec; ++i) {
      uint32_t len = 0;
      if (!GetU32(in, &pos, &len) || pos + len > in.size()) {
        return Status::Corruption("bee cache section");
      }
      MICROSPEC_RETURN_NOT_OK(
          state->tuple_bees()->RestoreSection(in.substr(pos, len)));
      pos += len;
    }
    {
      std::unique_lock<std::shared_mutex> guard(mutex_);
      states_[static_cast<TableId>(id)] = state;
    }
    // Bee Reconstruction re-enters the promotion pipeline: reloaded
    // relations start on the program tier and regain native code async.
    ScheduleNative(state);
  }
  return Status::OK();
}

BeeStats BeeModule::stats() const {
  BeeStats s;
  // Forge snapshot first: its mutex is never taken while mutex_ is held (nor
  // vice versa), keeping the two services free of lock-order coupling.
  if (forge_ != nullptr) s.forge = forge_->stats();
  std::shared_lock<std::shared_mutex> guard(mutex_);
  for (const auto& [id, state] : states_) {
    (void)id;
    ++s.relation_bees;
    if (state->has_native_gcl()) ++s.native_gcl_routines;
    s.program_tier_invocations += state->program_tier_invocations();
    s.native_tier_invocations += state->native_tier_invocations();
    s.program_batch_tier_invocations += state->program_batch_calls();
    s.native_batch_tier_invocations += state->native_batch_calls();
    TupleBeeManager* bees = state->tuple_bees();
    if (bees != nullptr) {
      ++s.tuple_bee_relations;
      s.tuple_sections += bees->num_sections();
      s.section_bytes += bees->section_bytes();
    }
  }
  s.evp_bees_created = evp_created_.load(std::memory_order_relaxed);
  s.evj_bees_created = evj_created_.load(std::memory_order_relaxed);
  return s;
}

void BeeModule::FillTelemetry(telemetry::TelemetrySnapshot* snap) const {
  BeeStats agg = stats();
  snap->AddCounter("microspec_bee_tier_invocations_total",
                   static_cast<double>(agg.program_tier_invocations),
                   {{"tier", "program"}});
  snap->AddCounter("microspec_bee_tier_invocations_total",
                   static_cast<double>(agg.native_tier_invocations),
                   {{"tier", "native"}});
  // GCL-B page-batch calls (each covering a whole page; the per-tuple share
  // is already folded into the program/native tier counters above).
  snap->AddCounter("microspec_bee_batch_calls_total",
                   static_cast<double>(agg.program_batch_tier_invocations),
                   {{"tier", "program"}});
  snap->AddCounter("microspec_bee_batch_calls_total",
                   static_cast<double>(agg.native_batch_tier_invocations),
                   {{"tier", "native"}});
  snap->AddGauge("microspec_bee_relation_bees", agg.relation_bees);
  snap->AddGauge("microspec_bee_native_gcl_routines", agg.native_gcl_routines);
  snap->AddCounter("microspec_bee_evp_created_total",
                   static_cast<double>(agg.evp_bees_created));
  snap->AddCounter("microspec_bee_evj_created_total",
                   static_cast<double>(agg.evj_bees_created));
  snap->AddCounter("microspec_forge_enqueued_total",
                   static_cast<double>(agg.forge.enqueued));
  snap->AddCounter("microspec_forge_promotions_total",
                   static_cast<double>(agg.forge.promotions));
  snap->AddCounter("microspec_forge_retries_total",
                   static_cast<double>(agg.forge.retries));
  snap->AddCounter("microspec_forge_failures_total",
                   static_cast<double>(agg.forge.failures));
  snap->AddCounter("microspec_forge_pinned_total",
                   static_cast<double>(agg.forge.pinned));
  snap->AddCounter("microspec_forge_cancelled_total",
                   static_cast<double>(agg.forge.cancelled));
  snap->AddCounter("microspec_forge_compile_seconds_total",
                   agg.forge.compile_seconds_total);

  std::shared_lock<std::shared_mutex> guard(mutex_);
  for (const auto& [id, state] : states_) {
    (void)id;
    const std::string& rel = state->table_name();
    snap->AddCounter("microspec_bee_relation_invocations_total",
                     static_cast<double>(state->program_tier_invocations()),
                     {{"relation", rel}, {"tier", "program"}});
    snap->AddCounter("microspec_bee_relation_invocations_total",
                     static_cast<double>(state->native_tier_invocations()),
                     {{"relation", rel}, {"tier", "native"}});
    snap->AddCounter("microspec_bee_relation_batch_calls_total",
                     static_cast<double>(state->program_batch_calls()),
                     {{"relation", rel}, {"tier", "program"}});
    snap->AddCounter("microspec_bee_relation_batch_calls_total",
                     static_cast<double>(state->native_batch_calls()),
                     {{"relation", rel}, {"tier", "native"}});
    snap->AddGauge("microspec_bee_forge_phase",
                   static_cast<double>(state->forge_phase()),
                   {{"relation", rel},
                    {"phase", ForgePhaseName(state->forge_phase())}});
    telemetry::Histogram::Snapshot prog = state->program_deform_ns()->Snap();
    if (!prog.empty()) {
      snap->AddHistogram("microspec_bee_deform_latency_ns", prog,
                         {{"relation", rel}, {"tier", "program"}});
    }
    telemetry::Histogram::Snapshot nat = state->native_deform_ns()->Snap();
    if (!nat.empty()) {
      snap->AddHistogram("microspec_bee_deform_latency_ns", nat,
                         {{"relation", rel}, {"tier", "native"}});
    }
  }
}

}  // namespace microspec::bee
