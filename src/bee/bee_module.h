#ifndef MICROSPEC_BEE_BEE_MODULE_H_
#define MICROSPEC_BEE_BEE_MODULE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bee/deform_program.h"
#include "bee/forge.h"
#include "bee/log_bee.h"
#include "bee/native_jit.h"
#include "bee/placement.h"
#include "bee/query_bee.h"
#include "bee/tuple_bee.h"
#include "bee/verifier.h"
#include "catalog/catalog.h"
#include "common/telemetry.h"
#include "exec/operator.h"

namespace microspec::bee {

/// How relation-bee routines are materialized.
enum class BeeBackend : uint8_t {
  /// Bee-creation-time compiled straight-line programs run by a threaded
  /// dispatcher. Portable; the deterministic default for benchmarks.
  kProgram,
  /// Runtime C code generation + system compiler + dlopen, the paper's gcc
  /// path (Section III-B). The program backend is installed synchronously at
  /// CREATE TABLE and the native routine is promoted asynchronously by the
  /// forge (see bee/forge.h); falls back to kProgram when no compiler exists
  /// or for tuples that need the NULL slow path.
  kNative,
};

struct BeeModuleOptions {
  BeeBackend backend = BeeBackend::kProgram;
  /// Bee Placement Optimizer: isolate bee contexts on dedicated cache lines.
  bool placement_isolation = true;
  /// Directory for generated bee sources/objects and the on-disk bee cache.
  std::string cache_dir;
  /// Static verification of freshly compiled bee programs before they are
  /// installed; the native tier is lowered from the verified programs.
  /// Tests run under kEnforce.
  VerifyMode verify = VerifyMode::kOff;
  /// Background native-compilation service configuration (kNative only).
  ForgeOptions forge;
};

/// Aggregate bee statistics (surfaced by the engine and bee_inspector).
struct BeeStats {
  int relation_bees = 0;
  int native_gcl_routines = 0;
  int tuple_bee_relations = 0;
  int tuple_sections = 0;
  size_t section_bytes = 0;
  uint64_t evp_bees_created = 0;
  uint64_t evj_bees_created = 0;
  /// Deform/form invocations served by each tier across all relations.
  uint64_t program_tier_invocations = 0;
  uint64_t native_tier_invocations = 0;
  /// Batch (GCL-B) deform calls per tier; each call covers a whole page.
  uint64_t program_batch_tier_invocations = 0;
  uint64_t native_batch_tier_invocations = 0;
  /// Forge activity (all zero on a program-backend module).
  ForgeStats forge;
};

/// Per-relation bee: the stored-layout schema, the GCL/SCL routines
/// (program and optionally native), and the tuple-bee manager.
///
/// The native routine pointer is the forge's publish point: workers install
/// it with a release store after the off-thread compile, and the deform hot
/// path reads it with an acquire load per tuple — a scan racing a promotion
/// keeps executing the program tier and picks up native code on its next
/// tuple, with no pause and no torn state.
class RelationBeeState {
 public:
  RelationBeeState(TableInfo* table, std::vector<int> spec_cols);
  MICROSPEC_DISALLOW_COPY_AND_MOVE(RelationBeeState);

  /// Compiles the GCL/SCL/log-applier programs, verifies them per
  /// `options.verify` before they become reachable, and then, when the
  /// native backend is requested, lowers them to C (but does not compile
  /// it). Native compilation is the forge's job — nothing here shells out
  /// to a compiler.
  Status Build(const BeeModuleOptions& options);

  const Schema& logical_schema() const { return logical_; }
  const Schema& stored_schema() const { return stored_; }
  const std::vector<int>& spec_cols() const { return spec_cols_; }
  bool has_tuple_bees() const { return !spec_cols_.empty(); }
  TupleBeeManager* tuple_bees() { return bees_.get(); }
  const DeformProgram& gcl() const { return gcl_; }
  const FormProgram& scl() const { return scl_; }
  /// The program-tier log bee: the checked redo/undo applier recovery runs
  /// WAL records through (bee/log_bee.h).
  const LogApplierProgram& log_applier() const { return log_applier_; }
  const std::string& native_source() const { return native_source_; }
  const std::string& native_symbol() const { return native_symbol_; }
  /// Copied at creation so forge diagnostics survive a DROP TABLE.
  const std::string& table_name() const { return name_; }

  const TupleDeformer* deformer() const { return deformer_.get(); }
  const TupleFormer* former() const { return former_.get(); }
  TableInfo* table() { return table_; }

  /// --- tier state (lock-free; written by forge workers) ---------------------

  bool has_native_gcl() const { return native_gcl() != nullptr; }
  NativeGclFn native_gcl() const {
    return native_gcl_.load(std::memory_order_acquire);
  }
  /// The GCL-B page-batch routine; published together with the scalar
  /// routine (same shared object, same forge promotion).
  NativeGclBatchFn native_gcl_batch() const {
    return native_gclb_.load(std::memory_order_acquire);
  }
  /// The native-tier log applier; published with the GCL pair (same shared
  /// object, same forge promotion). Recovery prefers it, falls back to the
  /// program tier when the forge has not promoted yet.
  NativeLogApplyFn native_log_apply() const {
    return native_la_.load(std::memory_order_acquire);
  }

  ForgePhase forge_phase() const {
    return phase_.load(std::memory_order_acquire);
  }
  /// Last compile diagnostic; meaningful once kPinned is observed
  /// (written before the phase's release store).
  const std::string& forge_error() const { return forge_error_; }

  /// Atomic publish: called by a forge worker (or the sync path) after the
  /// routines have been compiled and dlopened. The batch routine is stored
  /// first so any thread that observes the scalar tier as native finds its
  /// batch sibling already in place (each store is release; the hot paths
  /// load each pointer with its own acquire anyway).
  void PublishNative(NativeGclFn fn, NativeGclBatchFn batch_fn = nullptr,
                     NativeLogApplyFn la_fn = nullptr) {
    native_la_.store(la_fn, std::memory_order_release);
    native_gclb_.store(batch_fn, std::memory_order_release);
    native_gcl_.store(fn, std::memory_order_release);
    phase_.store(ForgePhase::kPromoted, std::memory_order_release);
  }
  /// Permanently degrades this relation to the program tier.
  void PinToProgram(std::string error) {
    forge_error_ = std::move(error);
    phase_.store(ForgePhase::kPinned, std::memory_order_release);
  }
  void SetForgePhase(ForgePhase phase) {
    phase_.store(phase, std::memory_order_release);
  }

  /// The relation was dropped; in-flight forge work becomes a no-op.
  void MarkCollected() { collected_.store(true, std::memory_order_release); }
  bool collected() const { return collected_.load(std::memory_order_acquire); }

  /// --- hotness counters (bumped on every deform/form call) ------------------
  /// Relaxed: the counts order the forge queue and feed stats; they never
  /// synchronize other memory.

  void BumpProgramTier() {
    program_invocations_.fetch_add(1, std::memory_order_relaxed);
  }
  void BumpNativeTier() {
    native_invocations_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Batch (GCL-B) calls; `ntuples` keeps hotness comparable to the scalar
  /// counters — one page-batch call represents that many tuple deforms.
  void BumpProgramBatchTier(uint64_t ntuples) {
    program_batch_calls_.fetch_add(1, std::memory_order_relaxed);
    program_invocations_.fetch_add(ntuples, std::memory_order_relaxed);
  }
  void BumpNativeBatchTier(uint64_t ntuples) {
    native_batch_calls_.fetch_add(1, std::memory_order_relaxed);
    native_invocations_.fetch_add(ntuples, std::memory_order_relaxed);
  }
  uint64_t program_tier_invocations() const {
    return program_invocations_.load(std::memory_order_relaxed);
  }
  uint64_t native_tier_invocations() const {
    return native_invocations_.load(std::memory_order_relaxed);
  }
  uint64_t program_batch_calls() const {
    return program_batch_calls_.load(std::memory_order_relaxed);
  }
  uint64_t native_batch_calls() const {
    return native_batch_calls_.load(std::memory_order_relaxed);
  }
  /// Total observed hotness — the forge's priority key. Batch calls already
  /// feed the per-tuple counters, so hotness keeps its per-tuple meaning.
  uint64_t invocations() const {
    return program_tier_invocations() + native_tier_invocations();
  }

  /// --- per-call deform latency ----------------------------------------------
  /// Observed only when telemetry::Enabled() — the timing (two clock reads
  /// per tuple) is far costlier than the histograms' relaxed atomics.

  telemetry::Histogram* program_deform_ns() { return &program_deform_ns_; }
  telemetry::Histogram* native_deform_ns() { return &native_deform_ns_; }

 private:
  TableInfo* table_;
  std::string name_;
  std::vector<int> spec_cols_;
  /// Value copies: a forge worker may still be compiling against
  /// these after the catalog entry (and TableInfo) is gone.
  Schema logical_;
  Schema stored_;
  DeformProgram gcl_;
  FormProgram scl_;
  LogApplierProgram log_applier_;
  std::atomic<NativeGclFn> native_gcl_{nullptr};
  std::atomic<NativeGclBatchFn> native_gclb_{nullptr};
  std::atomic<NativeLogApplyFn> native_la_{nullptr};
  std::atomic<ForgePhase> phase_{ForgePhase::kProgram};
  std::atomic<bool> collected_{false};
  std::atomic<uint64_t> program_invocations_{0};
  std::atomic<uint64_t> native_invocations_{0};
  std::atomic<uint64_t> program_batch_calls_{0};
  std::atomic<uint64_t> native_batch_calls_{0};
  telemetry::Histogram program_deform_ns_;
  telemetry::Histogram native_deform_ns_;
  std::string forge_error_;
  std::string native_source_;
  std::string native_symbol_;
  std::unique_ptr<TupleBeeManager> bees_;
  std::unique_ptr<TupleDeformer> deformer_;
  std::unique_ptr<TupleFormer> former_;
};

/// The Generic Bee Module (Section IV): creates relation/tuple/query bees,
/// caches them, answers the engine's Bee Caller through the BeeHooks
/// interface, garbage-collects bees of dropped relations, and owns the forge
/// that promotes hot relations to natively compiled routines.
class BeeModule final : public BeeHooks {
 public:
  explicit BeeModule(BeeModuleOptions options);
  ~BeeModule() override;
  MICROSPEC_DISALLOW_COPY_AND_MOVE(BeeModule);

  /// DDL-compiler hook: creates the relation bee (GCL + SCL) for a freshly
  /// created table; when `enable_tuple_bees`, columns annotated
  /// low-cardinality (and NOT NULL) become tuple-bee specialized. Under the
  /// native backend this installs the program tier synchronously and
  /// enqueues native compilation to the forge — the calling (DDL) thread
  /// never invokes the system compiler in async mode.
  Status CreateRelationBees(TableInfo* table, bool enable_tuple_bees);

  /// The Bee Collector: drops all bees belonging to a dropped relation.
  void CollectTable(TableId id);

  RelationBeeState* StateFor(TableId id);

  /// Drains the forge (no-op on a program-backend module): afterwards every
  /// relation bee is promoted, pinned, or cancelled — nothing in flight.
  void Quiesce();

  /// nullptr unless the native backend is active and a compiler exists.
  Forge* forge() { return forge_.get(); }

  /// --- BeeHooks (the Bee Caller seam) ---------------------------------------
  const TupleDeformer* DeformerFor(TableInfo* table,
                                   const SessionOptions& opts) override;
  const TupleFormer* FormerFor(TableInfo* table,
                               const SessionOptions& opts) override;
  std::unique_ptr<PredicateEvaluator> SpecializePredicate(
      const Expr& expr, const SessionOptions& opts,
      const std::vector<ColMeta>* input_meta) override;
  std::unique_ptr<JoinKeyEvaluator> SpecializeJoinKeys(
      const std::vector<int>& outer_cols, const std::vector<int>& inner_cols,
      const std::vector<ColMeta>& key_meta, const SessionOptions& opts,
      int outer_width, int inner_width) override;

  /// --- Bee cache persistence -------------------------------------------------
  /// Tuple-bee data sections hold real data and must survive restarts; the
  /// GCL/SCL programs are reconstructed from the schema at load time (the
  /// paper's Bee Reconstruction component).
  Status SaveCache() const;
  Status LoadCache(Catalog* catalog, bool enable_tuple_bees);

  BeeStats stats() const;

  /// Appends per-relation tier counters, phase gauges, and deform latency
  /// histograms (plus module/forge aggregates) to `snap`. Labels carry the
  /// relation name, so a multi-table database yields one sample family with
  /// one labelled series per relation.
  void FillTelemetry(telemetry::TelemetrySnapshot* snap) const;

  PlacementArena* placement() { return &placement_; }
  const BeeModuleOptions& options() const { return options_; }

 private:
  /// Hands a freshly built state to the forge (or compiles inline when the
  /// forge is absent/sync).
  void ScheduleNative(const std::shared_ptr<RelationBeeState>& state);

  BeeModuleOptions options_;
  PlacementArena placement_;
  NativeJit jit_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<TableId, std::shared_ptr<RelationBeeState>> states_;
  mutable std::atomic<uint64_t> evp_created_{0};
  mutable std::atomic<uint64_t> evj_created_{0};
  /// Declared last: its destructor joins the workers, which may still touch
  /// states_ and jit_ — both must outlive it.
  std::unique_ptr<Forge> forge_;
};

}  // namespace microspec::bee

#endif  // MICROSPEC_BEE_BEE_MODULE_H_
