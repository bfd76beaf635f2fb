#ifndef MICROSPEC_EXEC_HASH_AGG_H_
#define MICROSPEC_EXEC_HASH_AGG_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/operator.h"

namespace microspec {

enum class AggKind : uint8_t { kCountStar, kCount, kSum, kAvg, kMin, kMax };

/// One aggregate computation: kind + argument expression (nullptr for
/// COUNT(*)).
struct AggSpec {
  AggKind kind;
  ExprPtr arg;

  static AggSpec CountStar() { return AggSpec{AggKind::kCountStar, nullptr}; }
  static AggSpec Count(ExprPtr e) { return AggSpec{AggKind::kCount, std::move(e)}; }
  static AggSpec Sum(ExprPtr e) { return AggSpec{AggKind::kSum, std::move(e)}; }
  static AggSpec Avg(ExprPtr e) { return AggSpec{AggKind::kAvg, std::move(e)}; }
  static AggSpec Min(ExprPtr e) { return AggSpec{AggKind::kMin, std::move(e)}; }
  static AggSpec Max(ExprPtr e) { return AggSpec{AggKind::kMax, std::move(e)}; }
};

/// Hash aggregation with optional GROUP BY. The per-row update loop
/// dispatches on the aggregate kind and argument type at run time — the
/// paper explicitly identifies aggregation as a not-yet-specialized cost
/// center explaining the lower gains of q1/q18 (Section VI-A); the optional
/// aggregation bee (SessionOptions::enable_agg_bee, our extension of the
/// paper's future work) replaces the dispatch with monomorphized updaters.
///
/// Each hash-table job has one implementation: FindOrCreateGroup is the
/// only group probe (scalar rows, batch columns and the parallel merge
/// differ only in how a key cell is read), one value-form kernel family
/// serves both the agg bee and batch accumulation, and FoldValue is the
/// only generic per-aggregate fold.
///
/// Output: group columns ++ one column per AggSpec.
class HashAggregate final : public Operator {
 public:
  HashAggregate(ExecContext* ctx, OperatorPtr child,
                std::vector<int> group_cols, std::vector<AggSpec> aggs);

  Status Init() override;
  Status Next(bool* has_row) override;
  void Close() override;

  /// --- Parallel-merge hooks (used by ParallelHashAggregate) ----------------
  /// Runs Init + the accumulation phase without emitting, leaving this
  /// aggregate ready to be merged or drained. Called on a worker thread.
  Status PartialAccumulate();
  /// Folds `src`'s groups into this aggregate: counts and sums add, MIN/MAX
  /// compare, and group keys / extreme values are deep-copied into this
  /// aggregate's arena (the source is closed after the merge). Both sides
  /// must share group columns and aggregate specs.
  void MergeFrom(HashAggregate* src);

  /// Accumulator state; public so the update kernels (file-local free
  /// functions in hash_agg.cc) can operate on it.
  struct AggState {
    double fsum = 0;
    int64_t isum = 0;
    int64_t count = 0;
    Datum extreme = 0;  // MIN/MAX current value
    bool has_value = false;
  };
 private:
  struct Group {
    uint64_t hash;
    Group* next;
    Datum* keys;
    bool* keynull;
    AggState* states;
  };

  /// Drains the child into groups (per-row Next or NextBatch); on success
  /// closes it and gives an empty global aggregate its one group.
  Status Accumulate();
  Status AccumulateRows();
  Status AccumulateBatch();
  /// Hashes the probe's group keys, charging 2 work-ops per key. `key_at`
  /// reads key i: `Datum key_at(size_t i, bool* isnull)`.
  template <typename KeyAt>
  uint64_t HashKeys(const KeyAt& key_at) const;
  /// The one find-or-create probe: returns the group whose keys equal the
  /// probe's (read through `key_at`, as for HashKeys), creating it — keys
  /// deep-copied into arena_, chained, appended to the emission order —
  /// when none does. kCharged charges 2 work-ops per chain step (the scalar
  /// and batch probes; the parallel merge is uncharged).
  template <bool kCharged, typename KeyAt>
  Group* FindOrCreateGroup(uint64_t h, const KeyAt& key_at);
  /// Doubles the bucket table and re-chains every group from groups_ with
  /// its stored hash. FindOrCreateGroup calls it once the group count
  /// exceeds the bucket count, so chains stay about one group long at any
  /// group count. Uncharged, like the join build's chaining.
  void GrowBuckets();
  /// Folds one non-NULL argument value into aggregate i's state: COUNTs
  /// increment, SUM/AVG add, MIN/MAX compare and deep-copy a new extreme
  /// into arena_. Charges nothing; callers own the cost model.
  void FoldValue(AggState& st, size_t i, Datum v);
  void UpdateGeneric(Group* g, const ExecRow& row);
  void UpdateWithKernels(Group* g, const ExecRow& row);
  void EmitGroup(const Group* g);

  /// --- Update kernels -------------------------------------------------------
  /// Aggregates whose argument is a bare outer column of by-value type (or
  /// COUNT(*)) get a monomorphized value-form kernel — kind x type burned
  /// in, one argument cell in — selected once at construction. Two paths
  /// run them:
  ///  - the aggregation bee (extension of the paper's §VIII future work):
  ///    with SessionOptions::enable_agg_bee, the scalar update calls the
  ///    kernel on row.values[attno] instead of the interpreted argument +
  ///    double dispatch, falling back to FoldValue per spec without one;
  ///  - batch accumulation: when every aggregate has a kernel, the update
  ///    reads each argument cell straight out of the batch's column arrays
  ///    (no row is gathered), whatever the bee switch says; the switch only
  ///    changes the modeled per-aggregate work cost.
  using KernelFn = void (*)(AggState&, Datum v, bool isnull);
  struct Kernel {
    KernelFn fn = nullptr;  // nullptr -> this spec needs the generic fold
    int attno = -1;         // -1: kernel reads no column (COUNT(*))
  };
  void BuildKernels();

  std::vector<Kernel> kernels_;
  bool all_kernels_ = false;  // every spec has a kernel
  bool use_kernels_ = false;  // the agg bee is on

  /// --- Batch accumulation ---------------------------------------------------
  /// When the context enables batching and the child subtree is batch
  /// capable, Accumulate() drains the child through NextBatch instead of
  /// per-row Next. Group keys hash/compare straight out of the batch's
  /// column arrays; without a kernel for every aggregate the row is
  /// gathered and the scalar update runs on it.
  std::unique_ptr<RowBatch> batch_;
  std::vector<Datum> crow_values_;
  std::unique_ptr<bool[]> crow_isnull_;

  ExecContext* ctx_;
  OperatorPtr child_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  std::vector<ColMeta> group_meta_;
  std::vector<ColMeta> agg_arg_meta_;

  /// The table starts at this many buckets, so an aggregate with at most
  /// this many groups never grows and probes exactly as a fixed table.
  static constexpr size_t kInitialBuckets = 1024;

  Arena arena_;
  std::vector<Group*> buckets_;
  uint64_t bucket_mask_ = 0;
  std::vector<Group*> groups_;  // emission order
  size_t emit_pos_ = 0;
  bool accumulated_ = false;

  std::vector<Datum> values_buf_;
  std::unique_ptr<bool[]> isnull_buf_;
};

}  // namespace microspec

#endif  // MICROSPEC_EXEC_HASH_AGG_H_
