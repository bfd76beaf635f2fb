#ifndef MICROSPEC_EXEC_HASH_JOIN_H_
#define MICROSPEC_EXEC_HASH_JOIN_H_

#include <memory>
#include <utility>
#include <vector>

#include "exec/operator.h"

namespace microspec {

class SharedJoinBuild;

/// One row of a join build table: the key hash, the intrusive bucket chain,
/// and the materialized inner columns. Allocated from a build arena by the
/// serial HashJoin build or by SharedJoinBuild's parallel partitions.
struct JoinBuildRow {
  uint64_t hash;
  JoinBuildRow* next;
  Datum* values;
  bool* isnull;
};

/// The build half shared by the serial HashJoin and SharedJoinBuild's
/// partitions: Inits `child`, copies each of its rows (by-reference Datums
/// deep-copied) into `arena`, hashes the row's inner keys with `keys`, and
/// appends it to `rows`. With `batch_rows` > 0 and a BatchCapable child the
/// rows arrive as RowBatches of that capacity through NextBatch, else one
/// at a time through Next; the rows and their order are the same. The child
/// is closed on every path after a successful Init; the first Next or
/// NextBatch error is returned.
Status DrainJoinBuild(Operator* child, const JoinKeyEvaluator& keys,
                      int batch_rows, Arena* arena,
                      std::vector<JoinBuildRow*>* rows);

/// Sizes `buckets` to the smallest power of two (at least 16) holding
/// twice `rows`, chains every row in order (each new row heads its
/// bucket's chain), and returns the bucket mask.
uint64_t ChainJoinBuild(const std::vector<JoinBuildRow*>& rows,
                        std::vector<JoinBuildRow*>* buckets);

/// Hash equi-join. The inner child is built into an in-memory chained hash
/// table (DrainJoinBuild + ChainJoinBuild, the same routines the parallel
/// SharedJoinBuild runs); the outer child probes. Per-probe key
/// hashing/comparison goes through a JoinKeyEvaluator (both builds hash with
/// the probe's own): the generic implementation consults runtime
/// type metadata per key per tuple, while the EVJ query bee supplies a
/// monomorphized kernel with attribute numbers and types burned in at
/// query-preparation time (Section V). When EVJ is enabled, the probe loop
/// itself is also statically specialized on the join type, mirroring the
/// paper's pre-compiled join-type variants; the stock path dispatches on the
/// join type at run time.
///
/// Batch input: when the context enables batching and a child subtree is
/// BatchCapable (the rule HashAggregate uses), the build drains that child
/// through NextBatch and the probe pulls outer RowBatches, gathering one
/// selected row at a time into a row buffer that key hashing, key compare,
/// the residual and the output read. The outer batch is refilled only after
/// its last row has been emitted, so pointer Datums into its pinned page
/// stay valid for as long as a parent may read the output row.
///
/// Output: outer columns ++ inner columns for kInner/kLeft (inner columns
/// NULL for unmatched kLeft rows); outer columns only for kSemi/kAnti.
class HashJoin final : public Operator {
 public:
  HashJoin(ExecContext* ctx, OperatorPtr outer, OperatorPtr inner,
           std::vector<int> outer_keys, std::vector<int> inner_keys,
           JoinType join_type, ExprPtr residual = nullptr);

  /// Parallel probe instance: one of dop HashJoins sharing `shared`'s build
  /// table (built cooperatively by the probe workers on first Init). Probe
  /// semantics are unchanged — each outer row lives in exactly one
  /// fragment, so kLeft/kSemi/kAnti stay correct per fragment.
  HashJoin(ExecContext* ctx, OperatorPtr outer,
           std::shared_ptr<SharedJoinBuild> shared,
           std::vector<int> outer_keys, std::vector<int> inner_keys,
           JoinType join_type, ExprPtr residual = nullptr);

  ~HashJoin() override;

  Status Init() override;
  Status Next(bool* has_row) override;
  void Close() override;

 private:
  using BuildRow = JoinBuildRow;

  Status BuildTable();
  /// Points outer_values_/outer_isnull_ at the next outer row: the outer
  /// child's own row, or the next selected row of outer_batch_ gathered into
  /// the row buffer (refilling the batch once every row has been taken).
  /// Sets *has_row = false at end of stream.
  Status AdvanceOuter(bool* has_row);
  /// Emits outer ++ inner (inner may be nullptr => NULLs for kLeft).
  void EmitCombined(const BuildRow* inner_row);
  bool RowMatches(const BuildRow* entry) const;

  /// Probe loop with the join type dispatched per call (stock path).
  Status NextGeneric(bool* has_row);
  /// Probe loop with the join type fixed at compile time (EVJ path).
  template <JoinType JT>
  Status NextStatic(bool* has_row);

  ExecContext* ctx_;
  OperatorPtr outer_;
  OperatorPtr inner_;  // null when shared_ supplies the build table
  std::shared_ptr<SharedJoinBuild> shared_;
  std::vector<int> outer_keys_;
  std::vector<int> inner_keys_;
  JoinType join_type_;
  ExprPtr residual_expr_;
  std::unique_ptr<PredicateEvaluator> residual_;
  std::unique_ptr<JoinKeyEvaluator> keys_;

  Status (HashJoin::*next_fn_)(bool*) = nullptr;

  std::vector<BuildRow*> buckets_;
  /// Probe view of the bucket table: own buckets_ or the shared build's.
  BuildRow* const* buckets_data_ = nullptr;
  uint64_t bucket_mask_ = 0;
  Arena build_arena_;

  // Probe state. outer_values_/outer_isnull_ is the current outer row.
  const Datum* outer_values_ = nullptr;
  const bool* outer_isnull_ = nullptr;
  BuildRow* chain_ = nullptr;
  uint64_t cur_hash_ = 0;
  bool outer_matched_ = false;
  bool outer_valid_ = false;

  size_t outer_width_ = 0;
  size_t inner_width_ = 0;
  std::vector<Datum> values_buf_;
  std::unique_ptr<bool[]> isnull_buf_;

  // Batch probe: non-null while the outer child is drained through
  // NextBatch. outer_pos_ indexes its selection vector; the gathered row
  // lives in orow_values_/orow_isnull_.
  std::unique_ptr<RowBatch> outer_batch_;
  int outer_pos_ = 0;
  std::vector<Datum> orow_values_;
  std::unique_ptr<bool[]> orow_isnull_;
};

}  // namespace microspec

#endif  // MICROSPEC_EXEC_HASH_JOIN_H_
