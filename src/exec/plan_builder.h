#ifndef MICROSPEC_EXEC_PLAN_BUILDER_H_
#define MICROSPEC_EXEC_PLAN_BUILDER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/hash_agg.h"
#include "exec/hash_join.h"
#include "exec/morsel.h"
#include "exec/nested_loop_join.h"
#include "exec/operator.h"
#include "exec/sort.h"

namespace microspec {

/// Named aggregate / named expression helpers: initializer lists cannot
/// hold move-only types, so plans are written as
///   plan.GroupBy({"k"}, AggList(Ag(AggSpec::Sum(e), "s")));
///   plan.Select(SelList(Ex(expr, "name")));
inline std::pair<AggSpec, std::string> Ag(AggSpec spec, std::string name) {
  return {std::move(spec), std::move(name)};
}
inline std::pair<ExprPtr, std::string> Ex(ExprPtr expr, std::string name) {
  return {std::move(expr), std::move(name)};
}
template <typename... Ps>
std::vector<std::pair<AggSpec, std::string>> AggList(Ps&&... ps) {
  std::vector<std::pair<AggSpec, std::string>> v;
  v.reserve(sizeof...(ps));
  (v.push_back(std::forward<Ps>(ps)), ...);
  return v;
}
template <typename... Ps>
std::vector<std::pair<ExprPtr, std::string>> SelList(Ps&&... ps) {
  std::vector<std::pair<ExprPtr, std::string>> v;
  v.reserve(sizeof...(ps));
  (v.push_back(std::forward<Ps>(ps)), ...);
  return v;
}

/// A light-weight logical plan builder that tracks output column names, so
/// multi-join plans can reference columns by name instead of by fragile
/// positional arithmetic. This is the library's "planner-lite": callers
/// (benchmarks, examples, the SQL front end) compose scans, filters, joins,
/// aggregations, sorts and projections, then Take() the operator tree.
///
/// All bee seams remain in force: scans deform through GCL, filters go
/// through MakePredicate (EVP), hash joins through MakeJoinKeys (EVJ).
///
/// Pipeline shape: a plan is a list of fragments, one per worker, and a
/// serial plan is simply a plan with one fragment that runs on the caller's
/// ExecContext (no worker context, no MorselCursor). When the context's
/// dop() > 1 a plan starts as dop fragments, each on its own worker context,
/// whose scan leaves share a MorselCursor. Per-row operators (Filter)
/// replicate across the fragments; pipeline breakers either merge two or
/// more fragments (GroupBy -> ParallelHashAggregate, Join's build side ->
/// SharedJoinBuild) or force a Gather (Sort, Project, Limit, LoopJoin,
/// Build). A one-fragment plan never gets a Gather, so at dop() == 1 the
/// built tree is exactly the serial operator tree.
class Plan {
 public:
  /// Sequential scan of all (or the first `natts`) columns.
  static Plan Scan(ExecContext* ctx, TableInfo* table, int natts = -1);

  /// Filters rows by `predicate`; Vars reference this plan's columns.
  Plan& Where(ExprPtr predicate);

  /// Hash equi-join. `keys` pairs (outer column name, inner column name).
  /// For kInner/kLeft the output is outer ++ inner columns; kSemi/kAnti keep
  /// the outer columns only. `residual` may reference outer columns as
  /// RowSide::kOuter and inner columns as RowSide::kInner.
  static Plan Join(Plan outer, Plan inner,
                   std::vector<std::pair<std::string, std::string>> keys,
                   JoinType type = JoinType::kInner,
                   ExprPtr residual = nullptr);

  /// Nested-loop join on an arbitrary predicate.
  static Plan LoopJoin(Plan outer, Plan inner, JoinType type,
                       ExprPtr predicate);

  /// Hash aggregation; output columns are the group columns (same names)
  /// followed by the named aggregates.
  Plan& GroupBy(const std::vector<std::string>& group_cols,
                std::vector<std::pair<AggSpec, std::string>> aggs);

  /// Projection to the named expressions.
  Plan& Select(std::vector<std::pair<ExprPtr, std::string>> exprs);

  Plan& OrderBy(const std::vector<std::pair<std::string, bool>>& keys);
  Plan& Take(uint64_t limit);

  /// Column ordinal by name (fatal if absent — plans are static).
  int col(const std::string& name) const;
  /// Non-fatal lookup: -1 when absent (used by the SQL binder).
  int TryCol(const std::string& name) const;
  ColMeta meta(const std::string& name) const;
  /// Var expression referencing this plan's column (outer side).
  ExprPtr var(const std::string& name) const;
  /// Var expression for use as a join residual's inner side.
  ExprPtr inner_var(const std::string& name) const;

  const std::vector<std::string>& names() const { return names_; }

  /// Releases the built operator tree.
  OperatorPtr Build() &&;

 private:
  explicit Plan(ExecContext* ctx) : ctx_(ctx) {}
  /// A one-fragment plan rooted at `op`.
  Plan(ExecContext* ctx, OperatorPtr op, std::vector<std::string> names);

  /// The context fragment `i` runs on: its worker context, or ctx_ for a
  /// one-fragment plan.
  ExecContext* frag_ctx(size_t i) {
    return frag_ctxs_.empty() ? ctx_ : frag_ctxs_[i].get();
  }

  /// Collapses two or more fragments into one by inserting a Gather
  /// exchange; no-op for a one-fragment plan. Called by every operator that
  /// needs a single input stream, and by Build().
  void EnsureSerial();
  /// Makes `op` the plan's one fragment, dropping the worker contexts and
  /// cursors (which `op` has absorbed, if it needs them).
  void Collapse(OperatorPtr op);

  /// EXPLAIN ANALYZE seam: when ctx_->analyze() is set, registers one stats
  /// node labelled `label` (children = the wrapped inputs' node ids) and one
  /// operator span, and wraps each fragment in its own OpProfiler;
  /// otherwise leaves the fragments untouched. The profilers accumulate
  /// locally on their threads and merge into the shared node on Close, so
  /// the node reports whole-operator totals (rows sum across workers;
  /// next_calls = rows + one EOS probe per fragment). With two or more
  /// fragments each profiler reports into its own fragment span under the
  /// operator span.
  void Instrument(std::string label, std::vector<int> children);

  ExecContext* ctx_;
  std::vector<std::string> names_;

  /// The pipeline: fragment i runs on frag_ctx(i). frag_ctxs_ holds the
  /// worker contexts and cursors_ the morsel cursors feeding the fragments'
  /// scan leaves (reset on rescans by the downstream breaker); both are
  /// empty for a one-fragment plan.
  std::vector<OperatorPtr> frags_;
  std::vector<std::unique_ptr<ExecContext>> frag_ctxs_;
  std::vector<std::shared_ptr<MorselCursor>> cursors_;

  /// This plan's current QueryStats node id (-1 when not collecting).
  int stats_id_ = -1;
};

}  // namespace microspec

#endif  // MICROSPEC_EXEC_PLAN_BUILDER_H_
