#include "exec/plan_builder.h"

#include "exec/analyze.h"
#include "exec/filter.h"
#include "exec/parallel.h"
#include "exec/project.h"
#include "exec/seq_scan.h"

namespace microspec {

namespace {

/// Fragment i's copy (of n) of an expression every fragment needs: a clone
/// for all but the last fragment, which takes the original.
ExprPtr ExprFor(ExprPtr& expr, size_t i, size_t n) {
  if (expr == nullptr || i + 1 == n) return std::move(expr);
  return expr->Clone();
}

/// ExprFor for an aggregate list (AggSpec holds a move-only expression).
std::vector<AggSpec> SpecsFor(std::vector<AggSpec>& specs, size_t i,
                              size_t n) {
  if (i + 1 == n) return std::move(specs);
  std::vector<AggSpec> copy;
  copy.reserve(specs.size());
  for (AggSpec& spec : specs) {
    copy.push_back(AggSpec{spec.kind, ExprFor(spec.arg, i, n)});
  }
  return copy;
}

}  // namespace

Plan::Plan(ExecContext* ctx, OperatorPtr op, std::vector<std::string> names)
    : ctx_(ctx), names_(std::move(names)) {
  frags_.push_back(std::move(op));
}

void Plan::Instrument(std::string label, std::vector<int> children) {
  QueryStats* qs = ctx_->analyze();
  if (qs == nullptr) return;
  // Drop placeholders from inputs built before collection was enabled.
  std::erase_if(children, [](int id) { return id < 0; });
  // Sampled queries additionally get an operator span riding the same
  // profilers (sqlfe always installs QueryStats on a sampled statement, so
  // tracing never needs its own decorator). Plans build bottom-up: the
  // children's spans already exist and NewOpSpan re-parents them here.
  const trace::TraceContext& tc = ctx_->trace();
  const int node_id = qs->NextNodeId();
  uint32_t span = 0;
  if (tc) span = tc.trace->NewOpSpan(node_id, label, children);
  stats_id_ = qs->AddNode(std::move(label), std::move(children));
  const bool fragmented = frags_.size() > 1;
  for (size_t i = 0; i < frags_.size(); ++i) {
    auto prof = std::make_unique<OpProfiler>(std::move(frags_[i]), qs,
                                             stats_id_);
    // A lone fragment reports into the operator span itself; two or more
    // each report into a fragment span under it.
    const uint32_t s =
        tc && fragmented
            ? tc.trace->NewFragmentSpan(node_id, static_cast<int>(i))
            : span;
    if (s != 0) prof->set_trace(tc.trace, s);
    frags_[i] = std::move(prof);
  }
}

void Plan::EnsureSerial() {
  if (frags_.size() < 2) return;
  int child = stats_id_;
  Collapse(std::make_unique<Gather>(ctx_, std::move(frags_),
                                    std::move(frag_ctxs_),
                                    std::move(cursors_)));
  Instrument("Gather", {child});
}

void Plan::Collapse(OperatorPtr op) {
  frags_.clear();
  frag_ctxs_.clear();
  cursors_.clear();
  frags_.push_back(std::move(op));
}

Plan Plan::Scan(ExecContext* ctx, TableInfo* table, int natts) {
  Plan plan(ctx);
  // Two or more fragments each run on a worker context and claim morsels
  // from one shared cursor; a lone fragment scans the whole relation.
  const int dop = ctx->dop();
  std::shared_ptr<MorselCursor> cursor;
  if (dop > 1) {
    cursor = std::make_shared<MorselCursor>(table->heap()->num_pages(),
                                            ctx->morsel_pages());
    plan.cursors_.push_back(cursor);
  }
  for (size_t i = 0; i < static_cast<size_t>(dop); ++i) {
    if (cursor != nullptr) plan.frag_ctxs_.push_back(ctx->MakeWorkerContext());
    plan.frags_.push_back(
        std::make_unique<SeqScan>(plan.frag_ctx(i), table, natts, cursor));
  }
  const int n = static_cast<int>(plan.frags_[0]->output_meta().size());
  for (int i = 0; i < n; ++i) {
    plan.names_.push_back(table->schema().column(i).name());
  }
  plan.Instrument(
      (cursor != nullptr ? "ParallelScan(" : "SeqScan(") + table->name() + ")",
      {});
  return plan;
}

Plan& Plan::Where(ExprPtr predicate) {
  int child = stats_id_;
  // Filters are row-local: replicate across the fragments (each context
  // makes its own EVP decision — deterministic for a given expr).
  const size_t n = frags_.size();
  for (size_t i = 0; i < n; ++i) {
    frags_[i] = std::make_unique<Filter>(frag_ctx(i), std::move(frags_[i]),
                                         ExprFor(predicate, i, n));
  }
  Instrument("Filter", {child});
  return *this;
}

Plan Plan::Join(Plan outer, Plan inner,
                std::vector<std::pair<std::string, std::string>> keys,
                JoinType type, ExprPtr residual) {
  std::vector<int> outer_keys;
  std::vector<int> inner_keys;
  for (const auto& [ok, ik] : keys) {
    outer_keys.push_back(outer.col(ok));
    inner_keys.push_back(inner.col(ik));
  }
  std::vector<std::string> names = outer.names_;
  if (type == JoinType::kInner || type == JoinType::kLeft) {
    for (const std::string& n : inner.names_) names.push_back(n);
  }
  ExecContext* ctx = outer.ctx_;
  if (outer.frags_.size() > 1 && inner.frags_.size() > 1) {
    // Parallel hash join: the inner fragments become a cooperatively built
    // shared table; each outer fragment probes it with its own HashJoin.
    // Each outer row lives in exactly one fragment, so kLeft/kSemi/kAnti
    // stay correct per fragment.
    auto shared = std::make_shared<SharedJoinBuild>(
        std::move(inner.frags_), std::move(inner.frag_ctxs_),
        std::move(inner.cursors_));
    Plan plan(ctx);
    plan.names_ = std::move(names);
    plan.frag_ctxs_ = std::move(outer.frag_ctxs_);
    plan.cursors_ = std::move(outer.cursors_);
    const size_t n = outer.frags_.size();
    for (size_t i = 0; i < n; ++i) {
      plan.frags_.push_back(std::make_unique<HashJoin>(
          plan.frag_ctx(i), std::move(outer.frags_[i]), shared, outer_keys,
          inner_keys, type, ExprFor(residual, i, n)));
    }
    plan.Instrument("HashJoin", {outer.stats_id_, inner.stats_id_});
    return plan;
  }
  // Otherwise both inputs become one stream (a Gather above two or more
  // fragments) and the serial HashJoin builds its own table.
  outer.EnsureSerial();
  inner.EnsureSerial();
  auto join = std::make_unique<HashJoin>(
      ctx, std::move(outer.frags_[0]), std::move(inner.frags_[0]),
      std::move(outer_keys), std::move(inner_keys), type, std::move(residual));
  Plan plan(ctx, std::move(join), std::move(names));
  plan.Instrument("HashJoin", {outer.stats_id_, inner.stats_id_});
  return plan;
}

Plan Plan::LoopJoin(Plan outer, Plan inner, JoinType type, ExprPtr predicate) {
  outer.EnsureSerial();
  inner.EnsureSerial();
  std::vector<std::string> names = outer.names_;
  if (type == JoinType::kInner || type == JoinType::kLeft) {
    for (const std::string& n : inner.names_) names.push_back(n);
  }
  ExecContext* ctx = outer.ctx_;
  auto join = std::make_unique<NestedLoopJoin>(
      ctx, std::move(outer.frags_[0]), std::move(inner.frags_[0]), type,
      std::move(predicate));
  Plan plan(ctx, std::move(join), std::move(names));
  plan.Instrument("NestedLoopJoin", {outer.stats_id_, inner.stats_id_});
  return plan;
}

Plan& Plan::GroupBy(const std::vector<std::string>& group_cols,
                    std::vector<std::pair<AggSpec, std::string>> aggs) {
  std::vector<int> cols;
  std::vector<std::string> names;
  for (const std::string& g : group_cols) {
    cols.push_back(col(g));
    names.push_back(g);
  }
  std::vector<AggSpec> specs;
  for (auto& [spec, name] : aggs) {
    specs.push_back(std::move(spec));
    names.push_back(name);
  }
  int child = stats_id_;
  // One local HashAggregate per fragment. Two or more merge in a
  // ParallelHashAggregate, which absorbs the fragments' contexts and
  // cursors; either way the plan is one fragment from here up.
  std::vector<std::unique_ptr<HashAggregate>> locals;
  const size_t n = frags_.size();
  for (size_t i = 0; i < n; ++i) {
    locals.push_back(std::make_unique<HashAggregate>(
        frag_ctx(i), std::move(frags_[i]), cols, SpecsFor(specs, i, n)));
  }
  OperatorPtr agg;
  if (n == 1) {
    agg = std::move(locals[0]);
  } else {
    agg = std::make_unique<ParallelHashAggregate>(
        ctx_, std::move(locals), std::move(frag_ctxs_), std::move(cursors_));
  }
  Collapse(std::move(agg));
  names_ = std::move(names);
  Instrument(n == 1 ? "HashAggregate" : "ParallelHashAggregate", {child});
  return *this;
}

Plan& Plan::Select(std::vector<std::pair<ExprPtr, std::string>> exprs) {
  EnsureSerial();
  std::vector<ExprPtr> list;
  std::vector<std::string> names;
  for (auto& [e, name] : exprs) {
    list.push_back(std::move(e));
    names.push_back(name);
  }
  int child = stats_id_;
  frags_[0] =
      std::make_unique<Project>(ctx_, std::move(frags_[0]), std::move(list));
  names_ = std::move(names);
  Instrument("Project", {child});
  return *this;
}

Plan& Plan::OrderBy(const std::vector<std::pair<std::string, bool>>& keys) {
  EnsureSerial();
  std::vector<SortKey> sort_keys;
  for (const auto& [name, desc] : keys) {
    sort_keys.push_back(SortKey{col(name), desc});
  }
  int child = stats_id_;
  frags_[0] =
      std::make_unique<Sort>(ctx_, std::move(frags_[0]), std::move(sort_keys));
  Instrument("Sort", {child});
  return *this;
}

Plan& Plan::Take(uint64_t limit) {
  EnsureSerial();
  int child = stats_id_;
  frags_[0] = std::make_unique<Limit>(std::move(frags_[0]), limit);
  Instrument("Limit", {child});
  return *this;
}

int Plan::col(const std::string& name) const {
  int c = TryCol(name);
  if (c < 0) {
    std::fprintf(stderr, "Plan: unknown column '%s'\n", name.c_str());
    MICROSPEC_CHECK(false);
  }
  return c;
}

int Plan::TryCol(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

ColMeta Plan::meta(const std::string& name) const {
  return frags_[0]->output_meta()[static_cast<size_t>(col(name))];
}

ExprPtr Plan::var(const std::string& name) const {
  return Var(RowSide::kOuter, col(name), meta(name));
}

ExprPtr Plan::inner_var(const std::string& name) const {
  return Var(RowSide::kInner, col(name), meta(name));
}

OperatorPtr Plan::Build() && {
  EnsureSerial();
  return std::move(frags_[0]);
}

}  // namespace microspec
