#include "sqlfe/engine.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/telemetry.h"
#include "common/tracing.h"
#include "exec/analyze.h"
#include "exec/plan_builder.h"

namespace microspec::sqlfe {

namespace {

/// Per-phase statement latency (always on — per statement, never per row).
telemetry::Histogram* ParseNs() {
  static telemetry::Histogram* h =
      telemetry::Registry::Global().GetHistogram("microspec_query_parse_ns");
  return h;
}
telemetry::Histogram* PlanNs() {
  static telemetry::Histogram* h =
      telemetry::Registry::Global().GetHistogram("microspec_query_plan_ns");
  return h;
}
telemetry::Histogram* ExecNs() {
  static telemetry::Histogram* h =
      telemetry::Registry::Global().GetHistogram("microspec_query_exec_ns");
  return h;
}
telemetry::Counter* SlowQueriesTotal() {
  static telemetry::Counter* c =
      telemetry::Registry::Global().GetCounter("microspec_slow_queries_total");
  return c;
}

bool IsIntClass(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt32 || t == TypeId::kInt64 ||
         t == TypeId::kDate;
}

/// 'YYYY-MM-DD' under the engine's simplified calendar.
Result<int32_t> ParseDate(const std::string& s) {
  int y = 0;
  int m = 0;
  int d = 0;
  if (std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &d) != 3) {
    return Status::InvalidArgument("bad date literal '" + s + "'");
  }
  return static_cast<int32_t>((y - 1992) * 365 + (m - 1) * 30 + (d - 1));
}

/// Lowers a literal AST node to a constant expression of `target` type.
Result<ExprPtr> LowerLiteral(const SqlExpr& lit, ColMeta target) {
  switch (target.type) {
    case TypeId::kBool:
    case TypeId::kInt32:
    case TypeId::kInt64:
      if (lit.kind != SqlExprKind::kIntLit) {
        return Status::InvalidArgument("expected integer literal");
      }
      if (target.type == TypeId::kInt64) {
        return ConstInt64(std::atoll(lit.text.c_str()));
      }
      if (target.type == TypeId::kBool) {
        return ConstBool(std::atoi(lit.text.c_str()) != 0);
      }
      return ConstInt32(std::atoi(lit.text.c_str()));
    case TypeId::kDate:
      if (lit.kind == SqlExprKind::kIntLit) {
        return ConstDate(std::atoi(lit.text.c_str()));
      }
      if (lit.kind == SqlExprKind::kStringLit) {
        MICROSPEC_ASSIGN_OR_RETURN(int32_t days, ParseDate(lit.text));
        return ConstDate(days);
      }
      return Status::InvalidArgument("expected date literal");
    case TypeId::kFloat64:
      if (lit.kind != SqlExprKind::kIntLit &&
          lit.kind != SqlExprKind::kFloatLit) {
        return Status::InvalidArgument("expected numeric literal");
      }
      return ConstFloat64(std::atof(lit.text.c_str()));
    case TypeId::kChar:
      if (lit.kind != SqlExprKind::kStringLit) {
        return Status::InvalidArgument("expected string literal");
      }
      return ConstChar(lit.text, target.attlen);
    case TypeId::kVarchar:
      if (lit.kind != SqlExprKind::kStringLit) {
        return Status::InvalidArgument("expected string literal");
      }
      return ConstVarchar(lit.text);
  }
  return Status::Internal("unreachable literal type");
}

bool IsLiteral(const SqlExpr& e) {
  return e.kind == SqlExprKind::kIntLit || e.kind == SqlExprKind::kFloatLit ||
         e.kind == SqlExprKind::kStringLit;
}

/// Lowers an AST expression against `plan`'s output columns. `hint` guides
/// literal typing (the meta of the column a literal is compared against).
Result<ExprPtr> Lower(const SqlExpr& e, const Plan& plan,
                      const ColMeta* hint = nullptr) {
  switch (e.kind) {
    case SqlExprKind::kColumn: {
      if (e.text == "null") {
        return Status::NotSupported("bare NULL outside INSERT");
      }
      if (plan.TryCol(e.text) < 0) {
        return Status::NotFound("unknown column " + e.text);
      }
      return plan.var(e.text);
    }
    case SqlExprKind::kIntLit:
      if (hint != nullptr) return LowerLiteral(e, *hint);
      return ConstInt64(std::atoll(e.text.c_str()));
    case SqlExprKind::kFloatLit:
      if (hint != nullptr && hint->type == TypeId::kFloat64) {
        return LowerLiteral(e, *hint);
      }
      return ConstFloat64(std::atof(e.text.c_str()));
    case SqlExprKind::kStringLit:
      if (hint != nullptr) return LowerLiteral(e, *hint);
      return ConstVarchar(e.text);
    case SqlExprKind::kCmp: {
      // Type the literal side (if any) from the column side.
      const SqlExpr* l = e.lhs.get();
      const SqlExpr* r = e.rhs.get();
      if (IsLiteral(*l) && !IsLiteral(*r)) {
        MICROSPEC_ASSIGN_OR_RETURN(ExprPtr rhs, Lower(*r, plan));
        ColMeta m = rhs->meta();
        MICROSPEC_ASSIGN_OR_RETURN(ExprPtr lhs, Lower(*l, plan, &m));
        return Cmp(e.cmp, std::move(lhs), std::move(rhs));
      }
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr lhs, Lower(*l, plan));
      ColMeta m = lhs->meta();
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr rhs, Lower(*r, plan, &m));
      return Cmp(e.cmp, std::move(lhs), std::move(rhs));
    }
    case SqlExprKind::kArith: {
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr lhs, Lower(*e.lhs, plan));
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr rhs, Lower(*e.rhs, plan));
      return Arith(e.arith, std::move(lhs), std::move(rhs));
    }
    case SqlExprKind::kAnd:
    case SqlExprKind::kOr: {
      std::vector<ExprPtr> kids;
      for (const SqlExprPtr& c : e.children) {
        MICROSPEC_ASSIGN_OR_RETURN(ExprPtr k, Lower(*c, plan));
        kids.push_back(std::move(k));
      }
      return e.kind == SqlExprKind::kAnd ? And(std::move(kids))
                                         : Or(std::move(kids));
    }
    case SqlExprKind::kNot: {
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr k, Lower(*e.children[0], plan));
      return Not(std::move(k));
    }
    case SqlExprKind::kBetween: {
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr input, Lower(*e.lhs, plan));
      ColMeta m = input->meta();
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr lo, Lower(*e.children[0], plan, &m));
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr hi, Lower(*e.children[1], plan, &m));
      return Between(std::move(input), std::move(lo), std::move(hi));
    }
    case SqlExprKind::kLike: {
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr input, Lower(*e.lhs, plan));
      ExprPtr like =
          std::make_unique<LikeExpr>(std::move(input), e.text, e.negated);
      return like;
    }
    case SqlExprKind::kInList: {
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr input, Lower(*e.lhs, plan));
      ColMeta m = input->meta();
      // Items must outlive the query; keep constants as subexpressions and
      // compose as a disjunction of equalities (semantically IN), unless all
      // items are integers, where the engine's InListExpr applies directly.
      if (IsIntClass(m.type)) {
        std::vector<Datum> items;
        for (const SqlExprPtr& c : e.children) {
          if (c->kind != SqlExprKind::kIntLit) {
            return Status::InvalidArgument("IN list item type mismatch");
          }
          items.push_back(DatumFromInt64(std::atoll(c->text.c_str())));
        }
        ExprPtr in = std::make_unique<InListExpr>(std::move(input),
                                                  std::move(items), m);
        return e.negated ? Not(std::move(in)) : std::move(in);
      }
      std::vector<ExprPtr> eqs;
      for (const SqlExprPtr& c : e.children) {
        MICROSPEC_ASSIGN_OR_RETURN(ExprPtr item, Lower(*c, plan, &m));
        MICROSPEC_ASSIGN_OR_RETURN(ExprPtr col, Lower(*e.lhs, plan));
        eqs.push_back(Cmp(CmpOp::kEq, std::move(col), std::move(item)));
      }
      ExprPtr in = Or(std::move(eqs));
      return e.negated ? Not(std::move(in)) : std::move(in);
    }
    case SqlExprKind::kAggregate:
      return Status::InvalidArgument("aggregate in a non-aggregate position");
  }
  return Status::Internal("unreachable expr kind");
}

bool ContainsAggregate(const SqlExpr& e) {
  if (e.kind == SqlExprKind::kAggregate) return true;
  if (e.lhs != nullptr && ContainsAggregate(*e.lhs)) return true;
  if (e.rhs != nullptr && ContainsAggregate(*e.rhs)) return true;
  for (const SqlExprPtr& c : e.children) {
    if (ContainsAggregate(*c)) return true;
  }
  return false;
}

std::string RenderDatum(Datum d, const ColMeta& meta) {
  char buf[64];
  switch (meta.type) {
    case TypeId::kBool:
      return DatumToBool(d) ? "t" : "f";
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
      return std::to_string(DatumToInt64(d));
    case TypeId::kFloat64:
      std::snprintf(buf, sizeof(buf), "%g", DatumToFloat64(d));
      return buf;
    case TypeId::kChar: {
      std::string s(DatumToPointer(d), static_cast<size_t>(meta.attlen));
      while (!s.empty() && s.back() == ' ') s.pop_back();  // trim padding
      return s;
    }
    case TypeId::kVarchar: {
      std::string_view sv = VarlenaView(d);
      return std::string(sv);
    }
  }
  return "?";
}

Result<SqlResult> RunCreate(Database* db, const CreateTableStmt& stmt) {
  std::vector<Column> cols;
  for (const ColumnDef& def : stmt.columns) {
    Column c(def.name, def.type, def.not_null, def.char_len);
    c.set_low_cardinality(def.low_cardinality);
    cols.push_back(std::move(c));
  }
  MICROSPEC_RETURN_NOT_OK(
      db->CreateTable(stmt.table, Schema(std::move(cols))).status());
  return SqlResult{};
}

Result<SqlResult> RunInsert(Database* db, ExecContext* ctx,
                            const InsertStmt& stmt) {
  TableInfo* table = db->catalog()->GetTable(stmt.table);
  if (table == nullptr) return Status::NotFound("table " + stmt.table);
  const Schema& schema = table->schema();
  int natts = schema.natts();

  SqlResult result;
  Arena arena;
  std::vector<Datum> values(static_cast<size_t>(natts));
  std::vector<char> isnull(static_cast<size_t>(natts));
  for (const auto& row : stmt.rows) {
    if (static_cast<int>(row.size()) != natts) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    for (int i = 0; i < natts; ++i) {
      const SqlExpr& lit = *row[static_cast<size_t>(i)];
      if (lit.kind == SqlExprKind::kColumn && lit.text == "null") {
        if (schema.column(i).not_null()) {
          return Status::InvalidArgument("NULL in NOT NULL column " +
                                         schema.column(i).name());
        }
        isnull[static_cast<size_t>(i)] = 1;
        values[static_cast<size_t>(i)] = 0;
        continue;
      }
      isnull[static_cast<size_t>(i)] = 0;
      MICROSPEC_ASSIGN_OR_RETURN(
          ExprPtr c, LowerLiteral(lit, ColMeta::FromColumn(schema.column(i))));
      bool dummy = false;
      ExecRow empty{};
      Datum d = c->Eval(empty, &dummy);
      // Copy byref constants into the arena so they survive this loop body.
      values[static_cast<size_t>(i)] =
          CopyDatum(&arena, d, ColMeta::FromColumn(schema.column(i)));
    }
    MICROSPEC_RETURN_NOT_OK(
        db->Insert(ctx, table, values.data(),
                   reinterpret_cast<bool*>(isnull.data()))
            .status());
    ++result.affected;
  }
  return result;
}

Result<SqlResult> RunSelect(Database* db, ExecContext* ctx,
                            const SelectStmt& stmt) {
  const trace::TraceContext tc = ctx->trace();
  const uint64_t plan_start = telemetry::NowNs();
  TableInfo* from = db->catalog()->GetTable(stmt.from);
  if (from == nullptr) return Status::NotFound("table " + stmt.from);
  Plan plan = Plan::Scan(ctx, from);
  for (const JoinClause& join : stmt.joins) {
    TableInfo* right = db->catalog()->GetTable(join.table);
    if (right == nullptr) return Status::NotFound("table " + join.table);
    Plan right_scan = Plan::Scan(ctx, right);
    if (plan.TryCol(join.left_col) < 0) {
      return Status::NotFound("unknown join column " + join.left_col);
    }
    if (right_scan.TryCol(join.right_col) < 0) {
      return Status::NotFound("unknown join column " + join.right_col);
    }
    plan = Plan::Join(std::move(plan), std::move(right_scan),
                      {{join.left_col, join.right_col}});
  }
  if (stmt.where != nullptr) {
    MICROSPEC_ASSIGN_OR_RETURN(ExprPtr pred, Lower(*stmt.where, plan));
    plan.Where(std::move(pred));
  }

  bool has_agg = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    has_agg = has_agg || ContainsAggregate(*item.expr);
  }

  if (has_agg) {
    std::vector<std::pair<AggSpec, std::string>> aggs;
    for (const SelectItem& item : stmt.items) {
      const SqlExpr& e = *item.expr;
      if (e.kind == SqlExprKind::kColumn) {
        bool grouped = false;
        for (const std::string& g : stmt.group_by) grouped |= g == e.text;
        if (!grouped) {
          return Status::InvalidArgument(
              "column " + e.text + " must appear in GROUP BY");
        }
        continue;  // group columns are emitted automatically
      }
      if (e.kind != SqlExprKind::kAggregate) {
        return Status::NotSupported(
            "select items must be columns or aggregates under GROUP BY");
      }
      AggSpec spec{AggKind::kCountStar, nullptr};
      if (e.agg != SqlAgg::kCountStar) {
        MICROSPEC_ASSIGN_OR_RETURN(ExprPtr arg, Lower(*e.children[0], plan));
        switch (e.agg) {
          case SqlAgg::kCount:
            spec = AggSpec::Count(std::move(arg));
            break;
          case SqlAgg::kSum:
            spec = AggSpec::Sum(std::move(arg));
            break;
          case SqlAgg::kAvg:
            spec = AggSpec::Avg(std::move(arg));
            break;
          case SqlAgg::kMin:
            spec = AggSpec::Min(std::move(arg));
            break;
          case SqlAgg::kMax:
            spec = AggSpec::Max(std::move(arg));
            break;
          default:
            break;
        }
      }
      aggs.emplace_back(std::move(spec), item.alias);
    }
    for (const std::string& g : stmt.group_by) {
      if (plan.TryCol(g) < 0) return Status::NotFound("unknown column " + g);
    }
    plan.GroupBy(stmt.group_by, std::move(aggs));
  } else if (!stmt.items.empty()) {
    std::vector<std::pair<ExprPtr, std::string>> exprs;
    for (const SelectItem& item : stmt.items) {
      MICROSPEC_ASSIGN_OR_RETURN(ExprPtr e, Lower(*item.expr, plan));
      exprs.emplace_back(std::move(e), item.alias);
    }
    plan.Select(std::move(exprs));
  }

  if (!stmt.order_by.empty()) {
    std::vector<std::pair<std::string, bool>> keys;
    for (const OrderItem& o : stmt.order_by) {
      if (plan.TryCol(o.column) < 0) {
        return Status::NotFound("unknown column " + o.column);
      }
      keys.emplace_back(o.column, o.desc);
    }
    plan.OrderBy(keys);
  }
  if (stmt.limit.has_value()) plan.Take(*stmt.limit);

  SqlResult result;
  result.columns = plan.names();
  OperatorPtr op = std::move(plan).Build();
  const uint64_t plan_end = telemetry::NowNs();
  PlanNs()->Observe(plan_end - plan_start);
  uint32_t exec_span = 0;
  if (tc) {
    tc.trace->AddComplete(tc.parent, trace::SpanKind::kPlan, "plan",
                          plan_start, plan_end);
    // Operator spans were registered during plan building with no parent
    // (the exec span did not exist yet); hang them — and everything
    // operators record from here on (bee summaries, forge waits) — under
    // the exec span now.
    exec_span = tc.trace->Begin(tc.parent, trace::SpanKind::kExec, "exec");
    tc.trace->SetDefaultParent(exec_span);
  }
  // Install the trace on the driving thread so shared stall sites (buffer
  // pool misses, Gather's queue) can attribute waits. Null trace => no-op.
  trace::ThreadTraceScope thread_scope(tc.trace, exec_span);
  const std::vector<ColMeta>& meta = op->output_meta();
  Status exec_st = ForEachRow(op.get(), [&](const Datum* v, const bool* n) {
    std::vector<std::string> row;
    row.reserve(meta.size());
    for (size_t i = 0; i < meta.size(); ++i) {
      row.push_back(n != nullptr && n[i] ? "NULL" : RenderDatum(v[i], meta[i]));
    }
    result.rows.push_back(std::move(row));
  });
  const uint64_t exec_end = telemetry::NowNs();
  ExecNs()->Observe(exec_end - plan_end);
  if (tc) {
    tc.trace->SetArgs(exec_span, result.rows.size(), 0);
    tc.trace->End(exec_span);
  }
  MICROSPEC_RETURN_NOT_OK(exec_st);
  return result;
}

/// EXPLAIN ANALYZE: installs a QueryStats collector on the context (Plan
/// then wraps each operator in an OpProfiler), runs the query, discards its
/// rows, and returns the stats tree — one line per operator, PostgreSQL
/// style.
Result<SqlResult> RunExplainAnalyze(Database* db, ExecContext* ctx,
                                    const SelectStmt& stmt) {
  QueryStats qs;
  ctx->set_analyze(&qs);
  Result<SqlResult> run = RunSelect(db, ctx, stmt);
  ctx->set_analyze(nullptr);
  MICROSPEC_RETURN_NOT_OK(run.status());
  SqlResult result;
  result.columns = {"QUERY PLAN"};
  for (std::string& line : qs.ToLines()) {
    result.rows.push_back({std::move(line)});
  }
  return result;
}

}  // namespace

std::string SqlResult::ToString() const {
  std::vector<size_t> width(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) width[i] = columns[i].size();
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      out += i == 0 ? "| " : " | ";
      out += row[i];
      out.append(width[i] - row[i].size(), ' ');
    }
    out += " |\n";
  };
  if (!columns.empty()) {
    emit_row(columns);
    out += "|";
    for (size_t i = 0; i < columns.size(); ++i) {
      out.append(width[i] + 2, '-');
      out += "|";
    }
    out += "\n";
  }
  for (const auto& row : rows) emit_row(row);
  return out;
}

namespace {

/// The plain statement dispatch (kDdl span is the one trace concern here:
/// CREATE TABLE's body includes relation-bee forging, worth its own span).
Result<SqlResult> Dispatch(Database* db, ExecContext* ctx,
                           const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable: {
      trace::SpanScope ddl(ctx->trace(), trace::SpanKind::kDdl,
                           "create table " + stmt.create.table);
      return RunCreate(db, stmt.create);
    }
    case Statement::Kind::kInsert:
      return RunInsert(db, ctx, stmt.insert);
    case Statement::Kind::kSelect:
      return stmt.explain_analyze ? RunExplainAnalyze(db, ctx, stmt.select)
                                  : RunSelect(db, ctx, stmt.select);
  }
  return Status::Internal("unreachable statement kind");
}

const char* StatementLabel(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable:
      return "create table";
    case Statement::Kind::kInsert:
      return "insert";
    case Statement::Kind::kSelect:
      return stmt.explain_analyze ? "explain analyze" : "select";
  }
  return "statement";
}

}  // namespace

Result<SqlResult> ExecuteSql(Database* db, ExecContext* ctx,
                             const std::string& sql) {
  ExecHints hints;
  hints.sql = &sql;
  hints.parse_start_ns = telemetry::NowNs();
  MICROSPEC_ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  hints.parse_end_ns = telemetry::NowNs();
  return ExecuteParsed(db, ctx, stmt, hints);
}

Result<SqlResult> ExecuteParsed(Database* db, ExecContext* ctx,
                                const Statement& stmt) {
  return ExecuteParsed(db, ctx, stmt, ExecHints{});
}

Result<SqlResult> ExecuteParsed(Database* db, ExecContext* ctx,
                                const Statement& stmt,
                                const ExecHints& hints) {
  if (hints.parse_end_ns > hints.parse_start_ns) {
    ParseNs()->Observe(hints.parse_end_ns - hints.parse_start_ns);
  }
  trace::Tracer* tracer = db->tracer();
  // Ownership: a trace pre-installed on the context (the server's per-
  // session scaffold) is the caller's to publish; otherwise sampling is
  // decided — and the finished trace published — right here. The untraced
  // path through this block is one counter bump and two null tests.
  const trace::TraceContext preset = ctx->trace();
  std::shared_ptr<trace::Trace> owned;
  if (!preset) owned = tracer->MaybeSample();
  trace::Trace* tr = preset ? preset.trace : owned.get();
  if (tr == nullptr) return Dispatch(db, ctx, stmt);

  // Statement span. BeginAt so it contains the parse (or statement-cache
  // lookup) the caller timed before execution was reached.
  const uint64_t stmt_start = hints.parse_start_ns != 0 ? hints.parse_start_ns
                                                        : telemetry::NowNs();
  if (hints.sql != nullptr) tr->set_sql(*hints.sql);
  const uint32_t stmt_span =
      tr->BeginAt(preset.parent, trace::SpanKind::kStatement,
                  StatementLabel(stmt), stmt_start);
  if (hints.parse_end_ns > hints.parse_start_ns) {
    tr->AddComplete(stmt_span, trace::SpanKind::kParse, "parse",
                    hints.parse_start_ns, hints.parse_end_ns);
  }
  ctx->set_trace(trace::TraceContext{tr, stmt_span});

  // Install a plan-stats collector on sampled plain SELECTs: it is what
  // gives the operators their spans in the trace. EXPLAIN ANALYZE itself
  // (and any caller-installed collector) already has one.
  std::unique_ptr<QueryStats> qs;
  if (stmt.kind == Statement::Kind::kSelect && !stmt.explain_analyze &&
      ctx->analyze() == nullptr) {
    qs = std::make_unique<QueryStats>();
    ctx->set_analyze(qs.get());
  }

  Result<SqlResult> run = Dispatch(db, ctx, stmt);

  if (qs != nullptr) ctx->set_analyze(nullptr);
  ctx->set_trace(preset);
  tr->End(stmt_span);
  const uint64_t now = telemetry::NowNs();
  const uint64_t total_ns = now - stmt_start;
  if (total_ns >= tracer->slow_query_ns()) {
    // Null only for a caller-installed trace no shared_ptr owns.
    if (auto ref = tr->weak_from_this().lock()) {
      tracer->RecordSlow({now, total_ns, std::move(ref)});
    }
    SlowQueriesTotal()->Add(1);
  }
  if (owned != nullptr) tracer->Publish(std::move(owned));
  return run;
}

}  // namespace microspec::sqlfe
