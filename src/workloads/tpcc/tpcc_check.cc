#include "workloads/tpcc/tpcc_check.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>
#include <utility>

#include "exec/plan_builder.h"
#include "workloads/tpcc/tpcc_schema.h"

namespace microspec::tpcc {

namespace {

/// Drains a full scan of `table`, calling fn(values) per row.
template <typename Fn>
Status ScanTable(Database* db, const char* table, Fn&& fn) {
  TableInfo* info = db->catalog()->GetTable(table);
  if (info == nullptr) return Status::NotFound(std::string("table ") + table);
  auto ctx = db->MakeContext();
  OperatorPtr op = Plan::Scan(ctx.get(), info).Build();
  return ForEachRow(op.get(), [&](const Datum* v, const bool*) { fn(v); });
}

}  // namespace

Result<std::vector<std::string>> CheckConsistency(Database* db) {
  struct District {
    double ytd = 0;
    int32_t next_o_id = 0;
    int32_t max_o_id = 0;
    int64_t ol_cnt_sum = 0;
    int64_t orderlines = 0;
    int32_t no_min = INT32_MAX;
    int32_t no_max = 0;
    int64_t neworders = 0;
  };
  std::map<int32_t, double> w_ytd;
  std::map<std::pair<int32_t, int32_t>, District> dist;  // (w, d)
  MICROSPEC_RETURN_NOT_OK(ScanTable(db, "warehouse", [&](const Datum* v) {
    w_ytd[DatumToInt32(v[kWId])] = DatumToFloat64(v[kWYtd]);
  }));
  MICROSPEC_RETURN_NOT_OK(ScanTable(db, "district", [&](const Datum* v) {
    District& x = dist[{DatumToInt32(v[kDWId]), DatumToInt32(v[kDId])}];
    x.ytd = DatumToFloat64(v[kDYtd]);
    x.next_o_id = DatumToInt32(v[kDNextOId]);
  }));
  MICROSPEC_RETURN_NOT_OK(ScanTable(db, "torders", [&](const Datum* v) {
    District& x = dist[{DatumToInt32(v[kOWId]), DatumToInt32(v[kODId])}];
    x.max_o_id = std::max(x.max_o_id, DatumToInt32(v[kOId]));
    x.ol_cnt_sum += DatumToInt32(v[kOOlCnt]);
  }));
  MICROSPEC_RETURN_NOT_OK(ScanTable(db, "orderline", [&](const Datum* v) {
    ++dist[{DatumToInt32(v[kOlWId]), DatumToInt32(v[kOlDId])}].orderlines;
  }));
  MICROSPEC_RETURN_NOT_OK(ScanTable(db, "neworder", [&](const Datum* v) {
    District& x = dist[{DatumToInt32(v[kNoWId]), DatumToInt32(v[kNoDId])}];
    const int32_t o = DatumToInt32(v[kNoOId]);
    x.no_min = std::min(x.no_min, o);
    x.no_max = std::max(x.no_max, o);
    ++x.neworders;
  }));

  std::vector<std::string> violations;
  std::map<int32_t, double> d_ytd_sum;
  for (const auto& [key, x] : dist) {
    const std::string where = "w" + std::to_string(key.first) + " d" +
                              std::to_string(key.second) + ": ";
    d_ytd_sum[key.first] += x.ytd;
    if (x.next_o_id - 1 != x.max_o_id) {
      violations.push_back(where + "d_next_o_id - 1 (" +
                           std::to_string(x.next_o_id - 1) +
                           ") != max(o_id) (" + std::to_string(x.max_o_id) +
                           ")");
    }
    if (x.neworders > 0 && x.no_max != x.max_o_id) {
      violations.push_back(where + "max(no_o_id) != max(o_id)");
    }
    if (x.neworders > 0 && x.no_max - x.no_min + 1 != x.neworders) {
      violations.push_back(where + "new-order ids are not contiguous");
    }
    if (x.ol_cnt_sum != x.orderlines) {
      violations.push_back(where + "sum(o_ol_cnt) (" +
                           std::to_string(x.ol_cnt_sum) +
                           ") != count(orderline) (" +
                           std::to_string(x.orderlines) + ")");
    }
  }
  for (const auto& [w, ytd] : w_ytd) {
    if (std::fabs(ytd - d_ytd_sum[w]) > 1e-6 * std::max(1.0, ytd)) {
      violations.push_back("w" + std::to_string(w) + ": w_ytd != sum(d_ytd)");
    }
  }
  return violations;
}

}  // namespace microspec::tpcc
