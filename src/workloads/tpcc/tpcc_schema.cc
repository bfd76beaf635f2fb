#include "workloads/tpcc/tpcc_schema.h"

namespace microspec::tpcc {

namespace {

Column NotNull(const char* name, TypeId type, int32_t len = 0) {
  return Column(name, type, /*not_null=*/true, len);
}

Column Nullable(const char* name, TypeId type, int32_t len = 0) {
  return Column(name, type, /*not_null=*/false, len);
}

Column LowCard(const char* name, TypeId type, int32_t len = 0) {
  Column c(name, type, /*not_null=*/true, len);
  c.set_low_cardinality(true);
  return c;
}

}  // namespace

Schema WarehouseSchema() {
  return Schema({
      NotNull("w_id", TypeId::kInt32),
      NotNull("w_name", TypeId::kChar, 10),
      NotNull("w_street_1", TypeId::kVarchar),
      NotNull("w_city", TypeId::kVarchar),
      NotNull("w_state", TypeId::kChar, 2),
      NotNull("w_zip", TypeId::kChar, 9),
      NotNull("w_tax", TypeId::kFloat64),
      NotNull("w_ytd", TypeId::kFloat64),
  });
}

Schema DistrictSchema() {
  return Schema({
      NotNull("d_id", TypeId::kInt32),
      NotNull("d_w_id", TypeId::kInt32),
      NotNull("d_name", TypeId::kChar, 10),
      NotNull("d_street_1", TypeId::kVarchar),
      NotNull("d_city", TypeId::kVarchar),
      NotNull("d_state", TypeId::kChar, 2),
      NotNull("d_zip", TypeId::kChar, 9),
      NotNull("d_tax", TypeId::kFloat64),
      NotNull("d_ytd", TypeId::kFloat64),
      NotNull("d_next_o_id", TypeId::kInt32),
  });
}

Schema CustomerSchema() {
  return Schema({
      NotNull("c_id", TypeId::kInt32),
      NotNull("c_d_id", TypeId::kInt32),
      NotNull("c_w_id", TypeId::kInt32),
      NotNull("c_first", TypeId::kVarchar),
      NotNull("c_middle", TypeId::kChar, 2),
      NotNull("c_last", TypeId::kVarchar),
      NotNull("c_street_1", TypeId::kVarchar),
      NotNull("c_city", TypeId::kVarchar),
      NotNull("c_state", TypeId::kChar, 2),
      NotNull("c_zip", TypeId::kChar, 9),
      NotNull("c_phone", TypeId::kChar, 16),
      NotNull("c_since", TypeId::kDate),
      LowCard("c_credit", TypeId::kChar, 2),  // "GC"/"BC": tuple-bee target
      NotNull("c_credit_lim", TypeId::kFloat64),
      NotNull("c_discount", TypeId::kFloat64),
      NotNull("c_balance", TypeId::kFloat64),
      NotNull("c_ytd_payment", TypeId::kFloat64),
      NotNull("c_payment_cnt", TypeId::kInt32),
      NotNull("c_delivery_cnt", TypeId::kInt32),
      NotNull("c_data", TypeId::kVarchar),
  });
}

Schema HistorySchema() {
  return Schema({
      NotNull("h_c_id", TypeId::kInt32),
      NotNull("h_c_d_id", TypeId::kInt32),
      NotNull("h_c_w_id", TypeId::kInt32),
      NotNull("h_d_id", TypeId::kInt32),
      NotNull("h_w_id", TypeId::kInt32),
      NotNull("h_date", TypeId::kDate),
      NotNull("h_amount", TypeId::kFloat64),
      NotNull("h_data", TypeId::kVarchar),
  });
}

Schema NewOrderSchema() {
  return Schema({
      NotNull("no_o_id", TypeId::kInt32),
      NotNull("no_d_id", TypeId::kInt32),
      NotNull("no_w_id", TypeId::kInt32),
  });
}

Schema OrderSchema() {
  return Schema({
      NotNull("o_id", TypeId::kInt32),
      NotNull("o_d_id", TypeId::kInt32),
      NotNull("o_w_id", TypeId::kInt32),
      NotNull("o_c_id", TypeId::kInt32),
      NotNull("o_entry_d", TypeId::kDate),
      Nullable("o_carrier_id", TypeId::kInt32),  // NULL until delivered
      NotNull("o_ol_cnt", TypeId::kInt32),
      NotNull("o_all_local", TypeId::kInt32),
  });
}

Schema OrderLineSchema() {
  return Schema({
      NotNull("ol_o_id", TypeId::kInt32),
      NotNull("ol_d_id", TypeId::kInt32),
      NotNull("ol_w_id", TypeId::kInt32),
      NotNull("ol_number", TypeId::kInt32),
      NotNull("ol_i_id", TypeId::kInt32),
      NotNull("ol_supply_w_id", TypeId::kInt32),
      Nullable("ol_delivery_d", TypeId::kDate),
      NotNull("ol_quantity", TypeId::kInt32),
      NotNull("ol_amount", TypeId::kFloat64),
      NotNull("ol_dist_info", TypeId::kChar, 24),
  });
}

Schema ItemSchema() {
  return Schema({
      NotNull("i_id", TypeId::kInt32),
      NotNull("i_im_id", TypeId::kInt32),
      NotNull("i_name", TypeId::kVarchar),
      NotNull("i_price", TypeId::kFloat64),
      NotNull("i_data", TypeId::kVarchar),
  });
}

Schema StockSchema() {
  return Schema({
      NotNull("s_i_id", TypeId::kInt32),
      NotNull("s_w_id", TypeId::kInt32),
      NotNull("s_quantity", TypeId::kInt32),
      NotNull("s_dist", TypeId::kChar, 24),
      NotNull("s_ytd", TypeId::kFloat64),
      NotNull("s_order_cnt", TypeId::kInt32),
      NotNull("s_remote_cnt", TypeId::kInt32),
      NotNull("s_data", TypeId::kVarchar),
  });
}

Status CreateTpccTables(Database* db) {
  // Indexes go through Database::CreateIndex, which logs kCreateIndex: on a
  // WAL database restart recovery then rebuilds them from the heap.
  auto index = [db](TableInfo* table, const char* name,
                    std::vector<int> key_columns) {
    return db->CreateIndex(table, name, std::move(key_columns)).status();
  };
  MICROSPEC_ASSIGN_OR_RETURN(TableInfo * warehouse,
                             db->CreateTable("warehouse", WarehouseSchema()));
  MICROSPEC_RETURN_NOT_OK(index(warehouse, "warehouse_pk", {kWId}));

  MICROSPEC_ASSIGN_OR_RETURN(TableInfo * district,
                             db->CreateTable("district", DistrictSchema()));
  MICROSPEC_RETURN_NOT_OK(index(district, "district_pk", {kDWId, kDId}));

  MICROSPEC_ASSIGN_OR_RETURN(TableInfo * customer,
                             db->CreateTable("customer", CustomerSchema()));
  MICROSPEC_RETURN_NOT_OK(
      index(customer, "customer_pk", {kCWId, kCDId, kCId}));

  MICROSPEC_RETURN_NOT_OK(db->CreateTable("history", HistorySchema()).status());

  MICROSPEC_ASSIGN_OR_RETURN(TableInfo * neworder,
                             db->CreateTable("neworder", NewOrderSchema()));
  MICROSPEC_RETURN_NOT_OK(
      index(neworder, "neworder_pk", {kNoWId, kNoDId, kNoOId}));

  MICROSPEC_ASSIGN_OR_RETURN(TableInfo * orders,
                             db->CreateTable("torders", OrderSchema()));
  MICROSPEC_RETURN_NOT_OK(index(orders, "orders_pk", {kOWId, kODId, kOId}));
  MICROSPEC_RETURN_NOT_OK(
      index(orders, "orders_by_cust", {kOWId, kODId, kOCId, kOId}));

  MICROSPEC_ASSIGN_OR_RETURN(TableInfo * orderline,
                             db->CreateTable("orderline", OrderLineSchema()));
  MICROSPEC_RETURN_NOT_OK(index(orderline, "orderline_pk",
                                {kOlWId, kOlDId, kOlOId, kOlNumber}));

  MICROSPEC_ASSIGN_OR_RETURN(TableInfo * item,
                             db->CreateTable("item", ItemSchema()));
  MICROSPEC_RETURN_NOT_OK(index(item, "item_pk", {kIId}));

  MICROSPEC_ASSIGN_OR_RETURN(TableInfo * stock,
                             db->CreateTable("stock", StockSchema()));
  MICROSPEC_RETURN_NOT_OK(index(stock, "stock_pk", {kSWId, kSIId}));
  return Status::OK();
}

}  // namespace microspec::tpcc
