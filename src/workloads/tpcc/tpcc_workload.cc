#include "workloads/tpcc/tpcc_workload.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "common/counters.h"
#include "storage/tuple.h"

namespace microspec::tpcc {

namespace {

constexpr int32_t kToday = 1000;  // arbitrary fixed "now" day number

/// Fetches via a unique index; NotFound when absent.
Result<TupleId> PkLookup(IndexInfo* idx, const IndexKey& key) {
  TupleId tid = 0;
  if (!idx->btree->Lookup(key, &tid)) {
    return Status::NotFound("missing key in " + idx->name);
  }
  return tid;
}

/// One WAL transaction around a modifying TPC-C transaction: its statements
/// share one kBegin, one kCommit and one log sync, and a failed statement or
/// a crash leaves none of them behind. Inert on a database without a WAL:
/// get() stays nullptr and each statement writes in place.
class TxnScope {
 public:
  explicit TxnScope(Database* db) : db_(db) {}
  /// A transaction still open here is rolled back. Finish and Abort report a
  /// rollback error; this path can only drop it.
  ~TxnScope() {
    if (active_) (void)db_->AbortTxn(&txn_);
  }
  MICROSPEC_DISALLOW_COPY_AND_MOVE(TxnScope);

  Status Begin() {
    if (db_->wal() == nullptr) return Status::OK();
    MICROSPEC_ASSIGN_OR_RETURN(txn_, db_->BeginTxn());
    active_ = true;
    return Status::OK();
  }

  /// The transaction to pass to every Insert/Update/Delete; nullptr when
  /// none is active.
  WalTxn* get() { return active_ ? &txn_ : nullptr; }

  Status Commit() {
    if (!active_) return Status::OK();
    active_ = false;
    return db_->CommitTxn(&txn_);
  }

  Status Abort() {
    if (!active_) return Status::OK();
    active_ = false;
    return db_->AbortTxn(&txn_);
  }

  /// Ends the transaction by the outcome of its statements: commits when
  /// `body` is OK, otherwise rolls back and returns `body`.
  Status Finish(Status body) {
    if (body.ok()) return Commit();
    Status undo = Abort();
    if (undo.ok()) return body;
    return Status(undo.code(), "rollback after \"" + body.ToString() +
                                   "\" failed: " + undo.message());
  }

 private:
  Database* db_;
  WalTxn txn_;
  bool active_ = false;
};

}  // namespace

TpccWorkload::TpccWorkload(Database* db, TpccConfig config)
    : db_(db), config_(config) {
  MICROSPEC_CHECK(ResolveTables().ok());
}

Status TpccWorkload::ResolveTables() {
  Catalog* c = db_->catalog();
  t_.warehouse = c->GetTable("warehouse");
  t_.district = c->GetTable("district");
  t_.customer = c->GetTable("customer");
  t_.history = c->GetTable("history");
  t_.neworder = c->GetTable("neworder");
  t_.orders = c->GetTable("torders");
  t_.orderline = c->GetTable("orderline");
  t_.item = c->GetTable("item");
  t_.stock = c->GetTable("stock");
  for (TableInfo* t : {t_.warehouse, t_.district, t_.customer, t_.history,
                       t_.neworder, t_.orders, t_.orderline, t_.item,
                       t_.stock}) {
    if (t == nullptr) return Status::NotFound("TPC-C tables missing");
  }
  t_.warehouse_pk = t_.warehouse->GetIndex("warehouse_pk");
  t_.district_pk = t_.district->GetIndex("district_pk");
  t_.customer_pk = t_.customer->GetIndex("customer_pk");
  t_.neworder_pk = t_.neworder->GetIndex("neworder_pk");
  t_.orders_pk = t_.orders->GetIndex("orders_pk");
  t_.orders_by_cust = t_.orders->GetIndex("orders_by_cust");
  t_.orderline_pk = t_.orderline->GetIndex("orderline_pk");
  t_.item_pk = t_.item->GetIndex("item_pk");
  t_.stock_pk = t_.stock->GetIndex("stock_pk");
  return Status::OK();
}

Status TpccWorkload::Load() {
  auto ctx = db_->MakeContext();
  Rng rng(config_.seed);
  Arena arena;

  // item
  {
    Database::BulkLoader loader(db_, ctx.get(), t_.item);
    for (int i = 1; i <= config_.items; ++i) {
      Datum v[5];
      v[kIId] = DatumFromInt32(i);
      v[kIImId] = DatumFromInt32(static_cast<int32_t>(rng.UniformRange(1, 10000)));
      v[kIName] = tupleops::MakeVarlena(&arena, rng.AlnumString(14, 24));
      v[kIPrice] = DatumFromFloat64(rng.UniformRange(100, 10000) / 100.0);
      v[kIData] = tupleops::MakeVarlena(&arena, rng.AlnumString(26, 50));
      MICROSPEC_RETURN_NOT_OK(loader.Append(v, nullptr));
      if (i % 2048 == 0) arena.Reset();
    }
    MICROSPEC_RETURN_NOT_OK(loader.Finish());
  }

  for (int w = 1; w <= config_.warehouses; ++w) {
    // warehouse
    {
      Datum v[8];
      v[kWId] = DatumFromInt32(w);
      v[kWName] = tupleops::MakeFixedChar(&arena, "WH" + std::to_string(w), 10);
      v[kWStreet1] = tupleops::MakeVarlena(&arena, rng.AlnumString(10, 20));
      v[kWCity] = tupleops::MakeVarlena(&arena, rng.AlnumString(10, 20));
      v[kWState] = tupleops::MakeFixedChar(&arena, "AZ", 2);
      v[kWZip] = tupleops::MakeFixedChar(&arena, "123456789", 9);
      v[kWTax] = DatumFromFloat64(rng.UniformRange(0, 2000) / 10000.0);
      // Spec: 300,000 over 10 districts of 30,000 each; scaled with the
      // district count so w_ytd = sum(d_ytd) holds (consistency condition 1).
      v[kWYtd] = DatumFromFloat64(30000.0 * config_.districts_per_warehouse);
      MICROSPEC_RETURN_NOT_OK(db_->Insert(ctx.get(), t_.warehouse, v, nullptr).status());
    }

    // stock (one row per item per warehouse)
    {
      Database::BulkLoader loader(db_, ctx.get(), t_.stock);
      for (int i = 1; i <= config_.items; ++i) {
        Datum v[8];
        v[kSIId] = DatumFromInt32(i);
        v[kSWId] = DatumFromInt32(w);
        v[kSQuantity] =
            DatumFromInt32(static_cast<int32_t>(rng.UniformRange(10, 100)));
        v[kSDist] = tupleops::MakeFixedChar(&arena, rng.AlnumString(24, 24), 24);
        v[kSYtd] = DatumFromFloat64(0);
        v[kSOrderCnt] = DatumFromInt32(0);
        v[kSRemoteCnt] = DatumFromInt32(0);
        v[kSData] = tupleops::MakeVarlena(&arena, rng.AlnumString(26, 50));
        MICROSPEC_RETURN_NOT_OK(loader.Append(v, nullptr));
        if (i % 2048 == 0) arena.Reset();
      }
      MICROSPEC_RETURN_NOT_OK(loader.Finish());
    }

    for (int d = 1; d <= config_.districts_per_warehouse; ++d) {
      // district
      {
        Datum v[10];
        v[kDId] = DatumFromInt32(d);
        v[kDWId] = DatumFromInt32(w);
        v[kDName] =
            tupleops::MakeFixedChar(&arena, "D" + std::to_string(d), 10);
        v[kDStreet1] = tupleops::MakeVarlena(&arena, rng.AlnumString(10, 20));
        v[kDCity] = tupleops::MakeVarlena(&arena, rng.AlnumString(10, 20));
        v[kDState] = tupleops::MakeFixedChar(&arena, "AZ", 2);
        v[kDZip] = tupleops::MakeFixedChar(&arena, "123456789", 9);
        v[kDTax] = DatumFromFloat64(rng.UniformRange(0, 2000) / 10000.0);
        v[kDYtd] = DatumFromFloat64(30000.0);
        v[kDNextOId] =
            DatumFromInt32(config_.initial_orders_per_district + 1);
        MICROSPEC_RETURN_NOT_OK(
            db_->Insert(ctx.get(), t_.district, v, nullptr).status());
      }

      // customers + one history row each
      {
        Database::BulkLoader cl(db_, ctx.get(), t_.customer);
        Database::BulkLoader hl(db_, ctx.get(), t_.history);
        for (int c = 1; c <= config_.customers_per_district; ++c) {
          Datum v[20];
          v[kCId] = DatumFromInt32(c);
          v[kCDId] = DatumFromInt32(d);
          v[kCWId] = DatumFromInt32(w);
          v[kCFirst] = tupleops::MakeVarlena(&arena, rng.AlnumString(8, 16));
          v[kCMiddle] = tupleops::MakeFixedChar(&arena, "OE", 2);
          v[kCLast] = tupleops::MakeVarlena(
              &arena, "CUST" + std::to_string(c % 1000));
          v[kCStreet1] = tupleops::MakeVarlena(&arena, rng.AlnumString(10, 20));
          v[kCCity] = tupleops::MakeVarlena(&arena, rng.AlnumString(10, 20));
          v[kCState] = tupleops::MakeFixedChar(&arena, "AZ", 2);
          v[kCZip] = tupleops::MakeFixedChar(&arena, "987654321", 9);
          v[kCPhone] =
              tupleops::MakeFixedChar(&arena, rng.AlnumString(16, 16), 16);
          v[kCSince] = DatumFromInt32(0);
          v[kCCredit] = tupleops::MakeFixedChar(
              &arena, rng.Uniform(10) == 0 ? "BC" : "GC", 2);
          v[kCCreditLim] = DatumFromFloat64(50000.0);
          v[kCDiscount] = DatumFromFloat64(rng.UniformRange(0, 5000) / 10000.0);
          v[kCBalance] = DatumFromFloat64(-10.0);
          v[kCYtdPayment] = DatumFromFloat64(10.0);
          v[kCPaymentCnt] = DatumFromInt32(1);
          v[kCDeliveryCnt] = DatumFromInt32(0);
          v[kCData] = tupleops::MakeVarlena(&arena, rng.AlnumString(50, 100));
          MICROSPEC_RETURN_NOT_OK(cl.Append(v, nullptr));

          Datum h[8];
          h[kHCId] = DatumFromInt32(c);
          h[kHCDId] = DatumFromInt32(d);
          h[kHCWId] = DatumFromInt32(w);
          h[kHDId] = DatumFromInt32(d);
          h[kHWId] = DatumFromInt32(w);
          h[kHDate] = DatumFromInt32(0);
          h[kHAmount] = DatumFromFloat64(10.0);
          h[kHData] = tupleops::MakeVarlena(&arena, rng.AlnumString(12, 24));
          MICROSPEC_RETURN_NOT_OK(hl.Append(h, nullptr));
          if (c % 512 == 0) arena.Reset();
        }
        MICROSPEC_RETURN_NOT_OK(cl.Finish());
        MICROSPEC_RETURN_NOT_OK(hl.Finish());
      }

      // initial orders, order lines, and the open neworder tail
      {
        Database::BulkLoader ol_loader(db_, ctx.get(), t_.orderline);
        Database::BulkLoader o_loader(db_, ctx.get(), t_.orders);
        Database::BulkLoader no_loader(db_, ctx.get(), t_.neworder);
        int delivered_upto = config_.initial_orders_per_district * 7 / 10;
        for (int o = 1; o <= config_.initial_orders_per_district; ++o) {
          bool delivered = o <= delivered_upto;
          int ol_cnt = static_cast<int>(rng.UniformRange(5, 15));
          Datum v[8];
          bool isnull[8] = {false, false, false, false,
                            false, false, false, false};
          v[kOId] = DatumFromInt32(o);
          v[kODId] = DatumFromInt32(d);
          v[kOWId] = DatumFromInt32(w);
          v[kOCId] = DatumFromInt32(static_cast<int32_t>(
              rng.UniformRange(1, config_.customers_per_district)));
          v[kOEntryD] = DatumFromInt32(kToday - 10);
          if (delivered) {
            v[kOCarrierId] =
                DatumFromInt32(static_cast<int32_t>(rng.UniformRange(1, 10)));
          } else {
            v[kOCarrierId] = 0;
            isnull[kOCarrierId] = true;
          }
          v[kOOlCnt] = DatumFromInt32(ol_cnt);
          v[kOAllLocal] = DatumFromInt32(1);
          MICROSPEC_RETURN_NOT_OK(o_loader.Append(v, isnull));

          for (int l = 1; l <= ol_cnt; ++l) {
            Datum ol[10];
            bool oln[10] = {false, false, false, false, false,
                            false, false, false, false, false};
            ol[kOlOId] = DatumFromInt32(o);
            ol[kOlDId] = DatumFromInt32(d);
            ol[kOlWId] = DatumFromInt32(w);
            ol[kOlNumber] = DatumFromInt32(l);
            ol[kOlIId] = DatumFromInt32(
                static_cast<int32_t>(rng.UniformRange(1, config_.items)));
            ol[kOlSupplyWId] = DatumFromInt32(w);
            if (delivered) {
              ol[kOlDeliveryD] = DatumFromInt32(kToday - 5);
            } else {
              ol[kOlDeliveryD] = 0;
              oln[kOlDeliveryD] = true;
            }
            ol[kOlQuantity] = DatumFromInt32(5);
            ol[kOlAmount] = DatumFromFloat64(
                delivered ? 0.0 : rng.UniformRange(1, 999999) / 100.0);
            ol[kOlDistInfo] =
                tupleops::MakeFixedChar(&arena, rng.AlnumString(24, 24), 24);
            MICROSPEC_RETURN_NOT_OK(ol_loader.Append(ol, oln));
          }

          if (!delivered) {
            Datum no[3];
            no[kNoOId] = DatumFromInt32(o);
            no[kNoDId] = DatumFromInt32(d);
            no[kNoWId] = DatumFromInt32(w);
            MICROSPEC_RETURN_NOT_OK(no_loader.Append(no, nullptr));
          }
          if (o % 256 == 0) arena.Reset();
        }
        MICROSPEC_RETURN_NOT_OK(ol_loader.Finish());
        MICROSPEC_RETURN_NOT_OK(o_loader.Finish());
        MICROSPEC_RETURN_NOT_OK(no_loader.Finish());
      }
      arena.Reset();
    }
  }
  return Status::OK();
}

/// --- Transactions ------------------------------------------------------------

Status TpccWorkload::NewOrder(ExecContext* ctx, Rng& rng) {
  std::unique_lock<std::shared_mutex> lock(txn_mutex_);
  int32_t w = static_cast<int32_t>(rng.UniformRange(1, config_.warehouses));
  int32_t d = static_cast<int32_t>(
      rng.UniformRange(1, config_.districts_per_warehouse));
  int32_t c = static_cast<int32_t>(
      rng.NonUniform(1023, 1, config_.customers_per_district));
  int ol_cnt = static_cast<int>(rng.UniformRange(5, 15));
  // Spec 2.4.1.4: 1% of NewOrders name an unused item on their last line
  // and roll back when its lookup fails.
  const bool rollback = rng.UniformRange(1, 100) == 1;

  struct Line {
    int32_t i_id;
    int32_t supply_w;
    int32_t qty;
  };
  Line lines[15] = {};
  for (int l = 0; l < ol_cnt; ++l) {
    Line& line = lines[l];
    line.i_id = static_cast<int32_t>(rng.NonUniform(8191, 1, config_.items));
    line.supply_w = w;
    if (config_.warehouses > 1 && rng.Uniform(100) == 0) {
      line.supply_w = static_cast<int32_t>(
          rng.UniformRange(1, config_.warehouses));  // remote line
    }
    line.qty = static_cast<int32_t>(rng.UniformRange(1, 10));
  }
  if (rollback) lines[ol_cnt - 1].i_id = config_.items + 1;

  TxnScope txn(db_);
  MICROSPEC_RETURN_NOT_OK(txn.Begin());
  // Without a log there is no undo, so the unused item is caught before the
  // first write and the transaction writes nothing.
  if (rollback && txn.get() == nullptr) return Status::OK();

  bool unused_item = false;
  Status st = [&]() -> Status {
    // District: allocate the order id and bump d_next_o_id.
    Datum dv[10];
    bool dn[10];
    MICROSPEC_ASSIGN_OR_RETURN(TupleId dtid,
                               PkLookup(t_.district_pk, IndexKey::Of({w, d})));
    MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.district, dtid, dv, dn));
    int32_t o_id = DatumToInt32(dv[kDNextOId]);
    dv[kDNextOId] = DatumFromInt32(o_id + 1);
    MICROSPEC_RETURN_NOT_OK(
        db_->Update(ctx, t_.district, dtid, dv, dn, false, txn.get())
            .status());

    // orders + neworder rows.
    {
      Datum ov[8];
      bool on[8] = {false, false, false, false, false, true, false, false};
      ov[kOId] = DatumFromInt32(o_id);
      ov[kODId] = DatumFromInt32(d);
      ov[kOWId] = DatumFromInt32(w);
      ov[kOCId] = DatumFromInt32(c);
      ov[kOEntryD] = DatumFromInt32(kToday);
      ov[kOCarrierId] = 0;  // NULL
      ov[kOOlCnt] = DatumFromInt32(ol_cnt);
      ov[kOAllLocal] = DatumFromInt32(1);
      MICROSPEC_RETURN_NOT_OK(
          db_->Insert(ctx, t_.orders, ov, on, txn.get()).status());

      Datum nv[3] = {DatumFromInt32(o_id), DatumFromInt32(d),
                     DatumFromInt32(w)};
      MICROSPEC_RETURN_NOT_OK(
          db_->Insert(ctx, t_.neworder, nv, nullptr, txn.get()).status());
    }

    Arena arena;
    for (int l = 1; l <= ol_cnt; ++l) {
      const Line& line = lines[l - 1];
      Datum iv[5];
      bool in_[5];
      Result<TupleId> itid = PkLookup(t_.item_pk, IndexKey::Of({line.i_id}));
      if (!itid.ok()) {
        unused_item = rollback && l == ol_cnt;
        return itid.status();
      }
      MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.item, *itid, iv, in_));
      double price = DatumToFloat64(iv[kIPrice]);

      Datum sv[8];
      bool sn[8];
      MICROSPEC_ASSIGN_OR_RETURN(
          TupleId stid,
          PkLookup(t_.stock_pk, IndexKey::Of({line.supply_w, line.i_id})));
      MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.stock, stid, sv, sn));
      int32_t squant = DatumToInt32(sv[kSQuantity]);
      squant = squant - line.qty >= 10 ? squant - line.qty
                                       : squant - line.qty + 91;
      sv[kSQuantity] = DatumFromInt32(squant);
      sv[kSYtd] = DatumFromFloat64(DatumToFloat64(sv[kSYtd]) + line.qty);
      sv[kSOrderCnt] = DatumFromInt32(DatumToInt32(sv[kSOrderCnt]) + 1);
      if (line.supply_w != w) {
        sv[kSRemoteCnt] = DatumFromInt32(DatumToInt32(sv[kSRemoteCnt]) + 1);
      }
      MICROSPEC_RETURN_NOT_OK(
          db_->Update(ctx, t_.stock, stid, sv, sn, false, txn.get())
              .status());

      Datum ol[10];
      bool oln[10] = {false, false, false, false, false,
                      false, true,  false, false, false};
      ol[kOlOId] = DatumFromInt32(o_id);
      ol[kOlDId] = DatumFromInt32(d);
      ol[kOlWId] = DatumFromInt32(w);
      ol[kOlNumber] = DatumFromInt32(l);
      ol[kOlIId] = DatumFromInt32(line.i_id);
      ol[kOlSupplyWId] = DatumFromInt32(line.supply_w);
      ol[kOlDeliveryD] = 0;  // NULL
      ol[kOlQuantity] = DatumFromInt32(line.qty);
      ol[kOlAmount] = DatumFromFloat64(line.qty * price);
      ol[kOlDistInfo] = tupleops::MakeFixedChar(&arena,
                                                "dist-info-filler-24ch", 24);
      MICROSPEC_RETURN_NOT_OK(
          db_->Insert(ctx, t_.orderline, ol, oln, txn.get()).status());
    }
    return Status::OK();
  }();
  // The rolled-back NewOrder is an expected outcome, not a failure.
  if (unused_item) return txn.Abort();
  return txn.Finish(std::move(st));
}

Status TpccWorkload::Payment(ExecContext* ctx, Rng& rng) {
  std::unique_lock<std::shared_mutex> lock(txn_mutex_);
  int32_t w = static_cast<int32_t>(rng.UniformRange(1, config_.warehouses));
  int32_t d = static_cast<int32_t>(
      rng.UniformRange(1, config_.districts_per_warehouse));
  int32_t c = static_cast<int32_t>(
      rng.NonUniform(1023, 1, config_.customers_per_district));
  double amount = rng.UniformRange(100, 500000) / 100.0;

  TxnScope txn(db_);
  MICROSPEC_RETURN_NOT_OK(txn.Begin());
  Status st = [&]() -> Status {
    Datum wv[8];
    bool wn[8];
    MICROSPEC_ASSIGN_OR_RETURN(TupleId wtid,
                               PkLookup(t_.warehouse_pk, IndexKey::Of({w})));
    MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.warehouse, wtid, wv, wn));
    wv[kWYtd] = DatumFromFloat64(DatumToFloat64(wv[kWYtd]) + amount);
    MICROSPEC_RETURN_NOT_OK(
        db_->Update(ctx, t_.warehouse, wtid, wv, wn, false, txn.get())
            .status());

    Datum dv[10];
    bool dn[10];
    MICROSPEC_ASSIGN_OR_RETURN(TupleId dtid,
                               PkLookup(t_.district_pk, IndexKey::Of({w, d})));
    MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.district, dtid, dv, dn));
    dv[kDYtd] = DatumFromFloat64(DatumToFloat64(dv[kDYtd]) + amount);
    MICROSPEC_RETURN_NOT_OK(
        db_->Update(ctx, t_.district, dtid, dv, dn, false, txn.get())
            .status());

    Datum cv[20];
    bool cn[20];
    MICROSPEC_ASSIGN_OR_RETURN(
        TupleId ctid, PkLookup(t_.customer_pk, IndexKey::Of({w, d, c})));
    MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.customer, ctid, cv, cn));
    cv[kCBalance] = DatumFromFloat64(DatumToFloat64(cv[kCBalance]) - amount);
    cv[kCYtdPayment] =
        DatumFromFloat64(DatumToFloat64(cv[kCYtdPayment]) + amount);
    cv[kCPaymentCnt] = DatumFromInt32(DatumToInt32(cv[kCPaymentCnt]) + 1);
    MICROSPEC_RETURN_NOT_OK(
        db_->Update(ctx, t_.customer, ctid, cv, cn, false, txn.get())
            .status());

    Arena arena;
    Datum hv[8];
    hv[kHCId] = DatumFromInt32(c);
    hv[kHCDId] = DatumFromInt32(d);
    hv[kHCWId] = DatumFromInt32(w);
    hv[kHDId] = DatumFromInt32(d);
    hv[kHWId] = DatumFromInt32(w);
    hv[kHDate] = DatumFromInt32(kToday);
    hv[kHAmount] = DatumFromFloat64(amount);
    hv[kHData] = tupleops::MakeVarlena(&arena, "payment-history-data");
    return db_->Insert(ctx, t_.history, hv, nullptr, txn.get()).status();
  }();
  return txn.Finish(std::move(st));
}

Status TpccWorkload::OrderStatus(ExecContext* ctx, Rng& rng) {
  std::shared_lock<std::shared_mutex> lock(txn_mutex_);
  int32_t w = static_cast<int32_t>(rng.UniformRange(1, config_.warehouses));
  int32_t d = static_cast<int32_t>(
      rng.UniformRange(1, config_.districts_per_warehouse));
  int32_t c = static_cast<int32_t>(
      rng.NonUniform(1023, 1, config_.customers_per_district));

  Datum cv[20];
  bool cn[20];
  MICROSPEC_ASSIGN_OR_RETURN(
      TupleId ctid, PkLookup(t_.customer_pk, IndexKey::Of({w, d, c})));
  MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.customer, ctid, cv, cn));

  // Most recent order of this customer.
  TupleId otid = kInvalidTupleId;
  t_.orders_by_cust->btree->ScanPrefix(
      IndexKey::Of({w, d, c}), [&](const IndexKey&, TupleId tid) {
        otid = tid;  // keys ascend; the last one wins
        return true;
      });
  if (otid == kInvalidTupleId) return Status::OK();  // customer never ordered

  Datum ov[8];
  bool on[8];
  MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.orders, otid, ov, on));
  int32_t o_id = DatumToInt32(ov[kOId]);

  // Read every line of that order.
  Status scan_status = Status::OK();
  t_.orderline_pk->btree->ScanPrefix(
      IndexKey::Of({w, d, o_id}), [&](const IndexKey&, TupleId tid) {
        Datum lv[10];
        bool ln[10];
        Status st = db_->ReadTuple(ctx, t_.orderline, tid, lv, ln);
        if (!st.ok()) {
          scan_status = st;
          return false;
        }
        return true;
      });
  return scan_status;
}

Status TpccWorkload::Delivery(ExecContext* ctx, Rng& rng) {
  std::unique_lock<std::shared_mutex> lock(txn_mutex_);
  int32_t w = static_cast<int32_t>(rng.UniformRange(1, config_.warehouses));
  int32_t carrier = static_cast<int32_t>(rng.UniformRange(1, 10));

  TxnScope txn(db_);
  MICROSPEC_RETURN_NOT_OK(txn.Begin());
  Status st = [&]() -> Status {
    for (int32_t d = 1; d <= config_.districts_per_warehouse; ++d) {
      // Oldest undelivered order of the district.
      TupleId notid = kInvalidTupleId;
      int64_t o_id = -1;
      t_.neworder_pk->btree->ScanPrefix(
          IndexKey::Of({w, d}), [&](const IndexKey& k, TupleId tid) {
            notid = tid;
            o_id = k.part[2];
            return false;  // first = oldest
          });
      if (notid == kInvalidTupleId) continue;  // district fully delivered

      MICROSPEC_RETURN_NOT_OK(
          db_->Delete(ctx, t_.neworder, notid, txn.get()));

      Datum ov[8];
      bool on[8];
      MICROSPEC_ASSIGN_OR_RETURN(
          TupleId otid, PkLookup(t_.orders_pk, IndexKey::Of({w, d, o_id})));
      MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.orders, otid, ov, on));
      int32_t c = DatumToInt32(ov[kOCId]);
      ov[kOCarrierId] = DatumFromInt32(carrier);
      on[kOCarrierId] = false;
      MICROSPEC_RETURN_NOT_OK(
          db_->Update(ctx, t_.orders, otid, ov, on, false, txn.get())
              .status());

      // Stamp the delivery date on each line and total the amounts.
      double total = 0;
      std::vector<TupleId> line_tids;
      t_.orderline_pk->btree->ScanPrefix(
          IndexKey::Of({w, d, o_id}), [&](const IndexKey&, TupleId tid) {
            line_tids.push_back(tid);
            return true;
          });
      for (TupleId tid : line_tids) {
        Datum lv[10];
        bool ln[10];
        MICROSPEC_RETURN_NOT_OK(
            db_->ReadTuple(ctx, t_.orderline, tid, lv, ln));
        total += DatumToFloat64(lv[kOlAmount]);
        lv[kOlDeliveryD] = DatumFromInt32(kToday);
        ln[kOlDeliveryD] = false;
        MICROSPEC_RETURN_NOT_OK(
            db_->Update(ctx, t_.orderline, tid, lv, ln, false, txn.get())
                .status());
      }

      Datum cv[20];
      bool cn[20];
      MICROSPEC_ASSIGN_OR_RETURN(
          TupleId ctid, PkLookup(t_.customer_pk, IndexKey::Of({w, d, c})));
      MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.customer, ctid, cv, cn));
      cv[kCBalance] = DatumFromFloat64(DatumToFloat64(cv[kCBalance]) + total);
      cv[kCDeliveryCnt] = DatumFromInt32(DatumToInt32(cv[kCDeliveryCnt]) + 1);
      MICROSPEC_RETURN_NOT_OK(
          db_->Update(ctx, t_.customer, ctid, cv, cn, false, txn.get())
              .status());
    }
    return Status::OK();
  }();
  return txn.Finish(std::move(st));
}

Status TpccWorkload::StockLevel(ExecContext* ctx, Rng& rng) {
  std::shared_lock<std::shared_mutex> lock(txn_mutex_);
  int32_t w = static_cast<int32_t>(rng.UniformRange(1, config_.warehouses));
  int32_t d = static_cast<int32_t>(
      rng.UniformRange(1, config_.districts_per_warehouse));
  int32_t threshold = static_cast<int32_t>(rng.UniformRange(10, 20));

  Datum dv[10];
  bool dn[10];
  MICROSPEC_ASSIGN_OR_RETURN(TupleId dtid,
                             PkLookup(t_.district_pk, IndexKey::Of({w, d})));
  MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.district, dtid, dv, dn));
  int32_t next_o = DatumToInt32(dv[kDNextOId]);

  // Items in the last 20 orders of the district...
  std::unordered_set<int32_t> items;
  Status scan_status = Status::OK();
  for (int32_t o = next_o - 20 > 1 ? next_o - 20 : 1; o < next_o; ++o) {
    t_.orderline_pk->btree->ScanPrefix(
        IndexKey::Of({w, d, o}), [&](const IndexKey&, TupleId tid) {
          Datum lv[10];
          bool ln[10];
          Status st = db_->ReadTuple(ctx, t_.orderline, tid, lv, ln);
          if (!st.ok()) {
            scan_status = st;
            return false;
          }
          items.insert(DatumToInt32(lv[kOlIId]));
          return true;
        });
  }
  MICROSPEC_RETURN_NOT_OK(scan_status);

  // ...whose stock is below the threshold.
  int low = 0;
  for (int32_t i : items) {
    Datum sv[8];
    bool sn[8];
    MICROSPEC_ASSIGN_OR_RETURN(TupleId stid,
                               PkLookup(t_.stock_pk, IndexKey::Of({w, i})));
    MICROSPEC_RETURN_NOT_OK(db_->ReadTuple(ctx, t_.stock, stid, sv, sn));
    if (DatumToInt32(sv[kSQuantity]) < threshold) ++low;
  }
  (void)low;
  return Status::OK();
}

Result<TxnCounts> TpccWorkload::RunFixed(const TpccMix& mix, int terminals,
                                         uint64_t txns_per_terminal,
                                         uint64_t round,
                                         double* elapsed_seconds,
                                         uint64_t* work_ops) {
  std::atomic<uint64_t> counts[6] = {};
  std::atomic<uint64_t> total_ops{0};
  int total_weight = mix.new_order + mix.payment + mix.order_status +
                     mix.delivery + mix.stock_level;
  MICROSPEC_CHECK(total_weight > 0);

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < terminals; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(config_.seed * 7919 + static_cast<uint64_t>(t) * 104729 +
              round * 15485863 + 1);
      auto ctx = db_->MakeContext();
      uint64_t ops_before = workops::Read();
      for (uint64_t i = 0; i < txns_per_terminal; ++i) {
        int draw =
            static_cast<int>(rng.Uniform(static_cast<uint64_t>(total_weight)));
        Status st;
        int kind;
        if (draw < mix.new_order) {
          st = NewOrder(ctx.get(), rng);
          kind = 0;
        } else if (draw < mix.new_order + mix.payment) {
          st = Payment(ctx.get(), rng);
          kind = 1;
        } else if (draw < mix.new_order + mix.payment + mix.order_status) {
          st = OrderStatus(ctx.get(), rng);
          kind = 2;
        } else if (draw < mix.new_order + mix.payment + mix.order_status +
                              mix.delivery) {
          st = Delivery(ctx.get(), rng);
          kind = 3;
        } else {
          st = StockLevel(ctx.get(), rng);
          kind = 4;
        }
        counts[st.ok() ? kind : 5].fetch_add(1, std::memory_order_relaxed);
      }
      total_ops.fetch_add(workops::Read() - ops_before,
                          std::memory_order_relaxed);
    });
  }
  for (std::thread& th : threads) th.join();
  if (work_ops != nullptr) *work_ops = total_ops.load();
  *elapsed_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();

  TxnCounts out;
  out.new_order = counts[0].load();
  out.payment = counts[1].load();
  out.order_status = counts[2].load();
  out.delivery = counts[3].load();
  out.stock_level = counts[4].load();
  out.failed = counts[5].load();
  return out;
}

Result<TxnCounts> TpccWorkload::Run(const TpccMix& mix, int terminals,
                                    double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> counts[6] = {};
  std::vector<std::thread> threads;
  int total_weight = mix.new_order + mix.payment + mix.order_status +
                     mix.delivery + mix.stock_level;
  MICROSPEC_CHECK(total_weight > 0);

  for (int t = 0; t < terminals; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(config_.seed * 7919 + static_cast<uint64_t>(t) * 104729 + 1);
      auto ctx = db_->MakeContext();
      while (!stop.load(std::memory_order_relaxed)) {
        int draw = static_cast<int>(rng.Uniform(
            static_cast<uint64_t>(total_weight)));
        Status st;
        int kind;
        if (draw < mix.new_order) {
          st = NewOrder(ctx.get(), rng);
          kind = 0;
        } else if (draw < mix.new_order + mix.payment) {
          st = Payment(ctx.get(), rng);
          kind = 1;
        } else if (draw < mix.new_order + mix.payment + mix.order_status) {
          st = OrderStatus(ctx.get(), rng);
          kind = 2;
        } else if (draw <
                   mix.new_order + mix.payment + mix.order_status +
                       mix.delivery) {
          st = Delivery(ctx.get(), rng);
          kind = 3;
        } else {
          st = StockLevel(ctx.get(), rng);
          kind = 4;
        }
        counts[st.ok() ? kind : 5].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& th : threads) th.join();

  TxnCounts out;
  out.new_order = counts[0].load();
  out.payment = counts[1].load();
  out.order_status = counts[2].load();
  out.delivery = counts[3].load();
  out.stock_level = counts[4].load();
  out.failed = counts[5].load();
  return out;
}

}  // namespace microspec::tpcc
