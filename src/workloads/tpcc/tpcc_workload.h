#ifndef MICROSPEC_WORKLOADS_TPCC_TPCC_WORKLOAD_H_
#define MICROSPEC_WORKLOADS_TPCC_TPCC_WORKLOAD_H_

#include <shared_mutex>

#include "common/rng.h"
#include "engine/database.h"
#include "workloads/tpcc/tpcc_schema.h"

namespace microspec::tpcc {

/// Scaled-down TPC-C sizing (spec values: 10 districts, 3000 customers and
/// 3000 initial orders per district, 100k items). The paper ran 10
/// warehouses with 100 terminals for an hour; the harness scales those via
/// environment overrides while keeping the spec's ratios.
struct TpccConfig {
  int warehouses = 2;
  int districts_per_warehouse = 10;
  int customers_per_district = 300;
  int items = 10000;
  int initial_orders_per_district = 300;
  uint64_t seed = 42;
};

/// Transaction mix weights (percent). The three scenarios of Section VI-C.
struct TpccMix {
  int new_order = 45;
  int payment = 43;
  int order_status = 4;
  int delivery = 4;
  int stock_level = 4;

  /// The default (modification-heavy) mix: NewOrder 45 / Payment 43.
  static TpccMix Default() { return TpccMix{}; }
  /// Query-only besides NewOrder: OrderStatus 27 / StockLevel 28.
  static TpccMix QueryOnly() { return TpccMix{45, 0, 27, 0, 28}; }
  /// Modifications and queries equally weighted: P+D 27, OS+SL 28.
  static TpccMix EqualMix() { return TpccMix{45, 14, 14, 13, 14}; }
};

struct TxnCounts {
  uint64_t new_order = 0;
  uint64_t payment = 0;
  uint64_t order_status = 0;
  uint64_t delivery = 0;
  uint64_t stock_level = 0;
  uint64_t failed = 0;

  uint64_t total() const {
    return new_order + payment + order_status + delivery + stock_level;
  }
};

/// The TPC-C workload: loader, the five transaction types, and a
/// multi-terminal throughput driver. On a database with a WAL, each
/// modifying transaction (NewOrder, Payment, Delivery) is one WAL
/// transaction: its statements commit together, with one log sync, and a
/// failed statement rolls all of them back. The read-only ones (OrderStatus,
/// StockLevel) begin none. Without a WAL every statement writes in place.
/// Isolation is a single database-wide reader/writer lock (modification
/// transactions exclusive, query transactions shared) — both engine
/// configurations pay it identically, so throughput *ratios* are unaffected
/// (see README's fidelity notes).
class TpccWorkload {
 public:
  TpccWorkload(Database* db, TpccConfig config);

  /// Populates all nine relations per the (scaled) spec.
  Status Load();

  /// --- The five transactions -------------------------------------------------
  /// Each runs against `ctx`'s session (bee routines per its options) and
  /// draws its parameters from `rng`. Per spec 2.4.1.4, 1% of NewOrders
  /// name an unused item on their last line: with a WAL the failed lookup
  /// rolls back the writes made so far (Database::AbortTxn); without one the
  /// item is caught before the first write. Either way NewOrder returns OK,
  /// because a rollback is an expected outcome, not a failure.
  Status NewOrder(ExecContext* ctx, Rng& rng);
  Status Payment(ExecContext* ctx, Rng& rng);
  Status OrderStatus(ExecContext* ctx, Rng& rng);
  Status Delivery(ExecContext* ctx, Rng& rng);
  Status StockLevel(ExecContext* ctx, Rng& rng);

  /// Runs `terminals` threads for `seconds`, drawing transactions from
  /// `mix`. Returns per-type completion counts.
  Result<TxnCounts> Run(const TpccMix& mix, int terminals, double seconds);

  /// Deterministic fixed-work driver: each terminal executes exactly
  /// `txns_per_terminal` transactions drawn from `mix` with an RNG seeded by
  /// (seed, terminal, round), so two engines run byte-identical workloads —
  /// the low-variance protocol the throughput benchmark uses. Returns the
  /// counts; *elapsed_seconds receives the wall time of the burst.
  /// *work_ops (optional) receives the summed software work-op count of
  /// all terminals — a deterministic, noise-free effort measure.
  Result<TxnCounts> RunFixed(const TpccMix& mix, int terminals,
                             uint64_t txns_per_terminal, uint64_t round,
                             double* elapsed_seconds,
                             uint64_t* work_ops = nullptr);

 private:
  struct Tables {
    TableInfo* warehouse;
    TableInfo* district;
    TableInfo* customer;
    TableInfo* history;
    TableInfo* neworder;
    TableInfo* orders;
    TableInfo* orderline;
    TableInfo* item;
    TableInfo* stock;
    IndexInfo* warehouse_pk;
    IndexInfo* district_pk;
    IndexInfo* customer_pk;
    IndexInfo* neworder_pk;
    IndexInfo* orders_pk;
    IndexInfo* orders_by_cust;
    IndexInfo* orderline_pk;
    IndexInfo* item_pk;
    IndexInfo* stock_pk;
  };

  Status ResolveTables();

  Database* db_;
  TpccConfig config_;
  Tables t_{};
  /// Database-wide transaction lock (see class comment).
  std::shared_mutex txn_mutex_;
};

}  // namespace microspec::tpcc

#endif  // MICROSPEC_WORKLOADS_TPCC_TPCC_WORKLOAD_H_
