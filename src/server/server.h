#ifndef MICROSPEC_SERVER_SERVER_H_
#define MICROSPEC_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/thread_pool.h"
#include "engine/database.h"
#include "server/stmt_cache.h"
#include "server/wire.h"

namespace microspec::server {

/// Server configuration. The defaults suit tests: an ephemeral port on
/// loopback that the kernel assigns (read it back via Server::port()).
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port.
  int port = 0;
  /// Admission control: at most `max_sessions` connections execute
  /// concurrently; up to `max_pending` more wait in the accept queue for a
  /// session slot; beyond that new connections get an error frame and are
  /// closed immediately.
  int max_sessions = 8;
  int max_pending = 32;
  /// Largest accepted frame payload. A declared length above this is a
  /// protocol error and closes the connection.
  size_t max_frame_bytes = 1 << 20;  // 1 MiB
  /// Capacity of the shared prepared-statement cache (entries).
  size_t stmt_cache_capacity = 256;
};

/// --- SQL server front door --------------------------------------------------
/// A TCP listener speaking the length-prefixed wire protocol of
/// server/wire.h, multiplexing N client sessions onto the engine:
///
///   * sessions run as blocking tasks on a fixed ThreadPool of
///     `max_sessions` workers — the pool itself is the concurrency limiter,
///     and the explicit in-system counter bounds the wait queue
///     (admission control);
///   * every session parses through one process-wide StmtCache, and (when
///     the database was opened with `share_query_bees`) executes through
///     the engine's shared QueryBeeCache — so K sessions preparing the same
///     statement cost one parse and one verified bee specialization;
///   * the same listener answers HTTP "GET /metrics" with the Prometheus
///     rendering of Database::SnapshotTelemetry(), and "GET /trace" with the
///     tracer's ring as Chrome trace_event JSON (loads in chrome://tracing /
///     Perfetto) — the first received byte ('G', never a valid client frame
///     type) selects the HTTP path;
///   * when the database samples statements (trace_sample_n > 0), a sampled
///     statement's trace gets a session root span started at session start,
///     with the connection's admission-queue wait attributed under it, so
///     the exported tree connects session → statement → operators → bees;
///   * every request cycle costs exactly one socket write: a frame's whole
///     reply (T/D*/C/Z, E+Z, an ack, or a protocol error) is built in one
///     buffer and sent at once, and accepted sockets run with TCP_NODELAY —
///     a reply split over two writes would otherwise wait out Nagle's
///     algorithm against the client's delayed ACK (~40 ms per statement);
///   * Shutdown() drains gracefully: stop accepting, abort idle sessions at
///     their next poll tick (in-flight statements finish and their results
///     are delivered first), wait until every session has exited, then
///     quiesce the bee forge.
///
/// Telemetry (all in telemetry::Registry::Global(), so they appear in
/// /metrics, bee_inspector --metrics, and BENCH JSON alike):
///   microspec_server_sessions_active   gauge
///   microspec_server_queries_total     counter (statements executed)
///   microspec_server_query_ns          histogram (per-statement latency)
///   microspec_server_admission_wait_ns histogram (accept -> session start)
///   microspec_server_slow_queries_total counter (over the slow threshold)
///   microspec_server_response_writes_total counter (socket writes of
///                                      replies: one per request cycle)
///   microspec_server_response_bytes_total  counter (bytes in those writes)
///   microspec_stmt_cache_{hits,misses,evictions}_total  counters
class Server {
 public:
  Server(Database* db, ServerOptions options);
  ~Server();  // implies Shutdown()
  MICROSPEC_DISALLOW_COPY_AND_MOVE(Server);

  /// Binds, listens, and starts the accept loop. Fails on bind errors
  /// (e.g. port in use).
  Status Start();

  /// The bound TCP port (resolves ephemeral binds); 0 before Start().
  int port() const { return port_.load(std::memory_order_acquire); }

  /// Graceful drain, idempotent: stop accepting, finish in-flight
  /// statements, close every session, quiesce the bee forge. Returns when
  /// the server is fully stopped.
  void Shutdown();

  /// Sessions currently executing or waiting for a slot.
  int sessions_in_system() const {
    return in_system_.load(std::memory_order_acquire);
  }

  StmtCache* stmt_cache() { return &stmt_cache_; }

 private:
  /// Connection timing the trace layer folds into sampled statements: the
  /// accept→start gap is the session's admission-queue wait.
  struct SessionClock {
    uint64_t accepted_ns = 0;
    uint64_t started_ns = 0;
  };

  void AcceptLoop();
  void RunSession(int fd, uint64_t accepted_ns);
  /// One client request frame: appends the whole reply to `out` (which
  /// RunSession sends in one write); returns false when the session should
  /// end.
  bool HandleFrame(std::string* out, ExecContext* ctx,
                   const SessionClock& clock, const Frame& frame,
                   std::unordered_map<std::string,
                                      std::shared_ptr<const sqlfe::Statement>>*
                       prepared,
                   std::unordered_map<std::string, bool>* bound);
  /// Executes one statement and appends T/D*/C frames (or an E frame) to
  /// `out`. `sql` and the parse window are optional (null/zero for prepared
  /// Execute, whose parse happened at Parse time).
  void RunStatement(std::string* out, ExecContext* ctx,
                    const SessionClock& clock, const sqlfe::Statement& stmt,
                    const std::string* sql, uint64_t parse_start_ns,
                    uint64_t parse_end_ns);
  void ServeHttp(int fd);

  Database* db_;
  ServerOptions options_;
  StmtCache stmt_cache_;
  int listen_fd_ = -1;
  std::atomic<int> port_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<int> in_system_{0};
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> session_pool_;
  std::mutex drain_mutex_;
  std::condition_variable drained_;
  std::mutex shutdown_mutex_;
  bool shutdown_done_ = false;
};

}  // namespace microspec::server

#endif  // MICROSPEC_SERVER_SERVER_H_
