#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "common/telemetry.h"
#include "sqlfe/engine.h"

namespace microspec::server {

namespace {

telemetry::Gauge* SessionsActive() {
  static telemetry::Gauge* g = telemetry::Registry::Global().GetGauge(
      "microspec_server_sessions_active");
  return g;
}

telemetry::Counter* QueriesTotal() {
  static telemetry::Counter* c = telemetry::Registry::Global().GetCounter(
      "microspec_server_queries_total");
  return c;
}

telemetry::Histogram* QueryLatency() {
  static telemetry::Histogram* h = telemetry::Registry::Global().GetHistogram(
      "microspec_server_query_ns");
  return h;
}

telemetry::Histogram* AdmissionWait() {
  static telemetry::Histogram* h = telemetry::Registry::Global().GetHistogram(
      "microspec_server_admission_wait_ns");
  return h;
}

telemetry::Counter* SlowQueriesTotal() {
  static telemetry::Counter* c = telemetry::Registry::Global().GetCounter(
      "microspec_server_slow_queries_total");
  return c;
}

telemetry::Counter* ResponseWritesTotal() {
  static telemetry::Counter* c = telemetry::Registry::Global().GetCounter(
      "microspec_server_response_writes_total");
  return c;
}

telemetry::Counter* ResponseBytesTotal() {
  static telemetry::Counter* c = telemetry::Registry::Global().GetCounter(
      "microspec_server_response_bytes_total");
  return c;
}

/// Sends one whole response with a single WriteAll: every wire reply the
/// server makes goes through here, so the counters read one write per
/// request cycle. Counted before the send, so a client that has read the
/// reply always observes it in the counters.
Status SendResponse(int fd, std::string_view response) {
  ResponseWritesTotal()->Add(1);
  ResponseBytesTotal()->Add(response.size());
  return WriteAll(fd, response);
}

/// Encodes a lone frame and sends it as one response.
Status SendFrame(int fd, char type, std::string_view payload) {
  std::string out;
  EncodeFrame(type, payload, &out);
  return SendResponse(fd, out);
}

/// PostgreSQL-style completion tag for one executed statement.
std::string CommandTag(const sqlfe::Statement& stmt,
                       const sqlfe::SqlResult& result) {
  switch (stmt.kind) {
    case sqlfe::Statement::Kind::kCreateTable:
      return "CREATE TABLE";
    case sqlfe::Statement::Kind::kInsert:
      return "INSERT " + std::to_string(result.affected);
    case sqlfe::Statement::Kind::kSelect:
      return "SELECT " + std::to_string(result.rows.size());
  }
  return "OK";
}

}  // namespace

Server::Server(Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      stmt_cache_(options_.stmt_cache_capacity) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status s = Status::IoError(std::string("bind: ") + strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, options_.max_sessions + options_.max_pending) !=
      0) {
    Status s = Status::IoError(std::string("listen: ") + strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t alen = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &alen) == 0) {
    port_.store(ntohs(addr.sin_port), std::memory_order_release);
  }

  session_pool_ = std::make_unique<ThreadPool>(options_.max_sessions);
  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    int pr = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Every reply is already one write; Nagle could only hold back its
    // tail segment waiting for the client's delayed ACK.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t accepted_ns = telemetry::NowNs();

    // Admission control: run now, wait for a slot, or bounce.
    int in_system = in_system_.load(std::memory_order_acquire);
    bool admitted = false;
    while (in_system < options_.max_sessions + options_.max_pending) {
      if (in_system_.compare_exchange_weak(in_system, in_system + 1,
                                           std::memory_order_acq_rel)) {
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      (void)SendFrame(fd, kMsgError, "server busy: admission queue full");
      ::close(fd);
      continue;
    }
    session_pool_->Submit([this, fd, accepted_ns] {
      RunSession(fd, accepted_ns);
    });
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::ServeHttp(int fd) {
  // Read the request head (bounded); we only need the request line.
  std::string head;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos && head.size() < 8192) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;
    head.append(buf, static_cast<size_t>(r));
  }
  std::string body;
  std::string status_line = "HTTP/1.1 200 OK";
  const size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  std::string content_type = "text/plain; version=0.0.4";
  if (request_line.rfind("GET /metrics", 0) == 0) {
    body = db_->SnapshotTelemetry().ToPrometheusText();
  } else if (request_line.rfind("GET /trace", 0) == 0) {
    // The tracer's ring as Chrome trace_event JSON — save and load in
    // chrome://tracing or https://ui.perfetto.dev.
    body = db_->tracer()->ChromeTraceJson();
    content_type = "application/json";
  } else {
    status_line = "HTTP/1.1 404 Not Found";
    body = "not found\n";
  }
  std::string response = status_line + "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  (void)WriteAll(fd, response);
}

void Server::RunSession(int fd, uint64_t accepted_ns) {
  SessionClock clock;
  clock.accepted_ns = accepted_ns;
  clock.started_ns = telemetry::NowNs();
  AdmissionWait()->Observe(clock.started_ns - clock.accepted_ns);
  // If shutdown began while this session waited for a slot, bounce it
  // without reading — drain must not depend on client behavior.
  if (stop_.load(std::memory_order_acquire)) {
    (void)SendFrame(fd, kMsgError, "server shutting down");
  } else {
    // Sniff (without consuming) the first byte: 'G' selects the HTTP
    // /metrics path ('G' is not a client frame type), anything else is the
    // wire protocol.
    char first = 0;
    ssize_t r;
    do {
      r = ::recv(fd, &first, 1, MSG_PEEK);
    } while (r < 0 && errno == EINTR);
    if (r == 1 && first == 'G') {
      ServeHttp(fd);
    } else if (r == 1) {
      // Only wire-protocol sessions count toward the gauge; an HTTP scrape
      // must observe the same numbers a direct SnapshotTelemetry() returns.
      SessionsActive()->Add(1);
      std::unordered_map<std::string, std::shared_ptr<const sqlfe::Statement>>
          prepared;
      std::unordered_map<std::string, bool> bound;
      std::unique_ptr<ExecContext> ctx = db_->MakeContext();
      bool keep_going = true;
      while (keep_going && !stop_.load(std::memory_order_acquire)) {
        // One request cycle, one write: the whole reply, through the
        // trailing ReadyForQuery, goes out in a single send.
        std::string out;
        Frame frame;
        Status s = ReadFrame(fd, options_.max_frame_bytes, &frame, &stop_);
        if (s.ok()) {
          keep_going = HandleFrame(&out, ctx.get(), clock, frame, &prepared,
                                   &bound);
        } else {
          keep_going = false;
          if (s.code() == StatusCode::kResourceExhausted) {
            EncodeFrame(kMsgError, "server shutting down", &out);
          } else if (s.code() == StatusCode::kInvalidArgument) {
            EncodeFrame(kMsgError, s.message(), &out);
          }
        }
        if (!out.empty() && !SendResponse(fd, out).ok()) break;
      }
      SessionsActive()->Add(-1);
    }
  }

  ::close(fd);
  {
    std::lock_guard<std::mutex> guard(drain_mutex_);
    in_system_.fetch_sub(1, std::memory_order_acq_rel);
  }
  drained_.notify_all();
}

bool Server::HandleFrame(
    std::string* out, ExecContext* ctx, const SessionClock& clock,
    const Frame& frame,
    std::unordered_map<std::string, std::shared_ptr<const sqlfe::Statement>>*
        prepared,
    std::unordered_map<std::string, bool>* bound) {
  switch (frame.type) {
    case kMsgSimpleQuery: {
      // The parse window covers the statement-cache lookup too: a cache hit
      // shows up in the trace as a near-zero parse span, which is exactly
      // the cache's value made visible.
      const uint64_t parse_start = telemetry::NowNs();
      Result<std::shared_ptr<const sqlfe::Statement>> stmt =
          stmt_cache_.GetOrParse(frame.payload, db_->ddl_epoch());
      const uint64_t parse_end = telemetry::NowNs();
      if (!stmt.ok()) {
        EncodeFrame(kMsgError, stmt.status().ToString(), out);
      } else {
        RunStatement(out, ctx, clock, **stmt, &frame.payload, parse_start,
                     parse_end);
      }
      EncodeFrame(kMsgReady, "I", out);
      return true;
    }
    case kMsgParse: {
      std::vector<Field> fields;
      Status s = DecodeFields(frame.payload, &fields);
      if (!s.ok() || fields.size() != 2 || fields[0].is_null ||
          fields[1].is_null) {
        EncodeFrame(kMsgError, "malformed Parse message", out);
        return false;  // protocol error: drop the connection
      }
      Result<std::shared_ptr<const sqlfe::Statement>> stmt =
          stmt_cache_.GetOrParse(fields[1].text, db_->ddl_epoch());
      if (!stmt.ok()) {
        EncodeFrame(kMsgError, stmt.status().ToString(), out);
        return true;
      }
      (*prepared)[fields[0].text] = stmt.MoveValue();
      bound->erase(fields[0].text);
      EncodeFrame(kMsgParseComplete, "", out);
      return true;
    }
    case kMsgBind: {
      std::vector<Field> fields;
      Status s = DecodeFields(frame.payload, &fields);
      if (!s.ok() || fields.size() != 1 || fields[0].is_null) {
        EncodeFrame(kMsgError, "malformed Bind message", out);
        return false;
      }
      if (prepared->find(fields[0].text) == prepared->end()) {
        EncodeFrame(kMsgError, "unknown statement " + fields[0].text, out);
        return true;
      }
      (*bound)[fields[0].text] = true;
      EncodeFrame(kMsgBindComplete, "", out);
      return true;
    }
    case kMsgExecute: {
      std::vector<Field> fields;
      Status s = DecodeFields(frame.payload, &fields);
      if (!s.ok() || fields.size() != 1 || fields[0].is_null) {
        EncodeFrame(kMsgError, "malformed Execute message", out);
        return false;
      }
      auto it = prepared->find(fields[0].text);
      if (it == prepared->end()) {
        EncodeFrame(kMsgError, "unknown statement " + fields[0].text, out);
      } else if (!(*bound)[fields[0].text]) {
        EncodeFrame(kMsgError, "statement " + fields[0].text + " not bound",
                    out);
      } else {
        RunStatement(out, ctx, clock, *it->second, /*sql=*/nullptr,
                     /*parse_start_ns=*/0, /*parse_end_ns=*/0);
      }
      EncodeFrame(kMsgReady, "I", out);
      return true;
    }
    case kMsgCloseStmt: {
      std::vector<Field> fields;
      Status s = DecodeFields(frame.payload, &fields);
      if (!s.ok() || fields.size() != 1 || fields[0].is_null) {
        EncodeFrame(kMsgError, "malformed Close message", out);
        return false;
      }
      prepared->erase(fields[0].text);
      bound->erase(fields[0].text);
      EncodeFrame(kMsgCloseComplete, "", out);
      return true;
    }
    case kMsgTerminate:
      return false;
    default:
      EncodeFrame(kMsgError,
                  std::string("unknown message type '") + frame.type + "'",
                  out);
      return false;  // cannot trust the stream after an unknown frame
  }
}

void Server::RunStatement(std::string* out, ExecContext* ctx,
                          const SessionClock& clock,
                          const sqlfe::Statement& stmt, const std::string* sql,
                          uint64_t parse_start_ns, uint64_t parse_end_ns) {
  const uint64_t t0 = telemetry::NowNs();
  // Per-statement sampling, but the exported tree shows the connection
  // context too: a session root span (started retroactively at session
  // start) with the admission-queue wait under it, then the statement tree
  // ExecuteParsed hangs below. Pre-installing the trace on the context also
  // transfers publish ownership here (see sqlfe::ExecuteParsed).
  std::shared_ptr<trace::Trace> tr = db_->tracer()->MaybeSample();
  uint32_t session_span = 0;
  if (tr != nullptr) {
    session_span = tr->BeginAt(0, trace::SpanKind::kSession, "session",
                               clock.started_ns);
    if (clock.started_ns > clock.accepted_ns) {
      tr->AddComplete(session_span, trace::SpanKind::kWait, "admission-queue",
                      clock.accepted_ns, clock.started_ns,
                      trace::WaitKind::kAdmission);
    }
    ctx->set_trace(trace::TraceContext{tr.get(), session_span});
  }
  sqlfe::ExecHints hints;
  hints.sql = sql;
  hints.parse_start_ns = parse_start_ns;
  hints.parse_end_ns = parse_end_ns;
  Result<sqlfe::SqlResult> run = sqlfe::ExecuteParsed(db_, ctx, stmt, hints);
  if (tr != nullptr) {
    ctx->set_trace(trace::TraceContext{});
    tr->End(session_span);
    db_->tracer()->Publish(std::move(tr));
  }
  const uint64_t latency_ns = telemetry::NowNs() - t0;
  QueryLatency()->Observe(latency_ns);
  QueriesTotal()->Add(1);
  if (latency_ns >= db_->tracer()->slow_query_ns()) SlowQueriesTotal()->Add(1);
  if (!run.ok()) {
    EncodeFrame(kMsgError, run.status().ToString(), out);
    return;
  }
  const sqlfe::SqlResult& result = *run;
  // Appended to the frame's reply buffer; RunSession sends it, ReadyForQuery
  // included, in one write once HandleFrame returns.
  if (!result.columns.empty()) {
    EncodeFrame(kMsgRowDescription, EncodeStrings(result.columns), out);
    for (const std::vector<std::string>& row : result.rows) {
      EncodeFrame(kMsgDataRow, EncodeStrings(row), out);
    }
  }
  EncodeFrame(kMsgCommandComplete, CommandTag(stmt, result), out);
}

void Server::Shutdown() {
  // Serialized: concurrent callers (signal handler path + destructor) take
  // turns; the second sees shutdown_done_ and returns once drained.
  std::lock_guard<std::mutex> shutdown_guard(shutdown_mutex_);
  if (!started_.load(std::memory_order_acquire) || shutdown_done_) return;
  stop_.store(true, std::memory_order_release);
  // 1. Stop accepting: the accept thread notices stop_ within its poll
  //    timeout and closes the listen socket.
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Drain sessions: active ones finish their in-flight statement and
  //    exit at the next frame boundary; queued ones are bounced on entry.
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drained_.wait(lock, [this] {
      return in_system_.load(std::memory_order_acquire) == 0;
    });
  }
  // 3. Tear down the session pool (all tasks done), checkpoint so a clean
  //    shutdown leaves nothing for restart recovery to redo, then quiesce
  //    the bee forge so no background compile outlives the server.
  session_pool_.reset();
  (void)db_->Checkpoint();
  db_->QuiesceBees();
  shutdown_done_ = true;
}

}  // namespace microspec::server
