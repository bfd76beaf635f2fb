// Server front door tests: wire-protocol round trips, one socket write per
// request cycle, the latency floor that write buys, malformed-frame
// rejection, a seeded fuzz of hostile frames over live connections, admission-control backpressure, the shared bee economy
// (K sessions preparing one statement => exactly one parse and one verified
// bee specialization, with background-lane span accounting), statement-cache
// eviction and DDL invalidation, the /metrics endpoint, and graceful
// shutdown under load.
//
// Standalone binary: check.sh runs it under ASan/UBSan and TSan in addition
// to the plain ctest pass.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "exec/batch.h"
#include "exec/shared_bees.h"
#include "expr/expr.h"
#include "server/client.h"
#include "server/server.h"
#include "sqlfe/engine.h"
#include "test_util.h"

namespace microspec {
namespace {

using server::Client;
using server::Field;
using server::Frame;
using server::QueryResult;
using server::Server;
using server::ServerOptions;
using server::StmtCache;
using testing::ScratchDir;

/// Counts background-lane spans started at or after `start_ns` whose name
/// begins with `prefix` (e.g. "queued stmt:").
size_t CountLane(uint64_t start_ns, const std::string& prefix) {
  size_t n = 0;
  for (const trace::Span& s : testing::LaneSpansSince(start_ns)) {
    if (s.name.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

/// One database + server, bee-enabled with the shared economy on and the
/// verifier enforcing — the configuration the ISSUE's acceptance criteria
/// describe.
struct Harness {
  ScratchDir scratch;
  std::unique_ptr<Database> db;
  std::unique_ptr<Server> srv;

  void Start(ServerOptions sopts = {}, int dop = 1, int batch_rows = 0) {
    DatabaseOptions options;
    options.dir = scratch.path() + "/db";
    options.enable_bees = true;
    options.verify_mode = bee::VerifyMode::kEnforce;
    options.share_query_bees = true;
    options.dop = dop;
    options.batch_rows = batch_rows;
    db = Database::Open(std::move(options)).MoveValue();
    srv = std::make_unique<Server>(db.get(), sopts);
    ASSERT_OK(srv->Start());
    ASSERT_GT(srv->port(), 0);
  }

  /// Seeds a small table through the library path.
  void Seed() {
    auto ctx = db->MakeContext();
    ASSERT_OK(sqlfe::ExecuteSql(db.get(), ctx.get(),
                                "CREATE TABLE t (a INT NOT NULL, b INT)")
                  .status());
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 100; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
    }
    ASSERT_OK(sqlfe::ExecuteSql(db.get(), ctx.get(), insert).status());
  }
};

// --- Wire codec -------------------------------------------------------------

TEST(Wire, FieldsRoundTrip) {
  std::vector<Field> in;
  in.push_back({"hello", false});
  in.push_back({"", false});
  in.push_back({"", true});  // NULL
  in.push_back({std::string("\x00\x01\xFF", 3), false});
  std::string payload = server::EncodeFields(in);
  std::vector<Field> out;
  ASSERT_OK(server::DecodeFields(payload, &out));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].text, "hello");
  EXPECT_FALSE(out[0].is_null);
  EXPECT_EQ(out[1].text, "");
  EXPECT_FALSE(out[1].is_null);
  EXPECT_TRUE(out[2].is_null);
  EXPECT_EQ(out[3].text, std::string("\x00\x01\xFF", 3));
}

TEST(Wire, DecodeRejectsMalformedPayloads) {
  std::vector<Field> out;
  // Too short for the field count.
  EXPECT_FALSE(server::DecodeFields("x", &out).ok());
  // Field length runs past the payload.
  std::string bad = server::EncodeStrings({"abc"});
  bad.resize(bad.size() - 1);
  EXPECT_FALSE(server::DecodeFields(bad, &out).ok());
  // Trailing junk after the last field.
  std::string trailing = server::EncodeStrings({"abc"});
  trailing += "z";
  EXPECT_FALSE(server::DecodeFields(trailing, &out).ok());
  // A hostile field count reserves no more than the payload can hold: two
  // bytes declaring 65,535 fields reserve none, and three 4-byte lengths
  // under the same count reserve at most three.
  std::vector<Field> fresh;
  EXPECT_FALSE(server::DecodeFields(std::string("\xFF\xFF", 2), &fresh).ok());
  EXPECT_EQ(fresh.capacity(), 0u);
  std::vector<Field> three;
  EXPECT_FALSE(
      server::DecodeFields(std::string("\xFF\xFF") + std::string(12, '\0'),
                           &three)
          .ok());
  EXPECT_LE(three.capacity(), 3u);
}

TEST(Wire, FrameLayout) {
  std::string buf;
  server::EncodeFrame('Q', "abc", &buf);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf[0], 'Q');
  EXPECT_EQ(static_cast<unsigned char>(buf[1]), 3);  // little-endian u32
  EXPECT_EQ(buf.substr(5), "abc");
}

// --- Protocol round trips ---------------------------------------------------

TEST(ServerProtocol, SimpleQueryRoundTrip) {
  Harness h;
  h.Start();
  h.Seed();

  Client c;
  ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      c.Query("SELECT a, b FROM t WHERE a < 3 ORDER BY a"));
  ASSERT_EQ(r.columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0], (std::vector<std::string>{"0", "0"}));
  EXPECT_EQ(r.rows[2], (std::vector<std::string>{"2", "2"}));
  EXPECT_EQ(r.tag, "SELECT 3");

  // DDL and DML through the wire too.
  ASSERT_OK_AND_ASSIGN(QueryResult ddl,
                       c.Query("CREATE TABLE u (x INT NOT NULL)"));
  EXPECT_EQ(ddl.tag, "CREATE TABLE");
  ASSERT_OK_AND_ASSIGN(QueryResult ins,
                       c.Query("INSERT INTO u VALUES (1), (2)"));
  EXPECT_EQ(ins.tag, "INSERT 2");

  // Statement errors keep the session alive.
  EXPECT_FALSE(c.Query("SELECT nope FROM t").ok());
  ASSERT_OK_AND_ASSIGN(QueryResult again,
                       c.Query("SELECT count(*) AS n FROM u"));
  ASSERT_EQ(again.rows.size(), 1u);
  EXPECT_EQ(again.rows[0][0], "2");
  c.Terminate();
}

TEST(ServerProtocol, PreparedStatementLifecycle) {
  Harness h;
  h.Start();
  h.Seed();

  Client c;
  ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
  // Execute before Parse/Bind is an error; so is Bind of an unknown name.
  EXPECT_FALSE(c.Bind("p").ok());
  ASSERT_OK(c.Parse("p", "SELECT count(*) AS n FROM t WHERE a > 49"));
  EXPECT_FALSE(c.Execute("p").ok());  // parsed but not bound
  ASSERT_OK(c.Bind("p"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(QueryResult r, c.Execute("p"));
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0], "50");
  }
  ASSERT_OK(c.CloseStmt("p"));
  EXPECT_FALSE(c.Execute("p").ok());  // closed
  c.Terminate();
}

TEST(ServerProtocol, MalformedFramesCloseTheConnection) {
  Harness h;
  h.Start();

  {
    // Unknown frame type: error frame, then the server drops the session.
    Client c;
    ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
    ASSERT_OK(c.SendFrame('z', ""));
    ASSERT_OK_AND_ASSIGN(Frame e, c.ReadOne());
    EXPECT_EQ(e.type, server::kMsgError);
    EXPECT_FALSE(c.ReadOne().ok());  // closed
  }
  {
    // Declared length beyond max_frame_bytes: rejected before any read of
    // the (absent) payload, connection dropped.
    Client c;
    ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
    std::string header = "Q";
    uint32_t huge = 1u << 30;
    header.append(reinterpret_cast<const char*>(&huge), 4);
    ASSERT_OK(c.SendRaw(header));
    ASSERT_OK_AND_ASSIGN(Frame e, c.ReadOne());
    EXPECT_EQ(e.type, server::kMsgError);
    EXPECT_FALSE(c.ReadOne().ok());
  }
  {
    // Malformed structured payload inside a known type.
    Client c;
    ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
    ASSERT_OK(c.SendFrame(server::kMsgParse, "x"));  // not a field list
    ASSERT_OK_AND_ASSIGN(Frame e, c.ReadOne());
    EXPECT_EQ(e.type, server::kMsgError);
    EXPECT_FALSE(c.ReadOne().ok());
  }
}

uint64_t CounterValue(const char* name) {
  return telemetry::Registry::Global().GetCounter(name)->Value();
}

TEST(ServerProtocol, OneWritePerRequestCycle) {
  Harness h;
  h.Start();
  h.Seed();

  Client c;
  ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
  uint64_t writes = CounterValue("microspec_server_response_writes_total");
  // Each client frame must have cost exactly one server write by the time
  // its reply has been read (the server counts a write before issuing it).
  auto expect_one_write = [&](const char* what) {
    const uint64_t now =
        CounterValue("microspec_server_response_writes_total");
    EXPECT_EQ(now - writes, 1u) << what;
    writes = now;
  };

  // A simple query's reply is T/D*/C/Z, byte for byte, in that one write.
  const uint64_t bytes_before =
      CounterValue("microspec_server_response_bytes_total");
  ASSERT_OK_AND_ASSIGN(QueryResult r,
                       c.Query("SELECT a, b FROM t WHERE a < 3 ORDER BY a"));
  EXPECT_EQ(r.rows.size(), 3u);
  expect_one_write("simple query");
  std::string reply;
  server::EncodeFrame(server::kMsgRowDescription,
                      server::EncodeStrings({"a", "b"}), &reply);
  for (const char* row : {"0", "1", "2"}) {
    server::EncodeFrame(server::kMsgDataRow, server::EncodeStrings({row, row}),
                        &reply);
  }
  server::EncodeFrame(server::kMsgCommandComplete, "SELECT 3", &reply);
  server::EncodeFrame(server::kMsgReady, "I", &reply);
  EXPECT_EQ(CounterValue("microspec_server_response_bytes_total") -
                bytes_before,
            reply.size());

  // The prepared lifecycle: one write per ack, one per Execute.
  ASSERT_OK(c.Parse("p", "SELECT count(*) AS n FROM t WHERE a > 49"));
  expect_one_write("parse");
  ASSERT_OK(c.Bind("p"));
  expect_one_write("bind");
  ASSERT_OK(c.Execute("p").status());
  expect_one_write("execute");
  ASSERT_OK(c.CloseStmt("p"));
  expect_one_write("close");

  // Errors answer E + Z in one write too: at execution, and at parse.
  EXPECT_FALSE(c.Query("SELECT nope FROM t").ok());
  expect_one_write("statement error");
  EXPECT_FALSE(c.Query("SELEC a FRM t").ok());
  expect_one_write("parse error");
  EXPECT_FALSE(c.Execute("p").ok());  // closed above
  expect_one_write("execute of an unknown statement");

  // The session is intact after every error.
  ASSERT_OK(c.Query("SELECT count(*) AS n FROM t").status());
  expect_one_write("query after errors");
  c.Terminate();
}

TEST(ServerProtocol, SequentialStatementsAvoidTheDelayedAckStall) {
  Harness h;
  h.Start();
  h.Seed();

  Client c;
  ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
  const char* kSql = "SELECT a, b FROM t WHERE a < 3 ORDER BY a";
  ASSERT_OK(c.Parse("p", "SELECT count(*) AS n FROM t WHERE a > 49"));
  ASSERT_OK(c.Bind("p"));
  // Warm the statement cache and the shared bees outside the timed loop.
  ASSERT_OK(c.Query(kSql).status());
  ASSERT_OK(c.Execute("p").status());

  // A reply split over two writes waits ~40 ms for the client's delayed
  // ACK, so 200 statements would take about 8 s; one write each stays far
  // below 2 s even under the sanitizers.
  constexpr int kStatements = 200;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kStatements; ++i) {
    if (i % 2 == 0) {
      ASSERT_OK_AND_ASSIGN(QueryResult r, c.Query(kSql));
      ASSERT_EQ(r.rows.size(), 3u);
    } else {
      ASSERT_OK_AND_ASSIGN(QueryResult r, c.Execute("p"));
      ASSERT_EQ(r.rows.size(), 1u);
      ASSERT_EQ(r.rows[0][0], "50");
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 2.0) << kStatements << " statements took " << seconds
                          << " s";
  c.Terminate();
}

// --- Seeded wire-frame fuzz -------------------------------------------------
// Thousands of mutated client frames over real TCP connections: truncated
// headers, lengths of 0, of exactly max_frame_bytes and beyond it, bad field
// counts and field lengths, unknown types, random byte flips, and valid
// frames split across many tiny sends. Every session must answer with
// well-formed frames and end (never hang, never abort the process);
// afterwards a well-behaved client still gets the library path's rows and
// the sessions-active gauge is back at zero. Deterministic, in the
// bee/mutation_fuzz idiom (a seeded RNG, no libFuzzer): the seed is
// printed, and MICROSPEC_SEED=<n> replays a run.

constexpr uint64_t kDefaultSeed = 0x5EEDF00Dull;
constexpr int kConnections = 1500;
/// Small enough that the at-the-limit frames stay cheap to send.
constexpr size_t kMaxFrameBytes = 64 << 10;
constexpr int kSessionTimeoutMs = 30000;

const char* kSelects[] = {
    "SELECT a, b FROM t WHERE a < 5 ORDER BY a",
    "SELECT count(*) AS n FROM t WHERE b = 3",
    "SELECT b, sum(a) AS s FROM t GROUP BY b ORDER BY b",
};
constexpr size_t kNumSelects = sizeof(kSelects) / sizeof(kSelects[0]);

const char kClientTypes[] = {'Q', 'P', 'B', 'E', 'C', 'X'};

uint64_t PickSeed() {
  const char* env = std::getenv("MICROSPEC_SEED");
  if (env != nullptr && std::strtoull(env, nullptr, 0) > 0) {
    return std::strtoull(env, nullptr, 0);
  }
  return kDefaultSeed;
}

std::string U32(uint32_t v) {
  std::string b(4, '\0');
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  return b;
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->Uniform(256));
  return out;
}

/// A well-formed client frame over the SELECT corpus and a few statement
/// names (Bind/Execute/Close of an unprepared name is legal and answers E).
std::string ValidFrame(Rng* rng) {
  const std::string name = "s" + std::to_string(rng->Uniform(3));
  const char* sql = kSelects[rng->Uniform(kNumSelects)];
  std::string out;
  switch (rng->Uniform(6)) {
    case 0:
      server::EncodeFrame(server::kMsgSimpleQuery, sql, &out);
      break;
    case 1:
      server::EncodeFrame(server::kMsgParse, server::EncodeStrings({name, sql}),
                          &out);
      break;
    case 2:
      server::EncodeFrame(server::kMsgBind, server::EncodeStrings({name}), &out);
      break;
    case 3:
      server::EncodeFrame(server::kMsgExecute, server::EncodeStrings({name}),
                          &out);
      break;
    case 4:
      server::EncodeFrame(server::kMsgCloseStmt, server::EncodeStrings({name}),
                          &out);
      break;
    default:
      // Rare on purpose: Terminate ends the session early.
      server::EncodeFrame(rng->Uniform(4) == 0 ? server::kMsgTerminate
                                               : server::kMsgSimpleQuery,
                          sql, &out);
      break;
  }
  return out;
}

/// One connection's script: the byte chunks to send, each in its own
/// send() call.
struct Script {
  std::vector<std::string> chunks;
  int frames = 0;
};

/// Appends one (possibly mutated) frame. Returns false when the mutation
/// leaves the stream unparseable (nothing after it can be framed), so the
/// script should end.
bool AppendFrame(Rng* rng, Script* script) {
  std::string frame = ValidFrame(rng);
  ++script->frames;
  switch (rng->Uniform(11)) {
    case 0:  // valid, sent whole
      script->chunks.push_back(frame);
      return true;
    case 1: {  // valid, split across many tiny sends
      for (size_t pos = 0; pos < frame.size();) {
        const size_t n = std::min<size_t>(1 + rng->Uniform(3),
                                          frame.size() - pos);
        script->chunks.push_back(frame.substr(pos, n));
        pos += n;
      }
      return true;
    }
    case 2:  // truncated header, then end of stream
      script->chunks.push_back(frame.substr(0, 1 + rng->Uniform(4)));
      return false;
    case 3: {  // zero-length payload under any client type
      std::string f(1, kClientTypes[rng->Uniform(sizeof(kClientTypes))]);
      script->chunks.push_back(f + U32(0));
      return true;
    }
    case 4: {  // exactly max_frame_bytes of payload, all of it sent
      std::string f(1, kClientTypes[rng->Uniform(sizeof(kClientTypes) - 1)]);
      script->chunks.push_back(f + U32(kMaxFrameBytes) +
                               RandomBytes(rng, kMaxFrameBytes));
      return true;
    }
    case 5: {  // declared length beyond max_frame_bytes
      const uint32_t lens[] = {static_cast<uint32_t>(kMaxFrameBytes) + 1,
                               1u << 31, 0xFFFFFFFFu};
      script->chunks.push_back(frame.substr(0, 1) + U32(lens[rng->Uniform(3)]));
      return false;
    }
    case 6:  // payload shorter than its declared length, then end of stream
      script->chunks.push_back(
          frame.substr(0, 5 + rng->Uniform(frame.size() - 5)));
      return false;
    case 7: {  // bad field count in a structured payload
      std::string f(1, kClientTypes[1 + rng->Uniform(4)]);  // P/B/E/C
      std::string payload = server::EncodeStrings({"s0", kSelects[0]});
      const uint16_t count = static_cast<uint16_t>(rng->Uniform(65536));
      payload[0] = static_cast<char>(count & 0xFF);
      payload[1] = static_cast<char>(count >> 8);
      script->chunks.push_back(f + U32(static_cast<uint32_t>(payload.size())) +
                               payload);
      return true;
    }
    case 8: {  // bad field length (huge, NULL sentinel, or off by a little)
      std::string f(1, kClientTypes[1 + rng->Uniform(4)]);
      std::string payload = server::EncodeStrings({"s1"});
      const uint32_t lens[] = {0xFFFFFFFFu, 0x7FFFFFFFu, 1, 3,
                               static_cast<uint32_t>(rng->Uniform(1 << 20))};
      payload.replace(2, 4, U32(lens[rng->Uniform(5)]));
      script->chunks.push_back(f + U32(static_cast<uint32_t>(payload.size())) +
                               payload);
      return true;
    }
    case 9: {  // unknown type byte (G at stream start selects HTTP)
      char type;
      do {
        type = static_cast<char>(rng->Uniform(256));
      } while (std::memchr(kClientTypes, type, sizeof(kClientTypes)) !=
               nullptr);
      frame[0] = type;
      script->chunks.push_back(frame);
      return true;
    }
    default: {  // one to three random byte flips anywhere in the frame
      const int flips = 1 + static_cast<int>(rng->Uniform(3));
      for (int i = 0; i < flips; ++i) {
        frame[rng->Uniform(frame.size())] ^=
            static_cast<char>(1 + rng->Uniform(255));
      }
      script->chunks.push_back(frame);
      // A flipped length byte may leave the server waiting for bytes that
      // never come; end the stream so the session sees EOF.
      return false;
    }
  }
}

Script MakeScript(Rng* rng) {
  Script script;
  const int frames = 1 + static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < frames; ++i) {
    if (!AppendFrame(rng, &script)) break;
  }
  return script;
}

/// A raw client socket: sends arbitrary bytes, half-closes, and reads the
/// server's answer until EOF.
class RawConn {
 public:
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    // Tiny sends leave as tiny segments.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  /// False once the server has closed its end (EPIPE / ECONNRESET).
  bool Send(std::string_view bytes) {
    return server::WriteAll(fd_, bytes).ok();
  }

  void CloseWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until EOF or reset. Returns false only on timeout: a session
  /// that neither answers nor ends.
  bool ReadToEnd(std::string* out, bool* reset) {
    *reset = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kSessionTimeoutMs);
    char buf[16384];
    for (;;) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      if (::poll(&pfd, 1, /*timeout_ms=*/100) <= 0) continue;
      ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r == 0) return true;
      if (r < 0) {
        if (errno == EINTR) continue;
        // The server closed with our bytes unread, so the kernel reset the
        // connection; part of the answer may be lost with it.
        *reset = true;
        return true;
      }
      out->append(buf, static_cast<size_t>(r));
    }
  }

 private:
  int fd_ = -1;
};

/// Checks that `bytes` is a sequence of server frames of known types; a
/// trailing partial frame is allowed only after a reset. Counts the error
/// frames into `*errors`.
::testing::AssertionResult WellFormedReply(const std::string& bytes,
                                           bool reset, int* errors) {
  static const char kServerTypes[] = {'T', 'D', 'C', 'E', 'Z', '1', '2', '3'};
  size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 5) break;
    const char type = bytes[pos];
    if (std::memchr(kServerTypes, type, sizeof(kServerTypes)) == nullptr) {
      return ::testing::AssertionFailure()
             << "unknown server frame type " << static_cast<int>(type)
             << " at byte " << pos;
    }
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<unsigned char>(
                 bytes[pos + 1 + static_cast<size_t>(i)]))
             << (8 * i);
    }
    if (bytes.size() - pos - 5 < len) break;
    if (type == server::kMsgError) ++*errors;
    pos += 5 + len;
  }
  if (pos != bytes.size() && !reset) {
    return ::testing::AssertionFailure()
           << "truncated server frame at byte " << pos << " of "
           << bytes.size();
  }
  return ::testing::AssertionSuccess();
}

std::vector<std::vector<std::string>> Sorted(
    std::vector<std::vector<std::string>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(WireFuzz, HostileFramesNeverBreakTheServer) {
  const uint64_t seed = PickSeed();
  std::printf("[ wire fuzz seed: %llu — replay with MICROSPEC_SEED=%llu ]\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));

  Harness h;
  ServerOptions sopts;
  sopts.max_frame_bytes = kMaxFrameBytes;
  h.Start(sopts);
  h.Seed();
  std::vector<std::vector<std::vector<std::string>>> expected;
  {
    auto ctx = h.db->MakeContext();
    for (const char* sql : kSelects) {
      auto r = sqlfe::ExecuteSql(h.db.get(), ctx.get(), sql);
      ASSERT_OK(r.status());
      expected.push_back(Sorted(r->rows));
    }
  }

  Rng rng(seed);
  int frames = 0;
  int errors = 0;
  int resets = 0;
  for (int conn = 0; conn < kConnections; ++conn) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", connection " +
                 std::to_string(conn));
    const Script script = MakeScript(&rng);
    frames += script.frames;
    RawConn c;
    ASSERT_TRUE(c.Connect(h.srv->port()));
    for (const std::string& chunk : script.chunks) {
      if (!c.Send(chunk)) break;
    }
    c.CloseWrite();
    std::string reply;
    bool reset = false;
    ASSERT_TRUE(c.ReadToEnd(&reply, &reset))
        << "session neither answered nor ended";
    resets += reset ? 1 : 0;
    if (script.chunks.front()[0] == 'G') {
      // 'G' first selects the HTTP endpoint; garbage gets a 404.
      EXPECT_TRUE(reply.rfind("HTTP/1.1 ", 0) == 0 || (reset && reply.empty()))
          << reply.substr(0, 64);
    } else {
      EXPECT_TRUE(WellFormedReply(reply, reset, &errors));
    }
  }
  std::printf("[ %d connections, %d frames, %d error replies, %d resets ]\n",
              kConnections, frames, errors, resets);
  EXPECT_GE(frames, 2000);

  // Every fuzzed session has ended...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.srv->sessions_in_system() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(h.srv->sessions_in_system(), 0);
  auto snap = h.db->SnapshotTelemetry();
  const telemetry::Sample* gauge =
      snap.Find("microspec_server_sessions_active");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 0.0);

  // ...and a well-behaved client still gets the library path's rows, by
  // simple query and by prepared execution.
  Client c;
  ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
  for (size_t q = 0; q < kNumSelects; ++q) {
    ASSERT_OK_AND_ASSIGN(QueryResult simple, c.Query(kSelects[q]));
    EXPECT_EQ(Sorted(simple.rows), expected[q]) << kSelects[q];
    const std::string name = "ok" + std::to_string(q);
    ASSERT_OK(c.Parse(name, kSelects[q]));
    ASSERT_OK(c.Bind(name));
    ASSERT_OK_AND_ASSIGN(QueryResult prepared, c.Execute(name));
    EXPECT_EQ(Sorted(prepared.rows), expected[q]) << kSelects[q];
  }
  c.Terminate();
}

// --- Admission control ------------------------------------------------------

TEST(ServerAdmission, RejectsBeyondQueueBound) {
  Harness h;
  ServerOptions sopts;
  sopts.max_sessions = 1;
  sopts.max_pending = 0;
  h.Start(sopts);
  h.Seed();

  Client a;
  ASSERT_OK(a.Connect("127.0.0.1", h.srv->port()));
  // Prove a's session is running (and the slot is held).
  ASSERT_OK(a.Query("SELECT count(*) AS n FROM t").status());

  // With the only slot held and no queue, the next connection is bounced
  // with an error frame.
  Client b;
  ASSERT_OK(b.Connect("127.0.0.1", h.srv->port()));
  ASSERT_OK_AND_ASSIGN(Frame e, b.ReadOne());
  EXPECT_EQ(e.type, server::kMsgError);
  EXPECT_NE(std::string(e.payload).find("busy"), std::string::npos);

  // a is unaffected.
  ASSERT_OK(a.Query("SELECT count(*) AS n FROM t").status());
  a.Terminate();
}

TEST(ServerAdmission, PendingSessionWaitsForASlot) {
  Harness h;
  ServerOptions sopts;
  sopts.max_sessions = 1;
  sopts.max_pending = 4;
  h.Start(sopts);
  h.Seed();

  Client a;
  ASSERT_OK(a.Connect("127.0.0.1", h.srv->port()));
  ASSERT_OK(a.Query("SELECT count(*) AS n FROM t").status());

  // b is admitted into the wait queue: its query is buffered by TCP and
  // answered once a releases the only session slot.
  Client b;
  ASSERT_OK(b.Connect("127.0.0.1", h.srv->port()));
  std::atomic<bool> b_done{false};
  std::thread waiter([&] {
    auto r = b.Query("SELECT count(*) AS n FROM t");
    if (r.ok() && r->rows.size() == 1 && r->rows[0][0] == "100") {
      b_done.store(true);
    }
  });
  // Give the waiter time to be parked behind a, then release the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(b_done.load());
  a.Terminate();
  waiter.join();
  EXPECT_TRUE(b_done.load());
}

// --- The shared bee economy -------------------------------------------------

TEST(SharedBees, KSessionsOneStatementOneForgedBee) {
  Harness h;
  h.Start();
  h.Seed();

  const uint64_t start_ns = telemetry::NowNs();
  const uint64_t evp_before = h.db->bees()->stats().evp_bees_created;
  const StmtCache::Stats cache_before = h.srv->stmt_cache()->stats();
  const QueryBeeCache::Stats bees_before = h.db->shared_bees()->stats();

  constexpr int kSessions = 8;
  constexpr int kExecutes = 3;
  const char* kSql = "SELECT a FROM t WHERE a > 90";
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> ok_sessions{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&] {
      Client c;
      if (!c.Connect("127.0.0.1", h.srv->port()).ok()) return;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (!c.Parse("p", kSql).ok()) return;
      if (!c.Bind("p").ok()) return;
      for (int i = 0; i < kExecutes; ++i) {
        auto r = c.Execute("p");
        if (!r.ok() || r->rows.size() != 9) return;
      }
      ok_sessions.fetch_add(1);
      c.Terminate();
    });
  }
  while (ready.load() < kSessions) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(ok_sessions.load(), kSessions);

  // Exactly one parse: one "stmt:" queued/succeeded span pair on the
  // background lane, and the statement cache saw K lookups -> 1 miss + K-1
  // hits.
  EXPECT_EQ(CountLane(start_ns, "queued stmt:"), 1u);
  EXPECT_EQ(CountLane(start_ns, "succeeded stmt:"), 1u);
  const StmtCache::Stats cache_after = h.srv->stmt_cache()->stats();
  EXPECT_EQ(cache_after.misses - cache_before.misses, 1u);
  EXPECT_EQ(cache_after.hits - cache_before.hits,
            static_cast<uint64_t>(kSessions - 1));

  // Exactly one bee specialization for K x kExecutes plan builds: one
  // "evp:" span pair, one EVP created (verified at install under kEnforce),
  // and every other build served from the shared cache with no
  // re-verification.
  EXPECT_EQ(CountLane(start_ns, "queued evp:"), 1u);
  EXPECT_EQ(CountLane(start_ns, "succeeded evp:"), 1u);
  EXPECT_EQ(h.db->bees()->stats().evp_bees_created - evp_before, 1u);
  const QueryBeeCache::Stats bees_after = h.db->shared_bees()->stats();
  EXPECT_EQ(bees_after.misses - bees_before.misses, 1u);
  EXPECT_EQ(bees_after.hits - bees_before.hits,
            static_cast<uint64_t>(kSessions * kExecutes - 1));
}

TEST(SharedBees, NormalizedSqlVariantsShareOneEntry) {
  Harness h;
  h.Start();
  h.Seed();

  Client c;
  ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
  const StmtCache::Stats before = h.srv->stmt_cache()->stats();
  ASSERT_OK(c.Query("SELECT a FROM t WHERE a > 95").status());
  ASSERT_OK(c.Query("select  a  from t\n where a > 95;").status());
  ASSERT_OK(c.Query("SELECT A FROM T WHERE A > 95").status());
  const StmtCache::Stats after = h.srv->stmt_cache()->stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 2u);
  c.Terminate();
}

TEST(SharedBees, StmtCacheEvictsLru) {
  Harness h;
  ServerOptions sopts;
  sopts.stmt_cache_capacity = 2;
  h.Start(sopts);
  h.Seed();

  Client c;
  ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
  const StmtCache::Stats before = h.srv->stmt_cache()->stats();
  ASSERT_OK(c.Query("SELECT a FROM t WHERE a > 1").status());
  ASSERT_OK(c.Query("SELECT a FROM t WHERE a > 2").status());
  ASSERT_OK(c.Query("SELECT a FROM t WHERE a > 3").status());  // evicts #1
  const StmtCache::Stats mid = h.srv->stmt_cache()->stats();
  EXPECT_GE(mid.evictions - before.evictions, 1u);
  EXPECT_LE(mid.entries, 2u);
  // Statement #1 must re-parse (miss), proving it was evicted.
  ASSERT_OK(c.Query("SELECT a FROM t WHERE a > 1").status());
  const StmtCache::Stats after = h.srv->stmt_cache()->stats();
  EXPECT_EQ(after.misses - mid.misses, 1u);
  c.Terminate();
}

TEST(SharedBees, DdlInvalidatesCachedStatements) {
  Harness h;
  h.Start();
  h.Seed();

  Client c;
  ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
  const char* kSql = "SELECT count(*) AS n FROM t";
  ASSERT_OK(c.Query(kSql).status());  // miss: first sighting
  const StmtCache::Stats s0 = h.srv->stmt_cache()->stats();
  ASSERT_OK(c.Query(kSql).status());  // hit
  const StmtCache::Stats s1 = h.srv->stmt_cache()->stats();
  EXPECT_EQ(s1.hits - s0.hits, 1u);
  EXPECT_EQ(s1.misses - s0.misses, 0u);

  // DDL (through the wire) bumps the epoch: the same SQL re-parses.
  ASSERT_OK(c.Query("CREATE TABLE ddl_probe (x INT NOT NULL)").status());
  ASSERT_OK(c.Query(kSql).status());
  const StmtCache::Stats s2 = h.srv->stmt_cache()->stats();
  EXPECT_GE(s2.misses - s1.misses, 1u);

  // Dropping the table invalidates too; execution of the rebuilt statement
  // then fails cleanly at bind time.
  ASSERT_OK(h.db->DropTable("t"));
  EXPECT_FALSE(c.Query(kSql).ok());
  c.Terminate();
}

// --- Telemetry --------------------------------------------------------------

TEST(ServerMetrics, HttpEndpointMatchesSnapshot) {
  Harness h;
  h.Start();
  h.Seed();

  // Generate some traffic so the server families are present.
  Client c;
  ASSERT_OK(c.Connect("127.0.0.1", h.srv->port()));
  ASSERT_OK(c.Query("SELECT count(*) AS n FROM t").status());
  c.Terminate();
  // Wait for the session teardown so the gauge settles at zero.
  while (h.srv->sessions_in_system() != 0) std::this_thread::yield();

  ASSERT_OK_AND_ASSIGN(
      std::string scraped,
      server::HttpGet("127.0.0.1", h.srv->port(), "/metrics"));
  EXPECT_NE(scraped.find("microspec_server_queries_total"), std::string::npos);
  EXPECT_NE(scraped.find("microspec_server_sessions_active 0"),
            std::string::npos);
  EXPECT_NE(scraped.find("microspec_stmt_cache_misses_total"),
            std::string::npos);
  EXPECT_NE(scraped.find("microspec_server_query_ns"), std::string::npos);

  // The endpoint is SnapshotTelemetry() over HTTP: with the server idle the
  // two renderings are byte-identical.
  EXPECT_EQ(scraped, h.db->SnapshotTelemetry().ToPrometheusText());

  // Unknown paths 404 without disturbing the listener.
  EXPECT_FALSE(server::HttpGet("127.0.0.1", h.srv->port(), "/nope").ok());
  ASSERT_OK_AND_ASSIGN(
      std::string again,
      server::HttpGet("127.0.0.1", h.srv->port(), "/metrics"));
  EXPECT_NE(again.find("microspec_server_queries_total"), std::string::npos);
}

// --- Differential: server path vs library path ------------------------------

void DifferentialRun(int dop, int batch_rows) {
  Harness h;
  h.Start(ServerOptions{}, dop, batch_rows);
  h.Seed();

  const std::vector<std::string> statements = {
      "SELECT a, b FROM t WHERE a > 50",
      "SELECT count(*) AS n FROM t WHERE b = 3",
      "SELECT b, count(*) AS n, sum(a) AS s FROM t GROUP BY b ORDER BY b",
      "SELECT a FROM t WHERE a BETWEEN 10 AND 20 ORDER BY a DESC",
  };

  // Reference rows via the library path (sorted: row order is unspecified
  // for the unsorted statements).
  std::vector<std::vector<std::vector<std::string>>> expected;
  {
    auto ctx = h.db->MakeContext();
    for (const std::string& sql : statements) {
      auto r = sqlfe::ExecuteSql(h.db.get(), ctx.get(), sql);
      ASSERT_OK(r.status());
      auto rows = r->rows;
      std::sort(rows.begin(), rows.end());
      expected.push_back(std::move(rows));
    }
  }

  constexpr int kSessions = 4;
  std::atomic<int> ok_sessions{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      Client c;
      if (!c.Connect("127.0.0.1", h.srv->port()).ok()) return;
      for (int round = 0; round < 3; ++round) {
        for (size_t q = 0; q < statements.size(); ++q) {
          Result<QueryResult> r = (s + round) % 2 == 0
                                      ? c.Query(statements[q])
                                      : Result<QueryResult>([&] {
                                          std::string name =
                                              "d" + std::to_string(q);
                                          (void)c.Parse(name, statements[q]);
                                          (void)c.Bind(name);
                                          return c.Execute(name);
                                        }());
          if (!r.ok()) return;
          auto rows = r->rows;
          std::sort(rows.begin(), rows.end());
          if (rows != expected[q]) return;
        }
      }
      ok_sessions.fetch_add(1);
      c.Terminate();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_sessions.load(), kSessions);
}

TEST(ServerDifferential, SerialRowAtATime) { DifferentialRun(1, 0); }

TEST(ServerDifferential, ParallelDop2) { DifferentialRun(2, 0); }

TEST(ServerDifferential, BatchMode) {
  DifferentialRun(1, kMaxTuplesPerPage);
}

// --- Graceful shutdown ------------------------------------------------------

TEST(ServerShutdown, DrainsUnderLoadWithoutLeaks) {
  Harness h;
  h.Start();
  h.Seed();

  constexpr int kClients = 4;
  std::atomic<bool> stop_clients{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client c;
      if (!c.Connect("127.0.0.1", h.srv->port()).ok()) return;
      while (!stop_clients.load(std::memory_order_acquire)) {
        if (!c.Query("SELECT count(*) AS n FROM t WHERE a > 10").ok()) {
          break;  // server draining: the session was closed
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  h.srv->Shutdown();
  // Every session is gone the moment Shutdown returns — nothing leaked
  // into the admission counter or the gauge.
  EXPECT_EQ(h.srv->sessions_in_system(), 0);
  auto snap = h.db->SnapshotTelemetry();
  const telemetry::Sample* gauge =
      snap.Find("microspec_server_sessions_active");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 0.0);
  stop_clients.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  // Connections after shutdown are refused outright (socket closed).
  Client late;
  Status s = late.Connect("127.0.0.1", h.srv->port());
  if (s.ok()) {
    // The TCP connect may still succeed briefly on some stacks; any use of
    // the session must fail.
    EXPECT_FALSE(late.Query("SELECT count(*) AS n FROM t").ok());
  }
}

TEST(ServerShutdown, IdempotentAndConcurrent) {
  Harness h;
  h.Start();
  std::thread t1([&] { h.srv->Shutdown(); });
  std::thread t2([&] { h.srv->Shutdown(); });
  t1.join();
  t2.join();
  h.srv->Shutdown();  // third call: no-op
  EXPECT_EQ(h.srv->sessions_in_system(), 0);
}

// --- Unit: normalization and fingerprints -----------------------------------

TEST(StmtCacheUnit, NormalizeSql) {
  EXPECT_EQ(server::NormalizeSql("SELECT  *\n FROM t ;"),
            "select * from t");
  // Quoted literals keep their bytes (and case).
  EXPECT_EQ(server::NormalizeSql("SELECT * FROM t WHERE c = 'A  B'"),
            "select * from t where c = 'A  B'");
  // Escaped quotes do not terminate the literal.
  EXPECT_EQ(server::NormalizeSql("SELECT 'it''s  A' FROM T"),
            "select 'it''s  A' from t");
}

TEST(SharedBeesUnit, FingerprintsSeparateShapes) {
  ColMeta meta = ColMeta{TypeId::kInt32, 4};
  std::vector<ColMeta> input = {meta};
  ExprPtr gt5 = Cmp(CmpOp::kGt, Var(0, meta), ConstInt32(5));
  ExprPtr gt7 = Cmp(CmpOp::kGt, Var(0, meta), ConstInt32(7));
  ExprPtr lt5 = Cmp(CmpOp::kLt, Var(0, meta), ConstInt32(5));
  const std::string f_gt5 = ExprFingerprint(*gt5, &input);
  EXPECT_NE(f_gt5, ExprFingerprint(*gt7, &input));   // constant bytes differ
  EXPECT_NE(f_gt5, ExprFingerprint(*lt5, &input));   // operator differs
  EXPECT_NE(f_gt5, ExprFingerprint(*gt5, nullptr));  // input shape differs
  ExprPtr gt5_again = Cmp(CmpOp::kGt, Var(0, meta), ConstInt32(5));
  EXPECT_EQ(f_gt5, ExprFingerprint(*gt5_again, &input));

  const std::string jk = JoinKeysFingerprint({0}, {1}, {meta}, 3, 4);
  EXPECT_EQ(jk, JoinKeysFingerprint({0}, {1}, {meta}, 3, 4));
  EXPECT_NE(jk, JoinKeysFingerprint({0}, {2}, {meta}, 3, 4));
  EXPECT_NE(jk, JoinKeysFingerprint({0}, {1}, {meta}, 4, 4));
}

}  // namespace
}  // namespace microspec
