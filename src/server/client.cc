#include "server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace microspec::server {

namespace {
/// Client-side frames can be large (a whole result set row); keep parity
/// with the server default.
constexpr size_t kClientMaxPayload = 1 << 20;

Status ConnectTcp(const std::string& host, int port, int* out_fd) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + strerror(errno));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Status s = Status::IoError(std::string("connect: ") + strerror(errno));
    ::close(fd);
    return s;
  }
  // Requests are single writes; never let Nagle hold one back.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *out_fd = fd;
  return Status::OK();
}
}  // namespace

Status Client::Connect(const std::string& host, int port) {
  Close();
  return ConnectTcp(host, port, &fd_);
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::SendFrame(char type, std::string_view payload) {
  if (fd_ < 0) return Status::IoError("not connected");
  return WriteFrame(fd_, type, payload);
}

Status Client::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::IoError("not connected");
  return WriteAll(fd_, bytes);
}

Result<Frame> Client::ReadOne() {
  if (fd_ < 0) return Status::IoError("not connected");
  Frame frame;
  MICROSPEC_RETURN_NOT_OK(ReadFrame(fd_, kClientMaxPayload, &frame));
  return frame;
}

Result<QueryResult> Client::ReadQueryResponse() {
  QueryResult result;
  std::string error;
  for (;;) {
    MICROSPEC_ASSIGN_OR_RETURN(Frame frame, ReadOne());
    switch (frame.type) {
      case kMsgRowDescription: {
        std::vector<Field> fields;
        MICROSPEC_RETURN_NOT_OK(DecodeFields(frame.payload, &fields));
        for (Field& f : fields) result.columns.push_back(std::move(f.text));
        break;
      }
      case kMsgDataRow: {
        std::vector<Field> fields;
        MICROSPEC_RETURN_NOT_OK(DecodeFields(frame.payload, &fields));
        std::vector<std::string> row;
        row.reserve(fields.size());
        for (Field& f : fields) {
          row.push_back(f.is_null ? "NULL" : std::move(f.text));
        }
        result.rows.push_back(std::move(row));
        break;
      }
      case kMsgCommandComplete:
        result.tag = frame.payload;
        break;
      case kMsgError:
        error = frame.payload;
        break;
      case kMsgReady:
        if (!error.empty()) return Status::Internal(error);
        return result;
      default:
        return Status::InvalidArgument(
            std::string("unexpected frame type '") + frame.type + "'");
    }
  }
}

Result<QueryResult> Client::Query(const std::string& sql) {
  MICROSPEC_RETURN_NOT_OK(SendFrame(kMsgSimpleQuery, sql));
  return ReadQueryResponse();
}

Status Client::Parse(const std::string& name, const std::string& sql) {
  MICROSPEC_RETURN_NOT_OK(
      SendFrame(kMsgParse, EncodeStrings({name, sql})));
  MICROSPEC_ASSIGN_OR_RETURN(Frame frame, ReadOne());
  if (frame.type == kMsgError) return Status::Internal(frame.payload);
  if (frame.type != kMsgParseComplete) {
    return Status::InvalidArgument("expected ParseComplete");
  }
  return Status::OK();
}

Status Client::Bind(const std::string& name) {
  MICROSPEC_RETURN_NOT_OK(SendFrame(kMsgBind, EncodeStrings({name})));
  MICROSPEC_ASSIGN_OR_RETURN(Frame frame, ReadOne());
  if (frame.type == kMsgError) return Status::Internal(frame.payload);
  if (frame.type != kMsgBindComplete) {
    return Status::InvalidArgument("expected BindComplete");
  }
  return Status::OK();
}

Result<QueryResult> Client::Execute(const std::string& name) {
  MICROSPEC_RETURN_NOT_OK(SendFrame(kMsgExecute, EncodeStrings({name})));
  return ReadQueryResponse();
}

Status Client::CloseStmt(const std::string& name) {
  MICROSPEC_RETURN_NOT_OK(SendFrame(kMsgCloseStmt, EncodeStrings({name})));
  MICROSPEC_ASSIGN_OR_RETURN(Frame frame, ReadOne());
  if (frame.type == kMsgError) return Status::Internal(frame.payload);
  if (frame.type != kMsgCloseComplete) {
    return Status::InvalidArgument("expected CloseComplete");
  }
  return Status::OK();
}

void Client::Terminate() {
  if (fd_ < 0) return;
  (void)WriteFrame(fd_, kMsgTerminate, "");
  Close();
}

Result<std::string> HttpGet(const std::string& host, int port,
                            const std::string& path) {
  int fd = -1;
  MICROSPEC_RETURN_NOT_OK(ConnectTcp(host, port, &fd));
  std::string request = "GET " + path +
                        " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n\r\n";
  Status s = WriteAll(fd, request);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    response.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::IoError("malformed HTTP response");
  }
  if (response.rfind("HTTP/1.1 200", 0) != 0) {
    const size_t line_end = response.find("\r\n");
    return Status::IoError("HTTP error: " + response.substr(0, line_end));
  }
  return response.substr(header_end + 4);
}

}  // namespace microspec::server
