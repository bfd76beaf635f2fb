#include "server/wire.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace microspec::server {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(b, 4);
}

void AppendU16(std::string* out, uint16_t v) {
  char b[2];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  out->append(b, 2);
}

uint32_t ReadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

uint16_t ReadU16(const char* p) {
  return static_cast<uint16_t>(
      static_cast<unsigned char>(p[0]) |
      static_cast<unsigned char>(p[1]) << 8);
}

/// Blocking read of exactly `n` bytes. `header_wait` selects the behavior at
/// position 0: an orderly EOF there is NotFound (idle peer closed), while
/// EOF mid-read is always a truncated frame (IOError). The stop flag is
/// polled between reads so a parked session notices server shutdown.
Status ReadExact(int fd, char* buf, size_t n, bool eof_ok_at_start,
                 const std::atomic<bool>* stop) {
  size_t got = 0;
  while (got < n) {
    if (stop != nullptr) {
      if (stop->load(std::memory_order_acquire)) {
        return Status(StatusCode::kResourceExhausted, "shutdown");
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      int pr = ::poll(&pfd, 1, /*timeout_ms=*/100);
      if (pr < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("poll: ") + strerror(errno));
      }
      if (pr == 0) continue;  // timeout; re-check stop
    }
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) {
      if (got == 0 && eof_ok_at_start) return Status::NotFound("eof");
      return Status::IoError("connection closed mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + strerror(errno));
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

void EncodeFrame(char type, std::string_view payload, std::string* out) {
  out->push_back(type);
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload.data(), payload.size());
}

std::string EncodeFields(const std::vector<Field>& fields) {
  std::string out;
  AppendU16(&out, static_cast<uint16_t>(fields.size()));
  for (const Field& f : fields) {
    if (f.is_null) {
      AppendU32(&out, kNullField);
    } else {
      AppendU32(&out, static_cast<uint32_t>(f.text.size()));
      out += f.text;
    }
  }
  return out;
}

std::string EncodeStrings(const std::vector<std::string>& strings) {
  std::string out;
  AppendU16(&out, static_cast<uint16_t>(strings.size()));
  for (const std::string& s : strings) {
    AppendU32(&out, static_cast<uint32_t>(s.size()));
    out += s;
  }
  return out;
}

Status DecodeFields(std::string_view payload, std::vector<Field>* out) {
  out->clear();
  if (payload.size() < 2) return Status::InvalidArgument("short payload");
  size_t pos = 0;
  uint16_t count = ReadU16(payload.data());
  pos += 2;
  // The count is untrusted: reserve no more fields than the payload can
  // hold, since each needs at least its 4-byte length.
  out->reserve(std::min<size_t>(count, (payload.size() - 2) / 4));
  for (uint16_t i = 0; i < count; ++i) {
    if (payload.size() - pos < 4) {
      return Status::InvalidArgument("truncated field length");
    }
    uint32_t len = ReadU32(payload.data() + pos);
    pos += 4;
    Field f;
    if (len == kNullField) {
      f.is_null = true;
    } else {
      if (payload.size() - pos < len) {
        return Status::InvalidArgument("truncated field bytes");
      }
      f.text.assign(payload.data() + pos, len);
      pos += len;
    }
    out->push_back(std::move(f));
  }
  if (pos != payload.size()) {
    return Status::InvalidArgument("trailing bytes after fields");
  }
  return Status::OK();
}

Status ReadFrame(int fd, size_t max_payload, Frame* frame,
                 const std::atomic<bool>* stop) {
  char header[5];
  MICROSPEC_RETURN_NOT_OK(
      ReadExact(fd, header, sizeof(header), /*eof_ok_at_start=*/true, stop));
  frame->type = header[0];
  uint32_t len = ReadU32(header + 1);
  if (len > max_payload) {
    return Status::InvalidArgument("frame exceeds max payload size");
  }
  frame->payload.resize(len);
  if (len > 0) {
    MICROSPEC_RETURN_NOT_OK(ReadExact(fd, frame->payload.data(), len,
                                      /*eof_ok_at_start=*/false, stop));
  }
  return Status::OK();
}

Status WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t r = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + strerror(errno));
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteFrame(int fd, char type, std::string_view payload) {
  std::string buf;
  buf.reserve(5 + payload.size());
  EncodeFrame(type, payload, &buf);
  return WriteAll(fd, buf);
}

}  // namespace microspec::server
