#include "svc/frame.hpp"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <unistd.h>

namespace stgcc::svc {

const char* frame_status_name(FrameStatus s) noexcept {
    switch (s) {
        case FrameStatus::Ok: return "ok";
        case FrameStatus::Eof: return "eof";
        case FrameStatus::Truncated: return "truncated";
        case FrameStatus::Oversized: return "oversized";
        case FrameStatus::IoError: return "io_error";
    }
    return "unknown";
}

std::string encode_frame(std::string_view payload) {
    const auto n = static_cast<std::uint32_t>(payload.size());
    std::string out;
    out.reserve(kFrameHeaderBytes + payload.size());
    out.push_back(static_cast<char>((n >> 24) & 0xff));
    out.push_back(static_cast<char>((n >> 16) & 0xff));
    out.push_back(static_cast<char>((n >> 8) & 0xff));
    out.push_back(static_cast<char>(n & 0xff));
    out.append(payload);
    return out;
}

FrameStatus decode_frame(std::string_view buffer, std::string& payload,
                         std::size_t& consumed, std::uint32_t max_payload) {
    consumed = 0;
    if (buffer.empty()) return FrameStatus::Eof;
    if (buffer.size() < kFrameHeaderBytes) return FrameStatus::Truncated;
    const auto b = [&](std::size_t i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(buffer[i]));
    };
    const std::uint32_t n = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
    if (n > max_payload) return FrameStatus::Oversized;
    if (buffer.size() < kFrameHeaderBytes + n) return FrameStatus::Truncated;
    payload.assign(buffer.data() + kFrameHeaderBytes, n);
    consumed = kFrameHeaderBytes + n;
    return FrameStatus::Ok;
}

namespace {

/// Read exactly `n` bytes.  Returns n on success, 0 on immediate EOF,
/// -1 on error, and the (positive, < n) count read before an EOF mid-way.
/// With `abort_fd` >= 0, every read first polls `fd` together with
/// `abort_fd`; once `abort_fd` is readable and `fd` has nothing pending,
/// reading stops as if the stream had ended.
ssize_t read_exact(int fd, char* buf, std::size_t n, int abort_fd) {
    std::size_t got = 0;
    while (got < n) {
        if (abort_fd >= 0) {
            pollfd pfd[2] = {{fd, POLLIN, 0}, {abort_fd, POLLIN, 0}};
            if (::poll(pfd, 2, -1) < 0) {
                if (errno == EINTR) continue;
                return -1;
            }
            if (!(pfd[0].revents & (POLLIN | POLLHUP | POLLERR)))
                return static_cast<ssize_t>(got);  // aborted
        }
        const ssize_t r = ::read(fd, buf + got, n - got);
        if (r > 0) {
            got += static_cast<std::size_t>(r);
            continue;
        }
        if (r == 0) return static_cast<ssize_t>(got);  // EOF
        if (errno == EINTR) continue;
        return -1;
    }
    return static_cast<ssize_t>(got);
}

}  // namespace

bool write_frame(int fd, std::string_view payload) {
    const std::string frame = encode_frame(payload);
    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t w = ::write(fd, frame.data() + sent, frame.size() - sent);
        if (w > 0) {
            sent += static_cast<std::size_t>(w);
            continue;
        }
        if (w < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

FrameStatus read_frame(int fd, std::string& payload, std::uint32_t max_payload,
                       int abort_fd) {
    char header[kFrameHeaderBytes];
    const ssize_t h = read_exact(fd, header, kFrameHeaderBytes, abort_fd);
    if (h < 0) return FrameStatus::IoError;
    if (h == 0) return FrameStatus::Eof;
    if (static_cast<std::size_t>(h) < kFrameHeaderBytes)
        return FrameStatus::Truncated;
    const auto b = [&](std::size_t i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(header[i]));
    };
    const std::uint32_t n = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
    if (n > max_payload) return FrameStatus::Oversized;
    payload.resize(n);
    if (n == 0) return FrameStatus::Ok;
    const ssize_t p = read_exact(fd, payload.data(), n, abort_fd);
    if (p < 0) return FrameStatus::IoError;
    if (static_cast<std::uint32_t>(p) < n) return FrameStatus::Truncated;
    return FrameStatus::Ok;
}

}  // namespace stgcc::svc
