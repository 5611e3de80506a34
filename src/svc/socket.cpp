#include "svc/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/decimal.hpp"

namespace stgcc::svc {

void Fd::reset() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
}

std::string Endpoint::text() const {
    if (kind == Kind::Unix) return "unix:" + path;
    return (host.empty() ? std::string() : host) + ":" + std::to_string(port);
}

std::optional<Endpoint> parse_endpoint(const std::string& text,
                                       std::string& error) {
    Endpoint ep;
    if (text.rfind("unix:", 0) == 0) {
        ep.kind = Endpoint::Kind::Unix;
        ep.path = text.substr(5);
        if (ep.path.empty()) {
            error = "empty unix socket path in '" + text + "'";
            return std::nullopt;
        }
        if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
            error = "unix socket path too long: " + ep.path;
            return std::nullopt;
        }
        return ep;
    }
    const auto colon = text.rfind(':');
    if (colon == std::string::npos) {
        error = "expected 'unix:/path' or 'host:port', got '" + text + "'";
        return std::nullopt;
    }
    ep.kind = Endpoint::Kind::Tcp;
    ep.host = text.substr(0, colon);
    const auto port = util::parse_decimal(text.substr(colon + 1), 65535);
    if (!port) {
        error = "bad port in '" + text + "'";
        return std::nullopt;
    }
    ep.port = static_cast<std::uint16_t>(*port);
    return ep;
}

namespace {

bool resolve_tcp(const Endpoint& ep, bool for_listen, sockaddr_in& out,
                 std::string& error) {
    std::memset(&out, 0, sizeof out);
    out.sin_family = AF_INET;
    out.sin_port = htons(ep.port);
    if (ep.host.empty()) {
        out.sin_addr.s_addr =
            for_listen ? htonl(INADDR_ANY) : htonl(INADDR_LOOPBACK);
        return true;
    }
    if (::inet_pton(AF_INET, ep.host.c_str(), &out.sin_addr) == 1) return true;
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(ep.host.c_str(), nullptr, &hints, &res) != 0 || !res) {
        error = "cannot resolve host '" + ep.host + "'";
        return false;
    }
    out.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
    return true;
}

void fill_unix(const Endpoint& ep, sockaddr_un& out) {
    std::memset(&out, 0, sizeof out);
    out.sun_family = AF_UNIX;
    std::strncpy(out.sun_path, ep.path.c_str(), sizeof(out.sun_path) - 1);
}

}  // namespace

Fd listen_endpoint(const Endpoint& ep, std::string& error) {
    if (ep.kind == Endpoint::Kind::Unix) {
        Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
        if (!fd.valid()) {
            error = std::string("socket: ") + std::strerror(errno);
            return {};
        }
        ::unlink(ep.path.c_str());  // stale socket from a previous run
        sockaddr_un addr;
        fill_unix(ep, addr);
        if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr) != 0 ||
            ::listen(fd.get(), 64) != 0) {
            error = "cannot listen on " + ep.text() + ": " +
                    std::strerror(errno);
            return {};
        }
        return fd;
    }
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        error = std::string("socket: ") + std::strerror(errno);
        return {};
    }
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr;
    if (!resolve_tcp(ep, /*for_listen=*/true, addr, error)) return {};
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd.get(), 64) != 0) {
        error = "cannot listen on " + ep.text() + ": " + std::strerror(errno);
        return {};
    }
    return fd;
}

std::string local_endpoint(const Fd& listener, const Endpoint& requested) {
    if (requested.kind == Endpoint::Kind::Unix) return requested.text();
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    if (::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0)
        return requested.text();
    Endpoint actual = requested;
    actual.port = ntohs(addr.sin_port);
    return actual.text();
}

Fd connect_endpoint(const Endpoint& ep, std::string& error) {
    if (ep.kind == Endpoint::Kind::Unix) {
        Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
        if (!fd.valid()) {
            error = std::string("socket: ") + std::strerror(errno);
            return {};
        }
        sockaddr_un addr;
        fill_unix(ep, addr);
        if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr) != 0) {
            error = "cannot connect to " + ep.text() + ": " +
                    std::strerror(errno);
            return {};
        }
        return fd;
    }
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        error = std::string("socket: ") + std::strerror(errno);
        return {};
    }
    sockaddr_in addr;
    if (!resolve_tcp(ep, /*for_listen=*/false, addr, error)) return {};
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) != 0) {
        error = "cannot connect to " + ep.text() + ": " + std::strerror(errno);
        return {};
    }
    return fd;
}

Fd accept_connection(const Fd& listener) {
    while (true) {
        const int fd = ::accept(listener.get(), nullptr, nullptr);
        if (fd >= 0) return Fd(fd);
        if (errno == EINTR) continue;
        return {};
    }
}

}  // namespace stgcc::svc
