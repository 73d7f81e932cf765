#include "client.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace lisabench {

Client::~Client()
{
    if (fd >= 0)
        ::close(fd);
}

bool
Client::connect(const std::string &socket_path, std::string &error)
{
    sockaddr_un addr{};
    if (socket_path.size() + 1 > sizeof addr.sun_path) {
        error = "socket path too long: " + socket_path;
        return false;
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        error = std::string("connect: ") + std::strerror(errno);
        return false;
    }
    return true;
}

bool
Client::roundTrip(const std::string &line, std::string &reply)
{
    std::string out = line;
    out += '\n';
    size_t off = 0;
    while (off < out.size()) {
        const ssize_t w =
            ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
        if (w <= 0)
            return false;
        off += static_cast<size_t>(w);
    }
    size_t nl = 0;
    while ((nl = pending.find('\n')) == std::string::npos) {
        char buf[1 << 14];
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            return false;
        pending.append(buf, static_cast<size_t>(n));
    }
    reply.assign(pending, 0, nl);
    pending.erase(0, nl + 1);
    return true;
}

} // namespace lisabench
