/**
 * @file
 * Blocking NDJSON client for the lisa-serve Unix socket protocol.
 */

#ifndef LISABENCH_CLIENT_HH
#define LISABENCH_CLIENT_HH

#include <string>

namespace lisabench {

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to @p socket_path. @return false and fill @p error. */
    bool connect(const std::string &socket_path, std::string &error);

    /** Send one request line and block for its reply line (without the
     *  newline). @return false when the connection fails. */
    bool roundTrip(const std::string &line, std::string &reply);

  private:
    int fd = -1;
    std::string pending;
};

} // namespace lisabench

#endif // LISABENCH_CLIENT_HH
