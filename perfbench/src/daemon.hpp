// The `rtlock serve` daemon as a child process, and the one-request-per-
// connection HTTP client the serve workloads drive it with.
#pragma once

#include <string>
#include <sys/types.h>

namespace perfbench {

struct HttpReply {
  int status = 0;  // 0 = transport failure (see error)
  std::string body;
  std::string cache;       // X-Rtlock-Cache
  std::string designHash;  // X-Rtlock-Design-Hash
  std::string error;
};

/// Sends one request to 127.0.0.1:`port` and reads the reply to EOF.
[[nodiscard]] HttpReply httpRequest(int port, const std::string& method, const std::string& target,
                                    const std::string& body = {});

class Daemon {
 public:
  /// Starts `binary serve --port=0 --threads=N --cache-mb=M` and returns once
  /// GET /healthz answers 200.  Throws std::runtime_error when it does not
  /// come up within 20 s.
  Daemon(const std::string& binary, int threads, int cacheMb);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const noexcept { return port_; }

  /// VmHWM of the daemon process in MB (0 when unreadable).
  [[nodiscard]] double peakRssMb() const;

  /// SIGTERM, wait for the drain, and return the daemon's exit status (-1
  /// when it did not exit normally).  Idempotent.
  int stop();

 private:
  pid_t pid_ = -1;
  int stderrFd_ = -1;
  int port_ = 0;
  int status_ = -1;
};

}  // namespace perfbench
