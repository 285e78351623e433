#include "daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

/// Case-insensitive header lookup in a raw response head.
[[nodiscard]] std::string headerValue(const std::string& head, const std::string& lowerName) {
  std::size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const std::size_t lineStart = pos + 2;
    const std::size_t lineEnd = head.find("\r\n", lineStart);
    const std::string line = head.substr(lineStart, lineEnd == std::string::npos
                                                        ? std::string::npos
                                                        : lineEnd - lineStart);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      if (name == lowerName) {
        std::size_t valueStart = colon + 1;
        while (valueStart < line.size() && line[valueStart] == ' ') ++valueStart;
        return line.substr(valueStart);
      }
    }
    pos = lineEnd;
  }
  return {};
}

class Socket {
 public:
  Socket() : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_;
};

}  // namespace

HttpReply httpRequest(int port, const std::string& method, const std::string& target,
                      const std::string& body) {
  HttpReply reply;
  const Socket socket;
  if (socket.fd() < 0) {
    reply.error = std::string{"socket: "} + std::strerror(errno);
    return reply;
  }
  timeval timeout{};
  timeout.tv_sec = 120;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    reply.error = std::string{"connect: "} + std::strerror(errno);
    return reply;
  }
  std::string message = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (method == "POST") {
    message += "Content-Type: application/json\r\nContent-Length: " + std::to_string(body.size()) +
               "\r\n";
  }
  message += "Connection: close\r\n\r\n";
  message += body;
  std::size_t sent = 0;
  while (sent < message.size()) {
    const ssize_t n =
        ::send(socket.fd(), message.data() + sent, message.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      reply.error = std::string{"send: "} + std::strerror(errno);
      return reply;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(socket.fd(), buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      reply.error = std::string{"recv: "} + std::strerror(errno);
      return reply;
    }
    if (n == 0) break;
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  const std::size_t headEnd = raw.find("\r\n\r\n");
  if (headEnd == std::string::npos || raw.compare(0, 9, "HTTP/1.1 ") != 0) {
    reply.error = "malformed response (" + std::to_string(raw.size()) + " bytes)";
    return reply;
  }
  const std::string head = raw.substr(0, headEnd);
  reply.status = std::atoi(head.c_str() + 9);
  reply.body = raw.substr(headEnd + 4);
  const std::string length = headerValue(head, "content-length");
  if (!length.empty() && std::to_string(reply.body.size()) != length) {
    reply.error =
        "body length " + std::to_string(reply.body.size()) + " != Content-Length " + length;
    reply.status = 0;
    return reply;
  }
  reply.cache = headerValue(head, "x-rtlock-cache");
  reply.designHash = headerValue(head, "x-rtlock-design-hash");
  return reply;
}

Daemon::Daemon(const std::string& binary, int threads, int cacheMb) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error{"pipe2 failed"};
  const int devNull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  std::vector<std::string> args = {binary, "serve", "--port=0",
                                   "--threads=" + std::to_string(threads),
                                   "--cache-mb=" + std::to_string(cacheMb)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    if (devNull >= 0) ::close(devNull);
    throw std::runtime_error{"fork failed"};
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.  The daemon dies with
    // the benchmark even if the benchmark is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDERR_FILENO);
    if (devNull >= 0) ::dup2(devNull, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  if (devNull >= 0) ::close(devNull);
  stderrFd_ = fds[0];

  // Wait for "listening on HOST:PORT".
  std::string text;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{20};
  while (port_ == 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) break;
    pollfd entry{stderrFd_, POLLIN, 0};
    if (::poll(&entry, 1, static_cast<int>(left)) <= 0) continue;
    char buffer[4096];
    const ssize_t n = ::read(stderrFd_, buffer, sizeof buffer);
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
    const std::size_t at = text.find("listening on ");
    const std::size_t eol = at == std::string::npos ? std::string::npos : text.find('\n', at);
    if (eol != std::string::npos) {
      const std::size_t colon = text.rfind(':', eol);
      port_ = std::atoi(text.c_str() + colon + 1);
    }
  }
  // A throwing constructor runs no destructor: reap the child and close the
  // pipe here.
  const auto fail = [this](const std::string& why) {
    stop();
    ::close(stderrFd_);
    stderrFd_ = -1;
    throw std::runtime_error{why};
  };
  if (port_ == 0) fail("rtlock serve did not start: " + text);
  for (int attempt = 0; attempt < 20000; ++attempt) {
    if (httpRequest(port_, "GET", "/healthz").status == 200) return;
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  fail("rtlock serve never answered /healthz");
}

Daemon::~Daemon() {
  stop();
  if (stderrFd_ >= 0) ::close(stderrFd_);
}

double Daemon::peakRssMb() const {
  std::ifstream status{"/proc/" + std::to_string(pid_) + "/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

int Daemon::stop() {
  if (pid_ <= 0) return status_;
  ::kill(pid_, SIGTERM);
  int raw = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{15};
  for (;;) {
    const pid_t done = ::waitpid(pid_, &raw, WNOHANG);
    if (done == pid_) break;
    if (done < 0 && errno != EINTR) break;
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &raw, 0);
      raw = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  status_ = raw != -1 && WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  pid_ = -1;
  return status_;
}

}  // namespace perfbench
