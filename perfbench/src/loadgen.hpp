// Native HTTP load generator: one process, one thread, polling a fixed set of
// keep-alive connections opened with net::connectTcp. Each connection
// carries at most one request at a time, so arrivals that find every
// connection busy wait in the generator's backlog (see OpenLoopBook).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "harness.hpp"
#include "pipesched/net/socket.hpp"
#include "process.hpp"

namespace perfbench {

[[nodiscard]] std::string renderPost(const std::string& body);
[[nodiscard]] std::string renderGet(const std::string& path);

class HttpClient {
 public:
  HttpClient(pipesched::net::Endpoint endpoint, std::size_t connections);

  struct Response {
    std::size_t connection = 0;
    int status = 0;  ///< 0 when the connection failed before a full response
    std::string body;
  };

  [[nodiscard]] std::size_t connections() const noexcept { return conns_.size(); }
  /// Starts writing `request` on an idle connection (reconnecting first when
  /// the previous exchange broke it).
  void send(std::size_t connection, std::string request);
  /// Waits until `deadline` or until at least one response completes, and
  /// returns the completed responses.
  std::vector<Response> poll(Clock::time_point deadline);
  /// One blocking exchange on connection 0; returns the response.
  Response roundTrip(std::string request, double timeoutSeconds = 60);
  /// Drops every connection (abandoning in-flight requests).
  void reset();

 private:
  struct Conn {
    pipesched::net::Socket socket;
    std::string out;
    std::size_t written = 0;
    std::string in;
    bool busy = false;
  };
  void open(Conn& conn);
  /// Parses a complete response from conn.in; false when more bytes are due.
  static bool parseResponse(Conn& conn, Response& response);

  pipesched::net::Endpoint endpoint_;
  std::vector<Conn> conns_;
};

/// Open-loop run: POST `bodies[i]` at `dueSeconds[i]` (relative to the
/// start). Returns the book (due/sent/done per POST) and each response body.
/// POSTs not answered by `lastDue + drainSeconds` stay failed.
struct OpenLoopResult {
  std::vector<PostRecord> posts;
  std::vector<int> status;
  std::vector<std::string> bodies;
  std::size_t maxInFlight = 0;
  std::size_t backlogAtLastDue = 0;
};
[[nodiscard]] OpenLoopResult runOpenLoop(HttpClient& client, const std::vector<double>& dueSeconds,
                                         const std::vector<const std::string*>& bodies,
                                         double drainSeconds);

}  // namespace perfbench
