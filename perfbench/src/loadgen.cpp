#include "loadgen.hpp"

#include <poll.h>

#include <cstdlib>
#include <cstring>
#include <ctime>
#include <stdexcept>

namespace perfbench {

namespace net = pipesched::net;

std::string renderPost(const std::string& body) {
  std::string r = "POST /solve HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-ndjson\r\n"
                  "Content-Length: ";
  r += std::to_string(body.size());
  r += "\r\n\r\n";
  r += body;
  return r;
}

std::string renderGet(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
}

HttpClient::HttpClient(net::Endpoint endpoint, std::size_t connections)
    : endpoint_(std::move(endpoint)), conns_(connections) {
  for (Conn& c : conns_) open(c);
}

void HttpClient::open(Conn& conn) {
  conn.socket = net::connectTcp(endpoint_, 5000);
  conn.socket.setNonBlocking(true);
  conn.in.clear();
  conn.out.clear();
  conn.written = 0;
  conn.busy = false;
}

void HttpClient::reset() {
  for (Conn& c : conns_) open(c);
}

void HttpClient::send(std::size_t connection, std::string request) {
  Conn& conn = conns_[connection];
  if (!conn.socket.valid()) open(conn);
  conn.out = std::move(request);
  conn.written = 0;
  conn.in.clear();
  conn.busy = true;
  // Most requests fit the socket buffer: try the write now, poll the rest.
  const net::IoResult r = conn.socket.write(conn.out.data(), conn.out.size());
  if (r.bytes > 0) conn.written = r.bytes;
}

bool HttpClient::parseResponse(Conn& conn, Response& response) {
  const std::size_t headerEnd = conn.in.find("\r\n\r\n");
  if (headerEnd == std::string::npos) return false;
  // "HTTP/1.1 200 OK"
  const std::size_t space = conn.in.find(' ');
  response.status = space == std::string::npos ? 0 : std::atoi(conn.in.c_str() + space + 1);
  std::size_t length = 0;
  std::size_t pos = conn.in.find("\r\n") + 2;
  while (pos < headerEnd) {
    const std::size_t eol = conn.in.find("\r\n", pos);
    const std::size_t colon = conn.in.find(':', pos);
    if (colon != std::string::npos && colon < eol && colon - pos == 14 &&
        strncasecmp(conn.in.c_str() + pos, "Content-Length", 14) == 0) {
      length = std::strtoull(conn.in.c_str() + colon + 1, nullptr, 10);
    }
    pos = eol + 2;
  }
  if (conn.in.size() < headerEnd + 4 + length) return false;
  response.body.assign(conn.in, headerEnd + 4, length);
  conn.in.clear();
  return true;
}

std::vector<HttpClient::Response> HttpClient::poll(Clock::time_point deadline) {
  std::vector<Response> done;
  std::vector<pollfd> fds;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const Conn& c = conns_[i];
    if (!c.busy) continue;
    short events = POLLIN;
    if (c.written < c.out.size()) events |= POLLOUT;
    fds.push_back(pollfd{c.socket.fd(), events, 0});
    index.push_back(i);
  }
  const auto now = Clock::now();
  const auto wait = deadline > now ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                                         deadline - now)
                                   : std::chrono::nanoseconds(0);
  const timespec timeout{static_cast<time_t>(wait.count() / 1000000000),
                         static_cast<long>(wait.count() % 1000000000)};
  const int n = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (n <= 0) return done;
  char buffer[1 << 16];
  for (std::size_t k = 0; k < fds.size(); ++k) {
    if (fds[k].revents == 0) continue;
    Conn& c = conns_[index[k]];
    bool broken = (fds[k].revents & (POLLERR | POLLNVAL)) != 0;
    if (!broken && (fds[k].revents & POLLOUT) && c.written < c.out.size()) {
      const net::IoResult w = c.socket.write(c.out.data() + c.written, c.out.size() - c.written);
      c.written += w.bytes;
      broken = w.error;
    }
    if (!broken && (fds[k].revents & (POLLIN | POLLHUP))) {
      for (;;) {
        const net::IoResult r = c.socket.read(buffer, sizeof buffer);
        if (r.bytes > 0) {
          c.in.append(buffer, r.bytes);
          continue;
        }
        broken = r.closed || r.error;
        break;
      }
    }
    Response response;
    response.connection = index[k];
    if (parseResponse(c, response)) {
      c.busy = false;
      done.push_back(std::move(response));
    } else if (broken) {
      c.busy = false;
      c.socket.close();
      done.push_back(std::move(response));  // status 0: failed exchange
    }
  }
  return done;
}

HttpClient::Response HttpClient::roundTrip(std::string request, double timeoutSeconds) {
  send(0, std::move(request));
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeoutSeconds));
  while (Clock::now() < deadline) {
    std::vector<Response> done = poll(deadline);
    if (!done.empty()) return std::move(done.front());
  }
  conns_[0].socket.close();
  conns_[0].busy = false;
  return Response{};
}

OpenLoopResult runOpenLoop(HttpClient& client, const std::vector<double>& dueSeconds,
                           const std::vector<const std::string*>& bodies, double drainSeconds) {
  OpenLoopBook book(dueSeconds, client.connections());
  OpenLoopResult result;
  result.status.assign(dueSeconds.size(), 0);
  result.bodies.resize(dueSeconds.size());
  const double lastDue = dueSeconds.empty() ? 0 : dueSeconds.back();
  const double giveUp = lastDue + drainSeconds;
  bool pastLastDue = false;
  const auto start = Clock::now();
  const auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  while (!book.finished()) {
    const double now = secondsSince(start);
    if (now > giveUp) break;
    for (const auto& [conn, post] : book.advance(now)) {
      client.send(conn, renderPost(*bodies[post]));
    }
    if (!pastLastDue && now >= lastDue) {
      pastLastDue = true;
      result.backlogAtLastDue = book.backlog();
    }
    const double wake = std::min({book.nextDue(), now + 0.05, giveUp});
    for (HttpClient::Response& r : client.poll(at(wake))) {
      const std::size_t post = book.postOn(r.connection);
      result.status[post] = r.status;
      result.bodies[post] = std::move(r.body);
      book.complete(r.connection, secondsSince(start), r.status == 200);
    }
  }
  if (!book.finished()) client.reset();  // abandon what the drain did not answer
  result.posts = book.posts();
  result.maxInFlight = book.maxInFlight();
  return result;
}

}  // namespace perfbench
