// The rispard side of the probe suite: an in-process server on loopback and
// the open-loop client of the load-generator lag probe (one thread, several
// connections, FEEDs sent on a fixed schedule whatever the server's state).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "engine/query.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace perfbench {

/// A rispard serving `manifest` on an ephemeral loopback port, run on its
/// own thread; stopped and joined on destruction.
class LiveServer {
 public:
  explicit LiveServer(const std::string& manifest)
      : server_({manifest}, config()), thread_([this] { server_.run(); }) {}
  ~LiveServer() {
    server_.stop();
    thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
  std::uint16_t port() const { return server_.port(); }

 private:
  static rispar::rispard::ServerConfig config() {
    rispar::rispard::ServerConfig config;
    config.pool_threads = host_threads();
    return config;
  }
  rispar::rispard::Server server_;
  std::thread thread_;
};

/// A top-level number of a STATS_JSON object; -1 when the key is absent.
inline double stats_number(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  return at == std::string::npos ? -1.0 : std::stod(json.substr(at + key.size() + 3));
}

struct StreamPlan {
  std::uint16_t port = 0;
  std::string_view stream;  ///< what every session is fed, window by window
  std::size_t window_bytes = 4096;
  std::size_t connections = 1;
  std::uint32_t catalog_size = 0;
  /// One-shot PatternSet::find_all of the whole catalog over `stream`:
  /// [0] kSeparator, [1] kExact.
  const std::vector<rispar::Match>* expected[2] = {nullptr, nullptr};
};

class OpenLoopClient {
 public:
  /// Connects `plan.connections` sockets and opens three sessions on each:
  /// one single-pattern kSeparator, one single-pattern kExact and one
  /// whole-catalog session. Waits until every session is OPENED.
  OpenLoopClient(const StreamPlan& plan, Outcome& outcome);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Schedules `rate` feeds per second for `seconds`, round-robin over the
  /// sessions, then waits for every acknowledgement. Each session must
  /// have a window of the stream left for each feed it gets.
  void run(double rate, double seconds);
  /// Closes every session and checks its matches against the oracle.
  void finish();

  std::vector<double> lag_ms;  ///< how late each feed left the generator
  /// Single-pattern matches whose MATCHES frame did not carry the catalog
  /// pattern id that docs/rispard.md specifies.
  std::uint64_t mislabeled_matches = 0;

 private:
  struct Session {
    int kind = 0;  ///< 0 single kSeparator, 1 single kExact, 2 whole catalog
    std::uint32_t pattern = 0;
    std::size_t conn = 0;
    std::size_t windows_sent = 0;
    std::size_t windows_acked = 0;
    bool opened = false;
    bool closing = false;
    std::vector<rispar::Match> got;
  };
  struct Conn {
    int fd = -1;
    rispar::rispard::FrameReader reader;
    std::string out;
    std::size_t out_pos = 0;
  };

  void verify(std::uint32_t id, const Session& session);
  void flush(Conn& conn);
  /// Waits up to `timeout_ns` for socket activity, then handles every
  /// complete frame received.
  void pump(std::int64_t timeout_ns);
  void handle(const rispar::rispard::Frame& frame);
  /// Pumps until `done()` or the drain timeout; false on timeout.
  template <class Done>
  bool pump_until(Done done);

  const StreamPlan& plan_;
  Outcome& outcome_;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint32_t, Session> sessions_;
  std::vector<std::uint32_t> rotation_;  ///< session ids, feed order
  std::size_t next_in_rotation_ = 0;
  std::size_t unacked_ = 0;
};

}  // namespace perfbench
