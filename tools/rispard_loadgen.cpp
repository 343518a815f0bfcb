// rispard_loadgen — the serving-path load generator and fourth gated bench.
//
// Sweeps connections × patterns × feed sizes against a rispard server (an
// in-process one on an ephemeral port by default, or --connect HOST:PORT),
// with every connection running one streaming-find session at pipeline
// depth 1: send FEED, await the FED ack, repeat. Reported per sweep point:
//
//   * p50 / p99 feed latency (send -> ack, measured per feed),
//   * aggregate feed throughput (bytes acked / wall time, all connections),
//   * dropped connections and error frames — both must be ZERO; any drop
//     fails the run (exit 1), which is the CI acceptance bar for "overload
//     surfaces as typed frames, never as resets".
//
// Results land in BENCH_rispard.json in google-benchmark JSON shape, so
// tools/bench_compare.py gates the trajectory exactly like the other three
// artifacts (>15% throughput loss or p99 growth in the "rispard" series
// fails CI; docs/perf.md, "The serving path").
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/prng.hpp"

using namespace rispar;
using namespace rispar::rispard;
using Clock = std::chrono::steady_clock;

namespace {

struct SweepPoint {
  std::size_t connections;
  std::size_t feed_bytes;
  std::size_t feeds_per_connection;
  std::size_t chunks;
  bool multi = false;  ///< whole-catalog multi-pattern sessions (--multi-pattern)
};

// The multi-tenant serving set; sessions round-robin over it.
const std::vector<std::string> kPatterns = {
    "level=(ERROR|FATAL) code=",
    "timeout=[0-9]+ms",
    "(GET|POST) /api/",
};

std::string synthetic_window(std::size_t bytes) {
  static const char* kUnits[] = {"disk", "net", "auth", "sched"};
  Prng prng(11);
  std::string text;
  std::size_t line = 0;
  while (text.size() < bytes) {
    text += "t=" + std::to_string(1000000 + line++) + " unit=";
    text += kUnits[prng.next_below(4)];
    switch (prng.next_below(24)) {
      case 0: text += " level=ERROR code=7"; break;
      case 1: text += " GET /api/users 200"; break;
      case 2: text += " timeout=250ms retrying"; break;
      default: text += " level=info ok"; break;
    }
    text += '\n';
  }
  text.resize(bytes);
  return text;
}

struct ClientConn {
  int fd = -1;
  FrameReader reader;
  std::string out;            // unsent request bytes
  std::size_t out_pos = 0;
  bool awaiting_ack = false;
  Clock::time_point sent_at{};
  std::size_t acks = 0;
  std::uint64_t matches = 0;
};

struct ThreadResult {
  std::vector<double> latencies_ms;
  std::uint64_t matches = 0;
  std::uint64_t errors = 0;
  std::uint64_t drops = 0;
};

int connect_blocking(std::uint16_t port) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    ::close(fd);
    // Transient refusals under a full accept backlog: back off and retry.
    std::this_thread::sleep_for(std::chrono::milliseconds(2 * (attempt + 1)));
  }
  return -1;
}

void queue_feed(ClientConn& conn, const std::string& window) {
  conn.out = make_feed(/*session_id=*/1, window);
  conn.out_pos = 0;
  conn.awaiting_ack = true;
  conn.sent_at = Clock::now();
}

/// Drives one thread's share of connections through the feed rounds:
/// depth-1 pipelining per connection, poll()-multiplexed, latency sampled
/// per FED ack.
void feed_phase(std::vector<ClientConn>& conns, const std::string& window,
                std::size_t rounds, ThreadResult& result) {
  std::size_t outstanding = 0;
  for (ClientConn& conn : conns) {
    queue_feed(conn, window);
    ++outstanding;
  }
  std::vector<pollfd> fds(conns.size());
  while (outstanding > 0) {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = static_cast<short>(
          (conns[i].fd >= 0 && conns[i].awaiting_ack ? POLLIN : 0) |
          (conns[i].fd >= 0 && conns[i].out_pos < conns[i].out.size() ? POLLOUT
                                                                      : 0));
      fds[i].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), 10000) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      ClientConn& conn = conns[i];
      if (conn.fd < 0) continue;
      const auto drop = [&] {
        ::close(conn.fd);
        conn.fd = -1;
        ++result.drops;
        if (conn.awaiting_ack) --outstanding;
      };
      if ((fds[i].revents & (POLLERR | POLLHUP)) != 0) {
        drop();
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) {
        while (conn.out_pos < conn.out.size()) {
          const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                                   conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
          if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            break;
          }
          conn.out_pos += static_cast<std::size_t>(n);
        }
      }
      if ((fds[i].revents & POLLIN) != 0) {
        char chunk[65536];
        const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          drop();
          continue;
        }
        if (n > 0) conn.reader.append(chunk, static_cast<std::size_t>(n));
        Frame frame;
        while (conn.fd >= 0 && conn.reader.next(frame)) {
          if (frame.type == FrameType::kMatches) {
            PayloadReader payload(frame.payload);
            payload.get_u32();
            result.matches += payload.get_u32();
          } else if (frame.type == FrameType::kFed) {
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          conn.sent_at)
                    .count();
            result.latencies_ms.push_back(ms);
            conn.awaiting_ack = false;
            --outstanding;
            if (++conn.acks < rounds) {
              queue_feed(conn, window);
              ++outstanding;
            }
          } else if (frame.type == FrameType::kError) {
            ++result.errors;
            conn.awaiting_ack = false;
            --outstanding;
          }
        }
      }
    }
  }
}

double percentile(std::vector<double>& values, double fraction) {
  if (values.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      fraction * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_blocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
}

// ------------------------------------------------------------- chaos mode
//
// --chaos is the durable-session acceptance harness, not a benchmark: it
// kills and resumes connections mid-feed and drains a server under load,
// then checks BYTE-EXACT equivalence — the matches committed across every
// kill/resume must equal one uninterrupted session's, for both begin modes
// and the multi-pattern form, and a SIGTERM-style drain must lose zero
// acked feeds while handing every open session a resumable checkpoint.

struct WireMatch {
  std::uint32_t pattern = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool operator==(const WireMatch& o) const {
    return pattern == o.pattern && begin == o.begin && end == o.end;
  }
};

struct ChaosScenario {
  const char* label;
  bool multi = false;
  std::uint32_t pattern_id = 0;  ///< single form only
  std::uint8_t flags = 0;        ///< kOpenFlagExactBegins for exact begins
};

/// One durable client session: matches commit only on their FED ack, so a
/// kill discards exactly the un-acked tail — the committed list is what the
/// equivalence check compares.
struct ChaosClient {
  int fd = -1;
  FrameReader reader;
  std::vector<WireMatch> committed;
  std::vector<WireMatch> uncommitted;  ///< matches since the last FED
  std::uint64_t acked_bytes = 0;       ///< FED `consumed` — authoritative
  std::string blob;                    ///< freshest checkpoint
  bool drained = false;                ///< a DRAINING frame arrived
};

void chaos_absorb(ChaosClient& client, const Frame& frame) {
  if (frame.type == FrameType::kMatches) {
    PayloadReader payload(frame.payload);
    payload.get_u32();  // session id
    const std::uint32_t count = payload.get_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      WireMatch m;
      m.pattern = payload.get_u32();
      m.begin = payload.get_u64();
      m.end = payload.get_u64();
      client.uncommitted.push_back(m);
    }
  } else if (frame.type == FrameType::kFed) {
    PayloadReader payload(frame.payload);
    payload.get_u32();
    client.acked_bytes = payload.get_u64();
    client.committed.insert(client.committed.end(), client.uncommitted.begin(),
                            client.uncommitted.end());
    client.uncommitted.clear();
  } else if (frame.type == FrameType::kDraining) {
    PayloadReader payload(frame.payload);
    const std::uint32_t session = payload.get_u32();
    if (session != kNoSession) client.blob = std::string(payload.rest());
    client.drained = true;
  }
}

/// Blocking pump until `wanted` (absorbing MATCHES/FED/DRAINING along the
/// way). Returns false on ERROR frames, EOF, or DRAINING when it is not the
/// wanted type — callers watching for drain check client.drained instead.
bool chaos_await(ChaosClient& client, FrameType wanted, Frame& frame) {
  while (recv_frame(client.fd, client.reader, frame)) {
    if (frame.type == wanted) return true;
    chaos_absorb(client, frame);
    if (frame.type == FrameType::kError) return false;
    if (client.drained) return false;
  }
  return false;
}

std::string chaos_open_frame(const ChaosScenario& sc) {
  return sc.multi ? make_open_session_multi(1, 0, 2, {}, sc.flags)
                  : make_open_session(1, sc.pattern_id, 0, 2, sc.flags);
}

ResumeSpec chaos_resume_spec(const ChaosScenario& sc, const std::string& blob) {
  ResumeSpec spec;
  spec.session_id = 1;
  if (!sc.multi) spec.pattern_ids = {sc.pattern_id};
  spec.chunks = 2;
  spec.flags = sc.flags;
  spec.checkpoint = blob;
  return spec;
}

/// Vanishes (no CLOSE, mid-whatever) and comes back: RESUME from the last
/// checkpoint, or a fresh OPEN when nothing was ever acked.
bool chaos_kill_and_resume(ChaosClient& client, std::uint16_t port,
                           const ChaosScenario& sc) {
  ::close(client.fd);
  client.fd = -1;
  client.reader = FrameReader();
  client.uncommitted.clear();
  if (client.blob.empty()) {
    client.fd = connect_backoff(port);
    if (client.fd < 0) return false;
    if (!send_all(client.fd, chaos_open_frame(sc))) return false;
    Frame frame;
    return chaos_await(client, FrameType::kOpened, frame);
  }
  client.fd =
      reconnect_and_resume(port, chaos_resume_spec(sc, client.blob), client.reader);
  return client.fd >= 0;
}

/// Feeds every window on session 1, killing the connection at prng-chosen
/// points (mid-feed and between feeds) when `kill_dice` > 0; kill_dice == 0
/// is the uninterrupted oracle. A checkpoint is taken after every ack so the
/// blob always covers exactly the acked prefix.
bool chaos_run(std::uint16_t port, const ChaosScenario& sc,
               const std::vector<std::string>& windows, std::uint64_t seed,
               int kill_dice, std::vector<WireMatch>& out) {
  ChaosClient client;
  client.fd = connect_backoff(port);
  if (client.fd < 0) return false;
  if (!send_all(client.fd, chaos_open_frame(sc))) return false;
  Frame frame;
  if (!chaos_await(client, FrameType::kOpened, frame)) return false;
  Prng prng(seed);
  std::size_t i = 0;
  while (i < windows.size()) {
    const std::uint64_t dice =
        kill_dice > 0 ? prng.next_below(static_cast<std::uint64_t>(kill_dice)) : 2;
    if (dice == 0) {
      // Mid-feed kill: the FEED goes out, the ack never comes back. The
      // resumed session re-feeds this window from the acked offset.
      send_all(client.fd, make_feed(1, windows[i]));
      if (!chaos_kill_and_resume(client, port, sc)) return false;
      continue;
    }
    if (!send_all(client.fd, make_feed(1, windows[i]))) return false;
    if (!chaos_await(client, FrameType::kFed, frame)) return false;
    chaos_absorb(client, frame);
    if (!send_all(client.fd, make_checkpoint(1))) return false;
    if (!chaos_await(client, FrameType::kCheckpointed, frame)) return false;
    client.blob = frame.payload.substr(4);  // {session, blob}
    ++i;
    if (dice == 1 && i < windows.size() &&
        !chaos_kill_and_resume(client, port, sc))
      return false;
  }
  if (!send_all(client.fd, make_close(1))) return false;
  if (!chaos_await(client, FrameType::kClosed, frame)) return false;
  // CLOSED carries matches_total — the resumed carries preserved the count
  // across every kill, so it must equal the committed list exactly.
  PayloadReader payload(frame.payload);
  payload.get_u32();
  const std::uint64_t total = payload.get_u64();
  ::close(client.fd);
  if (total != client.committed.size()) {
    std::fprintf(stderr,
                 "chaos[%s]: CLOSED matches_total=%llu but %zu were acked\n",
                 sc.label, static_cast<unsigned long long>(total),
                 client.committed.size());
    return false;
  }
  out = std::move(client.committed);
  return true;
}

/// Drain under load: clients feed depth-1 while the server drains; each must
/// come away with a resumable checkpoint covering exactly its acked bytes,
/// and resuming on a SECOND server must complete the stream byte-exact.
bool chaos_drain_scenario(bool quick) {
  const std::size_t kClients = quick ? 6 : 12;
  const std::size_t kWindows = quick ? 48 : 160;
  const std::string text = synthetic_window(kWindows * 1024);
  ServerConfig config;
  config.feed_workers = 3;
  config.drain_deadline_ms = 20000;  // the test wants completion, not cancels
  auto first = std::make_unique<Server>(kPatterns, config);
  const std::uint16_t port = first->port();
  std::thread first_thread([&] { first->run(); });

  std::vector<ChaosScenario> shapes(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    shapes[c].label = "drain";
    shapes[c].multi = c % 3 == 2;
    shapes[c].pattern_id = static_cast<std::uint32_t>(c % kPatterns.size());
    shapes[c].flags = c % 2 == 1 ? kOpenFlagExactBegins : std::uint8_t{0};
  }
  std::vector<ChaosClient> clients(kClients);
  std::vector<char> ok(kClients, 1);
  std::vector<std::thread> crew;
  crew.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    crew.emplace_back([&, c] {
      ChaosClient& client = clients[c];
      client.fd = connect_backoff(port);
      if (client.fd < 0) {
        ok[c] = 0;
        return;
      }
      Frame frame;
      if (!send_all(client.fd, chaos_open_frame(shapes[c])) ||
          !chaos_await(client, FrameType::kOpened, frame)) {
        ok[c] = 0;
        return;
      }
      std::size_t offset = 0;
      while (offset < text.size() && !client.drained) {
        const std::size_t len = std::min<std::size_t>(1024, text.size() - offset);
        if (!send_all(client.fd, make_feed(1, text.substr(offset, len)))) break;
        if (!chaos_await(client, FrameType::kFed, frame)) break;
        chaos_absorb(client, frame);
        offset += len;
      }
      // Ride out the drain: absorb until the terminal DRAINING / EOF. The
      // session DRAINING frame (with the blob) lands in chaos_absorb.
      while (recv_frame(client.fd, client.reader, frame)) chaos_absorb(client, frame);
      ::close(client.fd);
      client.fd = -1;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(quick ? 40 : 120));
  first->stop(true);  // the SIGTERM path: stop accepting, checkpoint, drain
  for (std::thread& t : crew) t.join();
  first_thread.join();
  const ServerCounters drained_counters = first->counters();
  first.reset();

  bool pass = drained_counters.draining;
  if (!pass) std::fprintf(stderr, "chaos[drain]: server never entered drain\n");
  // Finish every stream on a fresh server and hold it to the oracle.
  ServerConfig second_config;
  second_config.feed_workers = 3;
  auto second = std::make_unique<Server>(kPatterns, second_config);
  const std::uint16_t second_port = second->port();
  std::thread second_thread([&] { second->run(); });
  for (std::size_t c = 0; c < kClients; ++c) {
    ChaosClient& client = clients[c];
    if (ok[c] == 0 || client.blob.empty()) {
      std::fprintf(stderr,
                   "chaos[drain]: client %zu got no resumable checkpoint "
                   "(acked %llu bytes)\n",
                   c, static_cast<unsigned long long>(client.acked_bytes));
      pass = false;
      continue;
    }
    client.reader = FrameReader();
    client.uncommitted.clear();
    client.fd = reconnect_and_resume(second_port,
                                     chaos_resume_spec(shapes[c], client.blob),
                                     client.reader);
    if (client.fd < 0) {
      std::fprintf(stderr, "chaos[drain]: client %zu failed to resume\n", c);
      pass = false;
      continue;
    }
    Frame frame;
    bool finished = true;
    std::size_t offset = static_cast<std::size_t>(client.acked_bytes);
    while (offset < text.size()) {
      const std::size_t len = std::min<std::size_t>(4096, text.size() - offset);
      if (!send_all(client.fd, make_feed(1, text.substr(offset, len))) ||
          !chaos_await(client, FrameType::kFed, frame)) {
        finished = false;
        break;
      }
      chaos_absorb(client, frame);
      offset += len;
    }
    ::close(client.fd);
    client.fd = -1;
    if (!finished) {
      std::fprintf(stderr, "chaos[drain]: client %zu failed mid-resume\n", c);
      pass = false;
      continue;
    }
    std::vector<WireMatch> oracle;
    if (!chaos_run(second_port, shapes[c],
                   std::vector<std::string>{text}, /*seed=*/1, /*kill_dice=*/0,
                   oracle)) {
      std::fprintf(stderr, "chaos[drain]: oracle run %zu failed\n", c);
      pass = false;
      continue;
    }
    if (client.committed != oracle) {
      std::fprintf(stderr,
                   "chaos[drain]: client %zu diverged — %zu matches across the "
                   "drain vs %zu uninterrupted\n",
                   c, client.committed.size(), oracle.size());
      pass = false;
    }
  }
  second->stop();
  second_thread.join();
  std::printf("chaos[drain]: %zu clients, drained + resumed %s\n", kClients,
              pass ? "byte-exact" : "FAILED");
  return pass;
}

int run_chaos_suite(bool quick) {
  ServerConfig config;
  config.feed_workers = 3;
  auto server = std::make_unique<Server>(kPatterns, config);
  const std::uint16_t port = server->port();
  std::thread server_thread([&] { server->run(); });

  // Uneven windows so kills land at awkward offsets (mid-line, mid-match).
  const std::string text = synthetic_window(quick ? 24 * 1024 : 96 * 1024);
  Prng slicer(5);
  std::vector<std::string> windows;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t len =
        std::min<std::size_t>(1 + slicer.next_below(4096), text.size() - at);
    windows.push_back(text.substr(at, len));
    at += len;
  }

  const std::vector<ChaosScenario> scenarios = {
      {"single/separator", false, 1, 0},
      {"single/exact", false, 1, kOpenFlagExactBegins},
      {"multi/separator", true, 0, 0},
      {"multi/exact", true, 0, kOpenFlagExactBegins},
  };
  bool pass = true;
  const int seeds = quick ? 2 : 4;
  for (const ChaosScenario& sc : scenarios) {
    std::vector<WireMatch> oracle;
    if (!chaos_run(port, sc, windows, 1, /*kill_dice=*/0, oracle)) {
      std::fprintf(stderr, "chaos[%s]: oracle run failed\n", sc.label);
      pass = false;
      continue;
    }
    for (int seed = 0; seed < seeds; ++seed) {
      std::vector<WireMatch> survived;
      if (!chaos_run(port, sc, windows, 100 + static_cast<std::uint64_t>(seed),
                     /*kill_dice=*/4, survived)) {
        std::fprintf(stderr, "chaos[%s]: chaos run seed %d failed\n", sc.label,
                     seed);
        pass = false;
        continue;
      }
      if (survived != oracle) {
        std::fprintf(stderr,
                     "chaos[%s]: seed %d diverged — %zu matches vs %zu "
                     "uninterrupted\n",
                     sc.label, seed, survived.size(), oracle.size());
        pass = false;
      }
    }
    std::printf("chaos[%s]: %zu windows x %d seeds, %zu oracle matches %s\n",
                sc.label, windows.size(), seeds, oracle.size(),
                pass ? "ok" : "FAILED");
  }
  server->stop();
  server_thread.join();
  server.reset();

  if (!chaos_drain_scenario(quick)) pass = false;
  if (!pass) {
    std::fprintf(stderr,
                 "rispard_loadgen: CHAOS FAILED — kill/resume or drain broke "
                 "byte-exact equivalence (see above)\n");
    return 1;
  }
  std::printf("rispard_loadgen: chaos passed — resumed == uninterrupted, "
              "drain lost zero acked feeds\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool multi_pattern = false;
  bool chaos = false;
  std::string out_path = "BENCH_rispard.json";
  std::string connect_spec;
  unsigned client_threads = std::min(8u, std::thread::hardware_concurrency());
  if (client_threads == 0) client_threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--multi-pattern") {
      multi_pattern = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_spec = argv[++i];
    } else if (arg == "--client-threads" && i + 1 < argc) {
      client_threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--multi-pattern] [--chaos] "
                   "[--out FILE] [--connect HOST:PORT] [--client-threads N]\n"
                   "  --chaos runs the kill/resume + drain equivalence "
                   "harness instead of the benchmark sweep\n",
                   argv[0]);
      return 2;
    }
  }
  if (chaos) {
    if (!connect_spec.empty()) {
      std::fprintf(stderr,
                   "rispard_loadgen: --chaos drives in-process servers (it "
                   "must drain them); drop --connect\n");
      return 2;
    }
    return run_chaos_suite(quick);
  }

  // 1000 connections client-side + 1000 server-side in one process: lift
  // the descriptor soft cap before it masquerades as dropped connections.
  rlimit nofile{};
  if (getrlimit(RLIMIT_NOFILE, &nofile) == 0 && nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max;
    setrlimit(RLIMIT_NOFILE, &nofile);
  }

  std::vector<SweepPoint> sweep =
      quick ? std::vector<SweepPoint>{{64, 4096, 16, 1}, {1000, 4096, 6, 1}}
            : std::vector<SweepPoint>{{64, 4096, 64, 1},
                                      {256, 16384, 24, 4},
                                      {1000, 8192, 12, 2}};
  if (multi_pattern) {
    // Whole-catalog multi-pattern sessions: every connection matches all N
    // catalog patterns in one feed. A NEW JSON series ("/multi" names), so
    // bench_compare.py reports it without gating against the single-pattern
    // baseline — the expected cost is ~N searcher scans per window sharing
    // one merge.
    if (quick)
      sweep.push_back({64, 4096, 16, 1, /*multi=*/true});
    else
      sweep.push_back({256, 8192, 24, 2, /*multi=*/true});
  }

  std::unique_ptr<Server> server;
  std::thread server_thread;
  std::uint16_t port = 0;
  if (connect_spec.empty()) {
    ServerConfig config;
    config.feed_workers = 3;
    server = std::make_unique<Server>(kPatterns, config);
    port = server->port();
    server_thread = std::thread([&] { server->run(); });
  } else {
    const std::size_t colon = connect_spec.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--connect needs HOST:PORT\n");
      return 2;
    }
    port = static_cast<std::uint16_t>(
        std::strtoul(connect_spec.c_str() + colon + 1, nullptr, 10));
  }

  struct PointResult {
    SweepPoint point;
    double wall_seconds = 0;
    double p50_ms = 0, p99_ms = 0, mean_ms = 0;
    std::uint64_t feeds = 0, matches = 0, errors = 0, drops = 0;
    std::size_t opened = 0;
  };
  std::vector<PointResult> results;
  bool failed = false;

  for (const SweepPoint& point : sweep) {
    PointResult pr;
    pr.point = point;
    const std::string window = synthetic_window(point.feed_bytes);

    // Connect + open (blocking): one session per connection, patterns
    // round-robin over the multi-tenant set.
    std::vector<ClientConn> conns(point.connections);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      conns[i].fd = connect_blocking(port);
      if (conns[i].fd < 0) {
        ++pr.drops;
        continue;
      }
      if (point.multi) {
        // Empty id list = subscribe the tenant's whole catalog.
        send_all(conns[i].fd,
                 make_open_session_multi(1, /*feed_deadline_ns=*/0,
                                         static_cast<std::uint32_t>(point.chunks),
                                         /*pattern_ids=*/{}));
      } else {
        const std::uint32_t pattern_id =
            static_cast<std::uint32_t>(i % kPatterns.size());
        send_all(conns[i].fd,
                 make_open_session(1, pattern_id, /*feed_deadline_ns=*/0,
                                   static_cast<std::uint32_t>(point.chunks)));
      }
    }
    for (ClientConn& conn : conns) {
      if (conn.fd < 0) continue;
      Frame frame;
      if (!recv_frame(conn.fd, conn.reader, frame) ||
          frame.type != FrameType::kOpened) {
        ::close(conn.fd);
        conn.fd = -1;
        ++pr.drops;
        continue;
      }
      set_nonblocking(conn.fd);
      ++pr.opened;
    }

    // Feed phase, thread-partitioned.
    const unsigned threads = std::max(1u, std::min<unsigned>(
        client_threads, static_cast<unsigned>(conns.size())));
    std::vector<ThreadResult> shares(threads);
    std::vector<std::thread> crew;
    const auto t0 = Clock::now();
    for (unsigned t = 0; t < threads; ++t) {
      crew.emplace_back([&, t] {
        const std::size_t lo = conns.size() * t / threads;
        const std::size_t hi = conns.size() * (t + 1) / threads;
        std::vector<ClientConn> share(std::make_move_iterator(conns.begin() + lo),
                                      std::make_move_iterator(conns.begin() + hi));
        feed_phase(share, window, point.feeds_per_connection, shares[t]);
        std::move(share.begin(), share.end(), conns.begin() + lo);
      });
    }
    for (std::thread& t : crew) t.join();
    pr.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();

    // Close phase (blocking) — drops here count too.
    for (ClientConn& conn : conns) {
      if (conn.fd < 0) continue;
      set_blocking(conn.fd);
      send_all(conn.fd, make_close(1));
      Frame frame;
      bool closed = false;
      while (recv_frame(conn.fd, conn.reader, frame)) {
        if (frame.type == FrameType::kClosed) {
          closed = true;
          break;
        }
      }
      if (!closed) ++pr.drops;
      ::close(conn.fd);
      conn.fd = -1;
    }

    std::vector<double> latencies;
    for (ThreadResult& share : shares) {
      latencies.insert(latencies.end(), share.latencies_ms.begin(),
                       share.latencies_ms.end());
      pr.matches += share.matches;
      pr.errors += share.errors;
      pr.drops += share.drops;
    }
    pr.feeds = latencies.size();
    pr.p50_ms = percentile(latencies, 0.50);
    pr.p99_ms = percentile(latencies, 0.99);
    if (!latencies.empty()) {
      double sum = 0;
      for (double ms : latencies) sum += ms;
      pr.mean_ms = sum / static_cast<double>(latencies.size());
    }

    const double throughput =
        pr.wall_seconds > 0
            ? static_cast<double>(pr.feeds) *
                  static_cast<double>(point.feed_bytes) / pr.wall_seconds
            : 0;
    std::printf(
        "conns=%4zu%s feed=%6zuB x%-3zu  opened=%4zu feeds=%6llu  "
        "p50=%7.3fms p99=%7.3fms  %8.1f MB/s  matches=%llu errors=%llu "
        "drops=%llu\n",
        point.connections, point.multi ? " (multi)" : "", point.feed_bytes,
        point.feeds_per_connection,
        pr.opened, static_cast<unsigned long long>(pr.feeds), pr.p50_ms,
        pr.p99_ms, throughput / 1e6, static_cast<unsigned long long>(pr.matches),
        static_cast<unsigned long long>(pr.errors),
        static_cast<unsigned long long>(pr.drops));
    if (pr.drops > 0 || pr.errors > 0 || pr.opened != point.connections ||
        pr.feeds != pr.opened * point.feeds_per_connection)
      failed = true;
    results.push_back(std::move(pr));
  }

  if (server != nullptr) {
    server->stop();
    server_thread.join();
  }

  // google-benchmark JSON shape: bench_compare.py gates bytes_per_second
  // (higher is better) and p99_ms (lower is better) of the rispard series.
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"context\": {\"executable\": \"rispard_loadgen\", "
                    "\"quick\": %s},\n  \"benchmarks\": [\n",
               quick ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PointResult& pr = results[i];
    const double throughput =
        pr.wall_seconds > 0
            ? static_cast<double>(pr.feeds) *
                  static_cast<double>(pr.point.feed_bytes) / pr.wall_seconds
            : 0;
    std::fprintf(
        out,
        "    {\"name\": \"rispard_feed%s/conns:%zu/bytes:%zu\", "
        "\"label\": \"rispard/serving\", \"iterations\": %llu, "
        "\"real_time\": %.6f, \"time_unit\": \"ms\", "
        "\"bytes_per_second\": %.1f, \"p50_ms\": %.6f, \"p99_ms\": %.6f, "
        "\"connections\": %zu, \"dropped_connections\": %llu, "
        "\"error_frames\": %llu}%s\n",
        pr.point.multi ? "_multi" : "", pr.point.connections,
        pr.point.feed_bytes,
        static_cast<unsigned long long>(pr.feeds), pr.mean_ms, throughput,
        pr.p50_ms, pr.p99_ms, pr.point.connections,
        static_cast<unsigned long long>(pr.drops),
        static_cast<unsigned long long>(pr.errors),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  if (failed) {
    std::fprintf(stderr,
                 "rispard_loadgen: FAILED — dropped connections, error frames "
                 "or missing acks (see above); the serving acceptance bar is "
                 "zero of each\n");
    return 1;
  }
  std::printf("rispard_loadgen: all connections served, zero drops — wrote %s\n",
              out_path.c_str());
  return 0;
}
