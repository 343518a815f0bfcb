// rispard server tests: wire protocol framing, session lifecycle against the
// Engine::find_all oracle, the typed error taxonomy over the socket path,
// hot reload (including a concurrent feed/reload hammer — these suites are
// named Rispard* so the TSan CI leg picks them up) and admission-controlled
// overload surfacing as RESOURCE_EXHAUSTED frames instead of dropped
// connections.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/checkpoint.hpp"
#include "engine/compile_cache.hpp"
#include "engine/engine.hpp"
#include "server/catalog.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace rispar::rispard {
namespace {

// ------------------------------------------------------------ protocol unit

TEST(RispardProtocol, FramesRoundTripThroughSplitDeliveries) {
  std::string stream;
  stream += make_open_session(7, 3, 1234567, 4);
  stream += make_feed(7, "hello feed bytes");
  stream += make_close(7);
  stream += make_stats();
  stream += make_reload("ab\nba\n");

  // Deliver one byte at a time: reassembly must be delivery-agnostic.
  FrameReader reader;
  std::vector<FrameType> types;
  Frame frame;
  for (char byte : stream) {
    reader.append(&byte, 1);
    while (reader.next(frame)) {
      types.push_back(frame.type);
      if (frame.type == FrameType::kOpenSession) {
        PayloadReader payload(frame.payload);
        EXPECT_EQ(payload.get_u32(), 7u);        // session id
        EXPECT_EQ(payload.get_u64(), 1234567u);  // feed deadline
        EXPECT_EQ(payload.get_u32(), 4u);        // chunks
        EXPECT_EQ(payload.get_u8(), 0u);         // flags
        EXPECT_EQ(payload.get_u32(), 1u);        // one catalog id ...
        EXPECT_EQ(payload.get_u32(), 3u);        // ... pattern 3
        EXPECT_TRUE(payload.exhausted());
      } else if (frame.type == FrameType::kFeed) {
        PayloadReader payload(frame.payload);
        EXPECT_EQ(payload.get_u32(), 7u);
        EXPECT_EQ(payload.rest(), "hello feed bytes");
      } else if (frame.type == FrameType::kReload) {
        EXPECT_EQ(frame.payload, "ab\nba\n");
      }
    }
  }
  EXPECT_EQ(types,
            (std::vector<FrameType>{FrameType::kOpenSession, FrameType::kFeed,
                                    FrameType::kClose, FrameType::kStats,
                                    FrameType::kReload}));
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(RispardProtocol, TruncatedFrameStaysPending) {
  const std::string whole = make_feed(1, "0123456789");
  FrameReader reader;
  reader.append(whole.data(), whole.size() - 3);
  Frame frame;
  EXPECT_FALSE(reader.next(frame));
  EXPECT_FALSE(reader.overflowed());
  EXPECT_GT(reader.pending(), 0u);
  reader.append(whole.data() + whole.size() - 3, 3);
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, FrameType::kFeed);
}

TEST(RispardProtocol, OversizedLengthPrefixIsAHardError) {
  std::string header;
  put_u32(header, kMaxFramePayload + 1);
  put_u8(header, static_cast<std::uint8_t>(FrameType::kFeed));
  FrameReader reader;
  reader.append(header.data(), header.size());
  Frame frame;
  EXPECT_FALSE(reader.next(frame));
  EXPECT_TRUE(reader.overflowed());
}

TEST(RispardProtocol, PayloadReaderFlagsUnderrunAndTrailingGarbage) {
  std::string payload;
  put_u32(payload, 9);
  PayloadReader underrun(payload);
  underrun.get_u32();
  underrun.get_u64();  // 4 bytes short
  EXPECT_FALSE(underrun.ok);
  EXPECT_FALSE(underrun.exhausted());

  PayloadReader trailing(payload);
  // Nothing read: the whole payload is trailing garbage.
  EXPECT_FALSE(trailing.exhausted());
  EXPECT_EQ(trailing.get_u32(), 9u);
  EXPECT_TRUE(trailing.exhausted());
}

// --------------------------------------------------------------- harnesses

/// An in-process server on an ephemeral port, running until destruction.
struct ServerHarness {
  std::unique_ptr<Server> server;
  std::thread thread;

  explicit ServerHarness(std::vector<std::string> regexes, ServerConfig config = {})
      : server(std::make_unique<Server>(std::move(regexes), std::move(config))) {
    thread = std::thread([this] { server->run(); });
  }
  ~ServerHarness() {
    server->stop();
    thread.join();
  }
  std::uint16_t port() const { return server->port(); }
};

/// A blocking client connection speaking the protocol helpers.
struct Client {
  int fd = -1;
  FrameReader reader;

  explicit Client(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      fd = -1;
    } else {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
  }
  ~Client() {
    if (fd >= 0) ::close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool send(std::string_view bytes) { return send_all(fd, bytes); }
  bool recv(Frame& frame) { return recv_frame(fd, reader, frame); }

  /// OPEN_SESSION and parse the OPENED ack; returns the serving generation
  /// (0 on failure, generations start at 1).
  std::uint64_t open(std::uint32_t sid, std::uint32_t pid,
                     std::uint64_t deadline_ns = 0, std::uint32_t chunks = 2) {
    if (!send(make_open_session(sid, pid, deadline_ns, chunks))) return 0;
    Frame frame;
    if (!recv(frame) || frame.type != FrameType::kOpened) return 0;
    PayloadReader payload(frame.payload);
    EXPECT_EQ(payload.get_u32(), sid);
    return payload.get_u64();
  }

  struct FeedOutcome {
    bool ok = false;
    ErrorCode error{};            // valid when !ok
    std::vector<Match> matches;   // absolute offsets
    std::uint64_t consumed_total = 0;
    std::uint64_t matches_total = 0;
  };

  /// FEED and collect MATCHES* until the FED ack (or one ERROR frame).
  FeedOutcome feed(std::uint32_t sid, std::string_view bytes) {
    FeedOutcome outcome;
    if (!send(make_feed(sid, bytes))) return outcome;
    Frame frame;
    for (;;) {
      if (!recv(frame)) return outcome;
      if (frame.type == FrameType::kMatches) {
        PayloadReader payload(frame.payload);
        EXPECT_EQ(payload.get_u32(), sid);
        const std::uint32_t count = payload.get_u32();
        for (std::uint32_t i = 0; i < count; ++i) {
          Match m;
          m.pattern_id = payload.get_u32();
          m.begin = payload.get_u64();
          m.end = payload.get_u64();
          outcome.matches.push_back(m);
        }
        EXPECT_TRUE(payload.exhausted());
        continue;
      }
      if (frame.type == FrameType::kFed) {
        PayloadReader payload(frame.payload);
        EXPECT_EQ(payload.get_u32(), sid);
        outcome.consumed_total = payload.get_u64();
        outcome.matches_total = payload.get_u64();
        outcome.ok = true;
        return outcome;
      }
      if (frame.type == FrameType::kError) {
        PayloadReader payload(frame.payload);
        EXPECT_EQ(payload.get_u32(), sid);
        outcome.error = static_cast<ErrorCode>(payload.get_u8());
        return outcome;
      }
      ADD_FAILURE() << "unexpected frame type 0x" << std::hex
                    << static_cast<unsigned>(frame.type);
      return outcome;
    }
  }

  /// CLOSE and parse the CLOSED ack; returns matches_total (or nullopt-ish
  /// UINT64_MAX on failure).
  std::uint64_t close_session(std::uint32_t sid) {
    if (!send(make_close(sid))) return UINT64_MAX;
    Frame frame;
    if (!recv(frame) || frame.type != FrameType::kClosed) return UINT64_MAX;
    PayloadReader payload(frame.payload);
    EXPECT_EQ(payload.get_u32(), sid);
    return payload.get_u64();
  }

  /// The ERROR frame expected next on the wire (failing the test otherwise).
  ErrorCode expect_error(std::uint32_t sid) {
    Frame frame;
    if (!recv(frame) || frame.type != FrameType::kError) {
      ADD_FAILURE() << "expected an ERROR frame";
      return ErrorCode::kInternal;
    }
    PayloadReader payload(frame.payload);
    EXPECT_EQ(payload.get_u32(), sid);
    return static_cast<ErrorCode>(payload.get_u8());
  }
};

// ---------------------------------------------------------------- sessions

TEST(RispardServer, StreamedMatchesAgreeWithFindAllAcrossWindows) {
  ServerHarness harness({"ab", "(a|b)*c"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);

  std::string text;
  for (int i = 0; i < 300; ++i) text += (i % 7 == 0) ? "xaby" : "aabbc";
  const Engine oracle(Pattern::compile("ab"));
  const std::vector<Match> expected = oracle.find_all(text);
  ASSERT_FALSE(expected.empty());

  ASSERT_EQ(client.open(/*sid=*/42, /*pid=*/0), 1u);
  // Window size 13 forces matches to straddle window boundaries; offsets in
  // MATCHES frames must still be absolute stream offsets.
  std::vector<Match> streamed;
  for (std::size_t offset = 0; offset < text.size(); offset += 13) {
    const auto outcome =
        client.feed(42, std::string_view(text).substr(offset, 13));
    ASSERT_TRUE(outcome.ok);
    streamed.insert(streamed.end(), outcome.matches.begin(),
                    outcome.matches.end());
  }
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed[i].begin, expected[i].begin) << "match " << i;
    EXPECT_EQ(streamed[i].end, expected[i].end) << "match " << i;
    EXPECT_EQ(streamed[i].pattern_id, 0u);
  }
  EXPECT_EQ(client.close_session(42), expected.size());
}

TEST(RispardServer, OneConnectionMultiplexesSessionsOnDifferentPatterns) {
  ServerHarness harness({"ab", "ba"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);

  ASSERT_EQ(client.open(1, 0), 1u);
  ASSERT_EQ(client.open(2, 1), 1u);
  const std::string text = "abbaabba";
  const auto on_ab = client.feed(1, text);
  const auto on_ba = client.feed(2, text);
  ASSERT_TRUE(on_ab.ok);
  ASSERT_TRUE(on_ba.ok);
  const Engine ab(Pattern::compile("ab"));
  const Engine ba(Pattern::compile("ba"));
  EXPECT_EQ(on_ab.matches_total, ab.find_all(text).size());
  EXPECT_EQ(on_ba.matches_total, ba.find_all(text).size());
  EXPECT_EQ(client.close_session(1), on_ab.matches_total);
  EXPECT_EQ(client.close_session(2), on_ba.matches_total);
}

TEST(RispardServer, SinglePatternMatchesCarryTheCatalogId) {
  // docs/rispard.md: every MATCHES frame tags the catalog id, also for a
  // session bound to one pattern other than the first.
  ServerHarness harness({"ab", "ba"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);

  ASSERT_EQ(client.open(/*sid=*/5, /*pid=*/1), 1u);
  std::string text;
  for (int i = 0; i < 100; ++i) text += (i % 3 == 0) ? "xbay" : "abba";
  const std::vector<Match> expected = Engine(Pattern::compile("ba")).find_all(text);
  ASSERT_FALSE(expected.empty());
  std::vector<Match> streamed;
  for (std::size_t offset = 0; offset < text.size(); offset += 17) {
    const auto outcome = client.feed(5, std::string_view(text).substr(offset, 17));
    ASSERT_TRUE(outcome.ok);
    streamed.insert(streamed.end(), outcome.matches.begin(), outcome.matches.end());
  }
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed[i].pattern_id, 1u) << "match " << i;
    EXPECT_EQ(streamed[i].begin, expected[i].begin) << "match " << i;
    EXPECT_EQ(streamed[i].end, expected[i].end) << "match " << i;
  }
  EXPECT_EQ(client.close_session(5), expected.size());
}

TEST(RispardServer, CountersTrackServing) {
  ServerHarness harness({"ab"});
  {
    Client client(harness.port());
    ASSERT_GE(client.fd, 0);
    ASSERT_EQ(client.open(1, 0), 1u);
    ASSERT_TRUE(client.feed(1, "xxabxx").ok);
    client.close_session(1);
  }
  const ServerCounters counters = harness.server->counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.sessions_opened, 1u);
  EXPECT_EQ(counters.sessions_open, 0u);
  EXPECT_EQ(counters.feeds, 1u);
  EXPECT_EQ(counters.bytes_fed, 6u);
  EXPECT_EQ(counters.matches_emitted, 1u);
}

// ------------------------------------------------------------ typed errors

TEST(RispardErrors, UnknownPatternUnknownSessionDuplicateSession) {
  ServerHarness harness({"ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);

  // Pattern id past the catalog.
  ASSERT_TRUE(client.send(make_open_session(1, 99, 0, 1)));
  EXPECT_EQ(client.expect_error(1), ErrorCode::kUnknownPattern);

  // FEED/CLOSE for a session never opened.
  ASSERT_TRUE(client.send(make_feed(5, "abc")));
  EXPECT_EQ(client.expect_error(5), ErrorCode::kUnknownSession);
  ASSERT_TRUE(client.send(make_close(5)));
  EXPECT_EQ(client.expect_error(5), ErrorCode::kUnknownSession);

  // Reusing a live session id.
  ASSERT_EQ(client.open(1, 0), 1u);
  ASSERT_TRUE(client.send(make_open_session(1, 0, 0, 1)));
  EXPECT_EQ(client.expect_error(1), ErrorCode::kSessionExists);

  // The connection survived all of it.
  EXPECT_TRUE(client.feed(1, "xxabxx").ok);
  EXPECT_EQ(client.close_session(1), 1u);
}

TEST(RispardErrors, ReservedSessionIdIsRejected) {
  ServerHarness harness({"ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.send(make_open_session(kNoSession, 0, 0, 1)));
  EXPECT_EQ(client.expect_error(kNoSession), ErrorCode::kValidation);
}

TEST(RispardErrors, SessionCapYieldsTooManySessions) {
  ServerConfig config;
  config.max_sessions_per_connection = 2;
  ServerHarness harness({"ab"}, config);
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_EQ(client.open(1, 0), 1u);
  ASSERT_EQ(client.open(2, 0), 1u);
  ASSERT_TRUE(client.send(make_open_session(3, 0, 0, 1)));
  EXPECT_EQ(client.expect_error(3), ErrorCode::kTooManySessions);
  // Closing one frees a slot.
  client.close_session(1);
  EXPECT_EQ(client.open(3, 0), 1u);
}

TEST(RispardErrors, MalformedFrameDrawsProtocolErrorThenClose) {
  ServerHarness harness({"ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);
  std::string bogus;
  put_frame(bogus, static_cast<FrameType>(0x6f), "junk");
  ASSERT_TRUE(client.send(bogus));
  Frame frame;
  ASSERT_TRUE(client.recv(frame));
  ASSERT_EQ(frame.type, FrameType::kError);
  PayloadReader payload(frame.payload);
  EXPECT_EQ(payload.get_u32(), kNoSession);
  EXPECT_EQ(static_cast<ErrorCode>(payload.get_u8()), ErrorCode::kProtocol);
  // After a protocol error the server closes: next read is EOF.
  EXPECT_FALSE(client.recv(frame));
  EXPECT_GE(harness.server->counters().protocol_errors, 1u);
}

TEST(RispardErrors, HostileOpenAndResumePayloadsGetTypedErrors) {
  // OPEN_SESSION/RESUME_SESSION payloads: {session_id, u64 deadline,
  // u32 chunks, u8 flags, u32 count, count x u32 id} (+ blob on RESUME).
  const auto payload = [](std::uint8_t flags, std::uint32_t count,
                          std::vector<std::uint32_t> ids) {
    std::string out;
    put_u32(out, 1);   // session id
    put_u64(out, 0);   // deadline
    put_u32(out, 2);   // chunks
    put_u8(out, flags);
    put_u32(out, count);
    for (const std::uint32_t id : ids) put_u32(out, id);
    return out;
  };
  const auto frame = [](FrameType type, std::string body) {
    std::string out;
    put_frame(out, type, body);
    return out;
  };
  // The pre-unification single-pattern layout: {session_id, pattern_id,
  // deadline, chunks [, flags]}.
  const auto legacy_open = [](std::uint32_t chunks, bool with_flags) {
    std::string out;
    put_u32(out, 1);  // session id
    put_u32(out, 0);  // pattern id
    put_u64(out, 0);  // deadline
    put_u32(out, chunks);
    if (with_flags) put_u8(out, kOpenFlagExactBegins);
    return out;
  };
  std::string no_flags;
  put_u32(no_flags, 1);
  put_u64(no_flags, 0);
  put_u32(no_flags, 2);
  // A checksum-valid checkpoint of "ab" whose live find carry claims a
  // searcher state far outside the machine.
  const Pattern ab = Pattern::compile("ab");
  FindCarry forged;
  forged.state = 50'000'000;
  forged.at_start = false;
  forged.consumed = 2;
  const std::string forged_blob =
      checkpoint::encode(nullptr, 2, std::span(&forged, 1), {.positions = true},
                         checkpoint::fleet_fingerprint(std::span(&ab, 1)));

  struct Case {
    const char* name;
    std::vector<std::string> catalog;
    std::string frame;
    ErrorCode code;
  };
  const std::vector<Case> cases = {
      {"flags byte missing", {"ab"}, frame(FrameType::kOpenSession, no_flags),
       ErrorCode::kProtocol},
      {"count runs past the payload", {"ab"},
       frame(FrameType::kOpenSession, payload(0, 3, {0})), ErrorCode::kProtocol},
      {"count below the ids present", {"ab"},
       frame(FrameType::kOpenSession, payload(0, 1, {0, 0})), ErrorCode::kProtocol},
      {"resume count runs past the payload", {"ab"},
       frame(FrameType::kResumeSession, payload(0, 1000, {0})),
       ErrorCode::kProtocol},
      {"legacy single-pattern layout", {"ab"},
       frame(FrameType::kOpenSession, legacy_open(2, false)), ErrorCode::kProtocol},
      {"legacy layout with flags", {"ab"},
       frame(FrameType::kOpenSession, legacy_open(2, true)), ErrorCode::kProtocol},
      {"unknown flag bit", {"ab"},
       frame(FrameType::kOpenSession, payload(0x80, 1, {0})), ErrorCode::kValidation},
      {"id outside the catalog", {"ab", "ba"},
       frame(FrameType::kOpenSession, payload(0, 2, {1, 2})),
       ErrorCode::kUnknownPattern},
      {"resume id outside the catalog", {"ab"},
       frame(FrameType::kResumeSession, payload(0, 1, {7}) + "blob"),
       ErrorCode::kUnknownPattern},
      {"whole catalog of an empty catalog", {},
       frame(FrameType::kOpenSession, payload(0, 0, {})), ErrorCode::kValidation},
      {"resume blob is garbage", {"ab"},
       frame(FrameType::kResumeSession, payload(0, 1, {0}) + "not a blob"),
       ErrorCode::kValidation},
      {"resume blob forges a find state", {"ab"},
       frame(FrameType::kResumeSession, payload(0, 1, {0}) + forged_blob),
       ErrorCode::kValidation},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ServerHarness harness(c.catalog);
    Client client(harness.port());
    ASSERT_GE(client.fd, 0);
    ASSERT_TRUE(client.send(c.frame));
    Frame reply;
    ASSERT_TRUE(client.recv(reply));
    ASSERT_EQ(reply.type, FrameType::kError);
    PayloadReader error(reply.payload);
    const std::uint32_t sid = error.get_u32();
    EXPECT_EQ(static_cast<ErrorCode>(error.get_u8()), c.code);
    if (c.code == ErrorCode::kProtocol) {
      EXPECT_EQ(sid, kNoSession);
      EXPECT_FALSE(client.recv(reply));  // malformed frames close the connection
    } else {
      EXPECT_EQ(sid, 1u);
      // A typed reject leaves the connection serving, the next session
      // included.
      ASSERT_TRUE(client.send(make_stats()));
      ASSERT_TRUE(client.recv(reply));
      EXPECT_EQ(reply.type, FrameType::kStatsJson);
      if (c.catalog.empty()) continue;
      ASSERT_NE(client.open(2, 0), 0u);
      const auto fed = client.feed(2, "xab");
      ASSERT_TRUE(fed.ok);
      EXPECT_EQ(fed.matches_total, 1u);
    }
  }
}

TEST(RispardErrors, DeadlineExceededPoisonsThenReopenRecovers) {
  ServerHarness harness({"(ab|ba|aa|bb)*ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);

  // A 1ns budget has always already expired by the first governor
  // checkpoint; big window + chunking so the feed crosses checkpoints.
  ASSERT_EQ(client.open(1, 0, /*deadline_ns=*/1, /*chunks=*/4), 1u);
  std::string window;
  for (int i = 0; i < 40000; ++i) window += "ab";
  const auto doomed = client.feed(1, window);
  ASSERT_FALSE(doomed.ok);
  EXPECT_EQ(doomed.error, ErrorCode::kDeadlineExceeded);

  // The failed feed poisoned the StreamSession (library contract): further
  // feeds surface ValidationError as typed frames, still no disconnect.
  const auto poisoned = client.feed(1, "ab");
  ASSERT_FALSE(poisoned.ok);
  EXPECT_EQ(poisoned.error, ErrorCode::kValidation);

  // CLOSE + reopen on the same id is the documented recovery path.
  client.close_session(1);
  ASSERT_EQ(client.open(1, 0, /*deadline_ns=*/0, /*chunks=*/2), 1u);
  const auto healthy = client.feed(1, "xxabxx");
  ASSERT_TRUE(healthy.ok);
  EXPECT_EQ(healthy.matches_total, 1u);
  EXPECT_GE(harness.server->counters().error_frames, 2u);
}

// ------------------------------------------------------------------- stats

TEST(RispardStats, StatsJsonCarriesServerAndPoolCounters) {
  ServerHarness harness({"ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_EQ(client.open(1, 0), 1u);
  ASSERT_TRUE(client.feed(1, "abab").ok);

  ASSERT_TRUE(client.send(make_stats()));
  Frame frame;
  ASSERT_TRUE(client.recv(frame));
  ASSERT_EQ(frame.type, FrameType::kStatsJson);
  const std::string json(frame.payload);
  for (const char* key :
       {"\"generation\":1", "\"patterns\":1", "\"sessions_open\":1",
        "\"feeds\":1", "\"bytes_fed\":4", "\"pool\"", "\"executed\"",
        "\"rejected\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
  }
}

// ------------------------------------------------------------------ reload

TEST(RispardReload, SwapsGenerationsWithoutDisturbingOpenSessions) {
  ServerHarness harness({"ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);

  // Session opened on generation 1 = /ab/.
  ASSERT_EQ(client.open(1, 0), 1u);
  ASSERT_EQ(client.feed(1, "abba").matches_total, 1u);

  // Swap to /ba/ (generation 2).
  ASSERT_TRUE(client.send(make_reload("# swap\nba\n")));
  Frame frame;
  ASSERT_TRUE(client.recv(frame));
  ASSERT_EQ(frame.type, FrameType::kReloaded);
  PayloadReader payload(frame.payload);
  EXPECT_EQ(payload.get_u64(), 2u);
  EXPECT_EQ(payload.get_u32(), 1u);
  EXPECT_EQ(harness.server->generation(), 2u);

  // The in-flight session still serves the set it opened with: "xaby" holds
  // one /ab/ and zero /ba/, so a total of 2 proves the old engine answered.
  ASSERT_EQ(client.feed(1, "xaby").matches_total, 2u);

  // New sessions serve generation 2.
  ASSERT_EQ(client.open(2, 0), 2u);
  ASSERT_EQ(client.feed(2, "xbay").matches_total, 1u);
  ASSERT_EQ(client.feed(2, "xaby").matches_total, 1u);  // /ba/ ignores "ab"
  client.close_session(1);
  client.close_session(2);
  EXPECT_EQ(harness.server->counters().reloads, 1u);
}

TEST(RispardReload, BadManifestKeepsTheOldSetServing) {
  ServerHarness harness({"ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_EQ(client.open(1, 0), 1u);

  ASSERT_TRUE(client.send(make_reload("(unclosed\n")));
  EXPECT_EQ(client.expect_error(kNoSession), ErrorCode::kBadManifest);
  ASSERT_TRUE(client.send(make_reload("")));  // no manifest file configured
  EXPECT_EQ(client.expect_error(kNoSession), ErrorCode::kBadManifest);
  EXPECT_EQ(harness.server->generation(), 1u);

  EXPECT_EQ(client.feed(1, "xxabxx").matches_total, 1u);
  EXPECT_EQ(harness.server->counters().reloads, 0u);
}

TEST(RispardReload, RetiredGenerationIsFreedWhenItsLastSessionCloses) {
  ServerHarness harness({"ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);

  const std::weak_ptr<const PatternCatalog> gen1 = harness.server->catalog_handle();
  ASSERT_EQ(client.open(1, 0), 1u);  // pins generation 1

  ASSERT_TRUE(client.send(make_reload("ba\n")));
  Frame frame;
  ASSERT_TRUE(client.recv(frame));
  ASSERT_EQ(frame.type, FrameType::kReloaded);

  // Retired but pinned: the session holds generation 1 alive.
  EXPECT_NE(gen1.lock(), nullptr);
  ASSERT_TRUE(client.feed(1, "ab").ok);

  // Last pin drops at close; destruction happens on the server side of the
  // CLOSED ack, so allow a short grace period.
  client.close_session(1);
  for (int i = 0; i < 200 && !gen1.expired(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(gen1.expired());
}

// ISSUE 8 satellite: an UNCHANGED manifest reload is served from the compile
// cache — every line is a hit (shared_ptr bump), no recompilation — and the
// cache counters are observable over the socket via STATS_JSON.
TEST(RispardReload, UnchangedManifestReloadServesFromTheCompileCache) {
  ServerHarness harness({"ab", "a[0-9]+b"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);

  const auto cache_stats = [&] { return harness.server->compile_cache()->stats(); };
  // Seeding compiled both lines through the cache: two misses, no hits.
  EXPECT_EQ(cache_stats().misses, 2u);
  EXPECT_EQ(cache_stats().hits, 0u);

  // Reload the exact same manifest: generation bumps, both lines hit.
  ASSERT_TRUE(client.send(make_reload("ab\na[0-9]+b\n")));
  Frame frame;
  ASSERT_TRUE(client.recv(frame));
  ASSERT_EQ(frame.type, FrameType::kReloaded);
  EXPECT_EQ(cache_stats().misses, 2u);
  EXPECT_EQ(cache_stats().hits, 2u);

  // And the new generation serves correctly.
  ASSERT_EQ(client.open(1, 1), 2u);
  EXPECT_EQ(client.feed(1, "xa42by").matches_total, 1u);

  // The counters surface over the wire too (the fleet's observability path).
  ASSERT_TRUE(client.send(make_stats()));
  ASSERT_TRUE(client.recv(frame));
  ASSERT_EQ(frame.type, FrameType::kStatsJson);
  const std::string json(frame.payload);
  EXPECT_NE(json.find("\"compile_cache\":{\"hits\":2,\"misses\":2"),
            std::string::npos)
      << json;
}

// ISSUE 8 satellite: a manifest line may name a .rpb bundle; its patterns
// expand in place (zero-copy mapped) and repeated reloads of the unchanged
// file are cache hits keyed on the bundle's (mtime, size) identity.
TEST(RispardReload, BundleManifestEntryServesMappedPatterns) {
  const std::string bundle_path = ::testing::TempDir() + "rispard_manifest_" +
                                  std::to_string(::getpid()) + ".rpb";
  {
    const std::vector<Pattern> patterns = {Pattern::compile("cd+"),
                                           Pattern::compile("[xy]z")};
    Pattern::save_bundle_many(bundle_path, patterns);
  }

  ServerHarness harness({"ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);

  const std::string manifest = "ab\n" + bundle_path + "\n";
  Frame frame;
  ASSERT_TRUE(client.send(make_reload(manifest)));
  ASSERT_TRUE(client.recv(frame));
  ASSERT_EQ(frame.type, FrameType::kReloaded);
  {
    PayloadReader payload(frame.payload);
    EXPECT_EQ(payload.get_u64(), 2u);  // generation
    EXPECT_EQ(payload.get_u32(), 3u);  // ab + two bundle patterns
  }

  // Pattern ids keep line-then-bundle order: 0 = /ab/, 1 = /cd+/, 2 = /[xy]z/.
  ASSERT_EQ(client.open(1, 1), 2u);
  EXPECT_EQ(client.feed(1, "acda").matches_total, 1u);
  ASSERT_EQ(client.open(2, 2), 2u);
  EXPECT_EQ(client.feed(2, "wxz yz").matches_total, 2u);

  // Unchanged file ⇒ reload hits the cache for both bundle patterns.
  const auto before = harness.server->compile_cache()->stats();
  ASSERT_TRUE(client.send(make_reload(manifest)));
  ASSERT_TRUE(client.recv(frame));
  ASSERT_EQ(frame.type, FrameType::kReloaded);
  const auto after = harness.server->compile_cache()->stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits + 3);

  std::error_code ec;
  std::filesystem::remove(bundle_path, ec);
}

// The concurrent hammer the issue asks for: feeds racing RELOAD swaps. Runs
// under the TSan CI leg (suite name matches Rispard*). In-flight sessions
// must keep serving the generation they opened with; every swap is atomic
// (no torn catalogs); nothing disconnects.
TEST(RispardReloadHammer, FeedsRaceReloadsWithoutTearing) {
  ServerHarness harness({"ab"});
  const std::uint16_t port = harness.port();

  // Generation g serves /ab/ when odd, /ba/ when even (the reloader
  // alternates manifests), so a session's expected totals follow from the
  // generation its OPENED ack reported.
  std::string text;
  for (int i = 0; i < 64; ++i) text += "abbaab";
  const std::size_t expect_ab = Engine(Pattern::compile("ab")).find_all(text).size();
  const std::size_t expect_ba = Engine(Pattern::compile("ba")).find_all(text).size();

  constexpr int kClients = 4;
  constexpr int kIterations = 25;
  constexpr int kReloads = 40;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(port);
      if (client.fd < 0) {
        ++failures;
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        const std::uint32_t sid = static_cast<std::uint32_t>(c * 1000 + i);
        const std::uint64_t generation = client.open(sid, 0);
        if (generation == 0) {
          ++failures;
          return;
        }
        // Feed in three windows so the session outlives several swaps.
        bool fed = true;
        for (std::size_t offset = 0; offset < text.size(); offset += 128)
          fed = fed &&
                client.feed(sid, std::string_view(text).substr(offset, 128)).ok;
        const std::uint64_t total = client.close_session(sid);
        if (!fed || total == UINT64_MAX) {
          ++failures;
          return;
        }
        const std::size_t expected =
            (generation % 2 == 1) ? expect_ab : expect_ba;
        if (total != expected) ++mismatches;
      }
    });
  }

  std::thread reloader([&] {
    Client client(port);
    if (client.fd < 0) {
      ++failures;
      return;
    }
    for (int r = 0; r < kReloads; ++r) {
      // gen r+2: even serves /ba/, odd serves /ab/ — matches the formula.
      const char* manifest = (r % 2 == 0) ? "ba\n" : "ab\n";
      if (!client.send(make_reload(manifest))) {
        ++failures;
        return;
      }
      Frame frame;
      if (!client.recv(frame) || frame.type != FrameType::kReloaded) {
        ++failures;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (std::thread& thread : clients) thread.join();
  reloader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(harness.server->counters().reloads, kReloads);
  EXPECT_EQ(harness.server->generation(), 1u + kReloads);
}

// ---------------------------------------------------------------- overload

// Saturating PoolAdmission{kReject} through the socket path: overload must
// surface as RESOURCE_EXHAUSTED frames and PoolStats::rejected advancing —
// never as dropped connections — and the server must stay serviceable.
TEST(RispardOverload, AdmissionRejectSurfacesAsTypedFramesNotResets) {
  ServerConfig config;
  config.pool_threads = 2;
  config.feed_workers = 4;
  config.admission.max_injected = 1;
  config.admission.policy = OverloadPolicy::kReject;
  ServerHarness harness({"(a|b)*abb"}, config);
  const std::uint16_t port = harness.port();

  std::string window;
  for (int i = 0; i < 60000; ++i) window += "abab";

  constexpr int kClients = 4;
  std::atomic<int> rejects{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(port);
      if (client.fd < 0) {
        ++failures;
        return;
      }
      std::uint32_t sid = static_cast<std::uint32_t>(c + 1);
      if (client.open(sid, 0, 0, /*chunks=*/8) == 0) {
        ++failures;
        return;
      }
      // Feed until someone gets rejected (bounded), reopening after each
      // reject — RESOURCE_EXHAUSTED poisons the session by design, and
      // close + reopen is the documented client recovery.
      for (int round = 0; round < 60 && rejects.load() == 0; ++round) {
        const auto outcome = client.feed(sid, window);
        if (outcome.ok) continue;
        if (outcome.error != ErrorCode::kResourceExhausted) {
          ++failures;
          return;
        }
        ++rejects;
        if (client.close_session(sid) == UINT64_MAX) {
          ++failures;
          return;
        }
        sid += 100;
        if (client.open(sid, 0, 0, /*chunks=*/8) == 0) {
          ++failures;
          return;
        }
      }
      client.close_session(sid);
    });
  }
  for (std::thread& thread : clients) thread.join();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_GT(rejects.load(), 0) << "admission never tripped — overload path untested";
  EXPECT_GE(harness.server->pool_stats().rejected, 1u);
  EXPECT_GE(harness.server->counters().feed_rejects, 1u);

  // Still serviceable: a fresh connection gets correct answers.
  Client fresh(port);
  ASSERT_GE(fresh.fd, 0);
  ASSERT_EQ(fresh.open(1, 0, 0, 1), 1u);
  const auto outcome = fresh.feed(1, "xxabbxx");
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.matches_total, 1u);
  EXPECT_EQ(fresh.close_session(1), 1u);
}

}  // namespace
}  // namespace rispar::rispard
