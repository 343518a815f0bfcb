// Durable-session lifecycle over the wire (ISSUE 10): CHECKPOINT /
// RESUME_SESSION round trips against the Engine oracle, graceful drain
// (stop(true) checkpoints every session into DRAINING frames, then the
// terminal frame, then the close — zero acked feeds lost, resumable on a
// fresh server), idle reaping, and the lifecycle fields in STATS_JSON.
// Suites are named Rispard* so the TSan CI leg picks them up alongside
// tests/test_server.cpp.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace rispar::rispard {
namespace {

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

/// One DRAINING frame's decoded payload ({session, blob}; the terminal
/// form decodes as session == kNoSession with an empty blob).
struct DrainFrame {
  std::uint32_t session_id = kNoSession;
  std::string blob;
};

/// A blocking client speaking the protocol helpers, plus the lifecycle
/// verbs this file exercises (checkpoint, resume, drain absorption).
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

  /// OPEN_SESSION (or RESUME_SESSION when `resume` bytes are provided) and
  /// parse the OPENED ack.
  bool open(std::uint32_t sid, std::uint32_t pid, std::uint8_t flags = 0,
            std::string_view resume = {}) {
    const std::string request =
        resume.empty()
            ? make_open_session(sid, pid, /*feed_deadline_ns=*/0, /*chunks=*/2,
                                flags)
            : make_resume_session(sid, /*feed_deadline_ns=*/0, /*chunks=*/2, {pid},
                                  flags, resume);
    if (!send(request)) return false;
    Frame frame;
    if (!recv(frame) || frame.type != FrameType::kOpened) return false;
    PayloadReader payload(frame.payload);
    EXPECT_EQ(payload.get_u32(), sid);
    return payload.get_u64() > 0;
  }

  bool open_multi(std::uint32_t sid, std::uint8_t flags = 0,
                  std::string_view resume = {}) {
    const std::string request =
        resume.empty()
            ? make_open_session_multi(sid, 0, /*chunks=*/2, {}, flags)
            : make_resume_session(sid, 0, /*chunks=*/2, {}, flags, resume);
    if (!send(request)) return false;
    Frame frame;
    if (!recv(frame) || frame.type != FrameType::kOpened) return false;
    PayloadReader payload(frame.payload);
    EXPECT_EQ(payload.get_u32(), sid);
    return payload.get_u64() > 0;
  }

  /// FEED and collect MATCHES* until the FED ack; appends absolute-offset
  /// matches to `out`. Returns false on an ERROR frame or a dead socket.
  bool feed(std::uint32_t sid, std::string_view bytes, std::vector<Match>& out) {
    if (!send(make_feed(sid, bytes))) return false;
    Frame frame;
    for (;;) {
      if (!recv(frame)) return false;
      if (frame.type == FrameType::kMatches) {
        PayloadReader payload(frame.payload);
        EXPECT_EQ(payload.get_u32(), sid);
        const std::uint32_t count = payload.get_u32();
        for (std::uint32_t i = 0; i < count; ++i) {
          Match m;
          m.pattern_id = payload.get_u32();
          m.begin = payload.get_u64();
          m.end = payload.get_u64();
          out.push_back(m);
        }
        continue;
      }
      if (frame.type == FrameType::kFed) return true;
      return false;
    }
  }

  /// CHECKPOINT and parse the CHECKPOINTED {session, blob} reply; returns
  /// the opaque blob (empty only on failure — real blobs always carry at
  /// least the envelope).
  std::string checkpoint(std::uint32_t sid) {
    if (!send(make_checkpoint(sid))) return {};
    Frame frame;
    if (!recv(frame) || frame.type != FrameType::kCheckpointed) return {};
    PayloadReader payload(frame.payload);
    EXPECT_EQ(payload.get_u32(), sid);
    return std::string(payload.rest());
  }

  std::uint64_t close_session(std::uint32_t sid) {
    if (!send(make_close(sid))) return UINT64_MAX;
    Frame frame;
    if (!recv(frame) || frame.type != FrameType::kClosed) return UINT64_MAX;
    PayloadReader payload(frame.payload);
    EXPECT_EQ(payload.get_u32(), sid);
    return payload.get_u64();
  }

  /// The ERROR frame expected next on the wire.
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

  /// Reads until the connection closes, collecting every DRAINING frame
  /// (per-session checkpoints first, then the terminal kNoSession form).
  /// Returns false if anything other than DRAINING arrives.
  bool absorb_drain(std::vector<DrainFrame>& out) {
    Frame frame;
    while (recv(frame)) {
      if (frame.type != FrameType::kDraining) return false;
      PayloadReader payload(frame.payload);
      DrainFrame drained;
      drained.session_id = payload.get_u32();
      if (drained.session_id != kNoSession) drained.blob = std::string(payload.rest());
      out.push_back(drained);
    }
    return true;  // EOF — the server closed after the terminal frame
  }
};

std::vector<Match> tag_pattern(std::vector<Match> matches, std::uint32_t pid) {
  for (Match& m : matches) m.pattern_id = pid;
  return matches;
}

// ------------------------------------------------------- checkpoint/resume

TEST(RispardCheckpoint, WireCheckpointResumesByteExactOnBothBeginModes) {
  std::string text;
  for (int i = 0; i < 120; ++i) text += (i % 5 == 0) ? "xxabab " : "abba";
  const Engine oracle_engine(Pattern::compile("(ab)+"), {.threads = 2});

  for (const std::uint8_t flags : {std::uint8_t{0}, kOpenFlagExactBegins}) {
    SCOPED_TRACE("flags=" + std::to_string(flags));
    const BeginMode mode =
        flags == 0 ? BeginMode::kSeparator : BeginMode::kExact;
    const std::vector<Match> oracle =
        tag_pattern(oracle_engine.find_all(text, {.begin_mode = mode}), 0);
    ASSERT_FALSE(oracle.empty());

    ServerHarness harness({"(ab)+", "zz"});
    std::vector<Match> collected;

    // First connection: feed half, checkpoint, then VANISH (no CLOSE).
    std::string blob;
    const std::size_t half = text.size() / 2;
    {
      Client first(harness.port());
      ASSERT_GE(first.fd, 0);
      ASSERT_TRUE(first.open(1, 0, flags));
      for (std::size_t offset = 0; offset < half; offset += 37)
        ASSERT_TRUE(first.feed(
            1, std::string_view(text).substr(offset, std::min<std::size_t>(
                                                         37, half - offset)),
            collected));
      blob = first.checkpoint(1);
      ASSERT_FALSE(blob.empty());
    }  // dtor drops the TCP connection with the session still open

    // Second connection: RESUME_SESSION from the blob, finish the stream.
    Client second(harness.port());
    ASSERT_GE(second.fd, 0);
    ASSERT_TRUE(second.open(1, 0, flags, blob));
    ASSERT_TRUE(second.feed(1, std::string_view(text).substr(half), collected));
    EXPECT_EQ(second.close_session(1), oracle.size());
    EXPECT_EQ(collected, oracle);
    EXPECT_EQ(harness.server->counters().sessions_resumed, 1u);
  }
}

TEST(RispardCheckpoint, MultiPatternCheckpointResumesTheWholeFleet) {
  const std::string text =
      "error: timeout after 30ms, then error again after 451ms and then some";
  const PatternSet set =
      PatternSet::compile({"error", "[0-9]+ms", "after|then"}, {.threads = 2});
  const std::vector<Match> oracle = set.find_all(text);
  ASSERT_FALSE(oracle.empty());

  ServerHarness harness({"error", "[0-9]+ms", "after|then"});
  std::vector<Match> collected;
  std::string blob;
  {
    Client first(harness.port());
    ASSERT_GE(first.fd, 0);
    ASSERT_TRUE(first.open_multi(9));
    ASSERT_TRUE(first.feed(9, text.substr(0, 27), collected));
    blob = first.checkpoint(9);
    ASSERT_FALSE(blob.empty());
  }

  Client second(harness.port());
  ASSERT_GE(second.fd, 0);
  ASSERT_TRUE(second.open_multi(9, 0, blob));
  ASSERT_TRUE(second.feed(9, std::string_view(text).substr(27), collected));
  EXPECT_EQ(second.close_session(9), oracle.size());
  EXPECT_EQ(collected, oracle);
}

TEST(RispardCheckpoint, UnknownSessionAndCorruptBlobAreTypedErrors) {
  ServerHarness harness({"ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);

  // CHECKPOINT for a session never opened.
  ASSERT_TRUE(client.send(make_checkpoint(99)));
  EXPECT_EQ(client.expect_error(99), ErrorCode::kUnknownSession);

  // A flipped blob byte must surface as a VALIDATION error, not a session.
  ASSERT_TRUE(client.open(1, 0));
  std::vector<Match> sink;
  ASSERT_TRUE(client.feed(1, "xabx", sink));
  std::string blob = client.checkpoint(1);
  ASSERT_FALSE(blob.empty());
  blob[blob.size() / 2] ^= 0x41;
  ASSERT_TRUE(client.send(make_resume_session(2, 0, 2, {0}, /*flags=*/0, blob)));
  EXPECT_EQ(client.expect_error(2), ErrorCode::kValidation);

  // The original session is untouched by the failed resume.
  EXPECT_EQ(client.close_session(1), 1u);
}

TEST(RispardCheckpoint, SingleOpenFlagsByteRequestsExactBegins) {
  // kOpenFlagExactBegins in a one-pattern OPEN_SESSION's flags byte must
  // switch the session to exact begins — observable on a pattern where the
  // two modes report different begin offsets.
  const std::string text = "xba xa bba";
  const Engine engine(Pattern::compile("a|ba"), {.threads = 2});
  const std::vector<Match> separator =
      tag_pattern(engine.find_all(text, {.begin_mode = BeginMode::kSeparator}), 0);
  const std::vector<Match> exact =
      tag_pattern(engine.find_all(text, {.begin_mode = BeginMode::kExact}), 0);
  ASSERT_NE(separator, exact) << "pick a pattern where the modes differ";

  ServerHarness harness({"a|ba"});
  for (const bool want_exact : {false, true}) {
    Client client(harness.port());
    ASSERT_GE(client.fd, 0);
    ASSERT_TRUE(client.open(1, 0, want_exact ? kOpenFlagExactBegins : 0));
    std::vector<Match> collected;
    ASSERT_TRUE(client.feed(1, text, collected));
    EXPECT_EQ(collected, want_exact ? exact : separator);
    client.close_session(1);
  }
}

TEST(RispardCheckpoint, PipelinedRequestsAnswerInOrder) {
  // FEED a, CHECKPOINT, FEED b, CHECKPOINT, CLOSE in ONE write: the first
  // FEED is still running when the rest arrive, so the server must queue
  // them and answer each in turn — every checkpoint reflects exactly the
  // feeds before it, and the CLOSE does not swallow the last reply.
  const std::string a = "xxabab abba ";
  const std::string b = "ab xab abab";
  const std::string text = a + b;
  const Engine oracle_engine(Pattern::compile("(ab)+"), {.threads = 2});
  const std::vector<Match> oracle = tag_pattern(oracle_engine.find_all(text), 0);
  ASSERT_FALSE(oracle.empty());

  ServerHarness harness({"(ab)+"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.open(1, 0));
  ASSERT_TRUE(client.send(make_feed(1, a) + make_checkpoint(1) + make_feed(1, b) +
                          make_checkpoint(1) + make_close(1)));

  std::vector<FrameType> replies;
  std::vector<std::string> blobs;
  std::uint64_t closed_total = 0;
  Frame frame;
  while (replies.empty() || replies.back() != FrameType::kClosed) {
    ASSERT_TRUE(client.recv(frame));
    if (frame.type == FrameType::kMatches) continue;
    replies.push_back(frame.type);
    PayloadReader payload(frame.payload);
    EXPECT_EQ(payload.get_u32(), 1u);
    if (frame.type == FrameType::kCheckpointed) blobs.emplace_back(payload.rest());
    if (frame.type == FrameType::kClosed) closed_total = payload.get_u64();
  }
  EXPECT_EQ(replies,
            (std::vector<FrameType>{FrameType::kFed, FrameType::kCheckpointed,
                                    FrameType::kFed, FrameType::kCheckpointed,
                                    FrameType::kClosed}));
  EXPECT_EQ(closed_total, oracle.size());
  ASSERT_EQ(blobs.size(), 2u);

  // Each blob resumes at the feeds received before its request: an empty
  // FEED acks the resumed byte count, and the rest of the stream finishes
  // byte-exact.
  const std::size_t cuts[] = {a.size(), text.size()};
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("checkpoint " + std::to_string(i));
    Client resumer(harness.port());
    ASSERT_GE(resumer.fd, 0);
    ASSERT_TRUE(resumer.open(2, 0, 0, blobs[i]));
    ASSERT_TRUE(resumer.send(make_feed(2, "")));
    ASSERT_TRUE(resumer.recv(frame));
    ASSERT_EQ(frame.type, FrameType::kFed);
    PayloadReader fed(frame.payload);
    EXPECT_EQ(fed.get_u32(), 2u);
    EXPECT_EQ(fed.get_u64(), cuts[i]);
    std::vector<Match> tail;
    ASSERT_TRUE(resumer.feed(2, std::string_view(text).substr(cuts[i]), tail));
    const std::vector<Match> want(
        std::find_if(oracle.begin(), oracle.end(),
                     [&](const Match& m) { return m.end > cuts[i]; }),
        oracle.end());
    EXPECT_EQ(tail, want);
    EXPECT_EQ(resumer.close_session(2), oracle.size());
  }
}

// ------------------------------------------------------------------- drain

TEST(RispardDrain, StopDrainDeliversResumableCheckpointsThenCloses) {
  std::string text;
  for (int i = 0; i < 200; ++i) text += (i % 3 == 0) ? "ab x " : "abab ";
  const Engine oracle_engine(Pattern::compile("(ab)+"), {.threads = 2});
  const std::vector<Match> oracle =
      tag_pattern(oracle_engine.find_all(text), 0);

  ServerConfig config;
  config.drain_deadline_ms = 20000;  // exercise completion, not cancellation
  std::vector<Match> collected;
  std::string blob;
  std::uint64_t acked = 0;
  {
    ServerHarness harness({"(ab)+"}, config);
    Client client(harness.port());
    ASSERT_GE(client.fd, 0);
    ASSERT_TRUE(client.open(1, 0));
    // Feed (and ack) a prefix, so the drain has real session state to save.
    const std::size_t half = text.size() / 2;
    for (std::size_t offset = 0; offset < half; offset += 64) {
      const std::string_view window =
          std::string_view(text).substr(offset, std::min<std::size_t>(64, half - offset));
      ASSERT_TRUE(client.feed(1, window, collected));
      acked += window.size();
    }

    harness.server->stop(true);
    std::vector<DrainFrame> drained;
    ASSERT_TRUE(client.absorb_drain(drained));
    ASSERT_EQ(drained.size(), 2u);  // the session's checkpoint + the terminal
    EXPECT_EQ(drained[0].session_id, 1u);
    ASSERT_FALSE(drained[0].blob.empty());
    EXPECT_EQ(drained[1].session_id, kNoSession);
    blob = drained[0].blob;

    // The server settles its gauges before writing the terminal frame, so
    // they read zero here even while run() is still closing the socket.
    const ServerCounters counters = harness.server->counters();
    EXPECT_TRUE(counters.draining);
    EXPECT_EQ(counters.sessions_open, 0u);
    EXPECT_EQ(counters.connections_open, 0u);
  }  // the dtor joins run(); its stop() is a no-op

  // The DRAINING blob resumes on a brand-new server, byte-exact.
  ServerHarness next({"(ab)+"}, {});
  Client client(next.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.open(1, 0, 0, blob));
  ASSERT_TRUE(client.feed(1, std::string_view(text).substr(acked), collected));
  EXPECT_EQ(client.close_session(1), oracle.size());
  EXPECT_EQ(collected, oracle);
}

TEST(RispardDrain, SigtermStyleStopDrainsMultipleConnections) {
  ServerConfig config;
  config.drain_deadline_ms = 20000;
  ServerHarness harness({"ab", "ba"}, config);

  // Three connections: single, multi, and one with NO sessions (it must
  // still get the terminal frame and a close).
  Client single(harness.port());
  Client multi(harness.port());
  Client idle(harness.port());
  ASSERT_GE(single.fd, 0);
  ASSERT_GE(multi.fd, 0);
  ASSERT_GE(idle.fd, 0);
  ASSERT_TRUE(single.open(1, 0));
  ASSERT_TRUE(multi.open_multi(2));
  std::vector<Match> sink;
  ASSERT_TRUE(single.feed(1, "xabx", sink));
  ASSERT_TRUE(multi.feed(2, "abba", sink));

  harness.server->stop(true);

  std::vector<DrainFrame> single_frames, multi_frames, idle_frames;
  ASSERT_TRUE(single.absorb_drain(single_frames));
  ASSERT_TRUE(multi.absorb_drain(multi_frames));
  ASSERT_TRUE(idle.absorb_drain(idle_frames));
  ASSERT_EQ(single_frames.size(), 2u);
  EXPECT_EQ(single_frames[0].session_id, 1u);
  EXPECT_FALSE(single_frames[0].blob.empty());
  ASSERT_EQ(multi_frames.size(), 2u);
  EXPECT_EQ(multi_frames[0].session_id, 2u);
  EXPECT_FALSE(multi_frames[0].blob.empty());
  ASSERT_EQ(idle_frames.size(), 1u);  // terminal only
  EXPECT_EQ(idle_frames[0].session_id, kNoSession);
}

// ------------------------------------------------------------ idle reaping

TEST(RispardReap, IdleConnectionIsCheckpointedAndClosed) {
  const std::string text = "xab abab yab";
  const Engine oracle_engine(Pattern::compile("ab"), {.threads = 2});
  const std::vector<Match> oracle =
      tag_pattern(oracle_engine.find_all(text), 0);

  ServerConfig config;
  config.idle_timeout_ms = 50;
  ServerHarness harness({"ab"}, config);

  Client client(harness.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.open(1, 0));
  std::vector<Match> collected;
  ASSERT_TRUE(client.feed(1, text.substr(0, 5), collected));

  // Go silent: the reaper must checkpoint the session into a DRAINING
  // frame, send the terminal, and close — the blocking read returns it all.
  std::vector<DrainFrame> drained;
  ASSERT_TRUE(client.absorb_drain(drained));
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].session_id, 1u);
  ASSERT_FALSE(drained[0].blob.empty());
  EXPECT_EQ(drained[1].session_id, kNoSession);
  EXPECT_GE(harness.server->counters().sessions_reaped_idle, 1u);

  // The reaped session resumes on the SAME server and finishes byte-exact.
  Client resumer(harness.port());
  ASSERT_GE(resumer.fd, 0);
  ASSERT_TRUE(resumer.open(1, 0, 0, drained[0].blob));
  ASSERT_TRUE(resumer.feed(1, std::string_view(text).substr(5), collected));
  EXPECT_EQ(resumer.close_session(1), oracle.size());
  EXPECT_EQ(collected, oracle);
}

TEST(RispardReap, TrafficKeepsAConnectionAlivePastTheTimeout) {
  ServerConfig config;
  config.idle_timeout_ms = 1000;
  ServerHarness harness({"ab"}, config);

  Client client(harness.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.open(1, 0));
  std::vector<Match> collected;
  // Total wall time exceeds the timeout, but every gap stays far inside it:
  // activity must keep resetting the idle clock.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(client.feed(1, "xabx", collected)) << "round " << round;
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
  EXPECT_EQ(client.close_session(1), collected.size());
  EXPECT_EQ(harness.server->counters().sessions_reaped_idle, 0u);
}

// ------------------------------------------------------------------- stats

TEST(RispardLifecycleStats, StatsJsonCarriesResumeReapAndDrainFields) {
  ServerHarness harness({"ab"});
  Client client(harness.port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.send(make_stats()));
  Frame frame;
  ASSERT_TRUE(client.recv(frame));
  ASSERT_EQ(frame.type, FrameType::kStatsJson);
  EXPECT_NE(frame.payload.find("\"sessions_resumed\":0"), std::string::npos);
  EXPECT_NE(frame.payload.find("\"sessions_reaped_idle\":0"), std::string::npos);
  EXPECT_NE(frame.payload.find("\"drain_state\":\"serving\""), std::string::npos);
}

}  // namespace
}  // namespace rispar::rispard
