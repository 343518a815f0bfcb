// A minimal blocking rispard client — the public wire protocol end to end.
//
// Opens one streaming-find session, feeds a file (or a synthetic log) in
// windows, prints the first few match offsets, and closes. Halfway through
// it also exercises the durable-session path: CHECKPOINT, drop the TCP
// connection outright, and reconnect_and_resume() onto a fresh one — the
// resumed session continues byte-exact, so the final totals still match.
// By default it SELF-SERVES: an in-process rispard Server binds an
// ephemeral port and the client talks to it over real TCP, so this example
// doubles as the CTest smoke test of the protocol — the server's matches
// are cross-checked against a local Engine::find_all oracle, and any drift
// in the framing or the session semantics fails CI. Point it at a live
// server with --connect HOST:PORT instead.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/prng.hpp"

using namespace rispar;
using namespace rispar::rispard;

namespace {

std::string synthetic_log(std::size_t kilobytes) {
  static const char* kUnits[] = {"disk", "net", "auth", "sched"};
  static const char* kAlerts[] = {"ERROR", "FATAL"};
  Prng prng(7);
  std::string log;
  std::size_t line = 0;
  while (log.size() < (kilobytes << 10)) {
    log += "t=" + std::to_string(1000000 + line++) + " unit=";
    log += kUnits[prng.next_below(4)];
    if (prng.next_below(16) == 0) {
      log += " level=";
      log += kAlerts[prng.next_below(2)];
      log += " code=" + std::to_string(prng.next_below(99));
    } else {
      log += " level=info ok";
    }
    log += '\n';
  }
  return log;
}

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  std::string regex = "level=(ERROR|FATAL) code=";
  std::string file_path;
  std::string connect_spec;
  std::size_t demo_kb = 64;
  std::size_t window = 8192;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect_spec = argv[++i];
    } else if (arg == "--window" && i + 1 < argc) {
      window = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--demo-kb" && i + 1 < argc) {
      demo_kb = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--help") {
      std::printf("usage: %s [REGEX [FILE]] [--connect HOST:PORT] "
                  "[--window N] [--demo-kb N]\n", argv[0]);
      return 0;
    } else if (regex == "level=(ERROR|FATAL) code=" && arg.front() != '-') {
      regex = arg;
      if (i + 1 < argc && argv[i + 1][0] != '-') file_path = argv[++i];
    }
  }

  std::string text;
  if (file_path.empty()) {
    text = synthetic_log(demo_kb);
    std::printf("feeding a synthetic %zu KB log for /%s/\n", demo_kb, regex.c_str());
  } else {
    std::ifstream file(file_path, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot read %s\n", file_path.c_str());
      return 2;
    }
    std::ostringstream content;
    content << file.rdbuf();
    text = content.str();
  }

  // Self-serve unless --connect points elsewhere: a real server on an
  // ephemeral port, in this process, spoken to over real TCP.
  std::unique_ptr<Server> own_server;
  std::thread server_thread;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  if (connect_spec.empty()) {
    own_server = std::make_unique<Server>(std::vector<std::string>{regex},
                                          ServerConfig{});
    port = own_server->port();
    server_thread = std::thread([&] { own_server->run(); });
    std::printf("self-serving on 127.0.0.1:%u\n", static_cast<unsigned>(port));
  } else {
    const std::size_t colon = connect_spec.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--connect needs HOST:PORT\n");
      return 2;
    }
    host = connect_spec.substr(0, colon);
    port = static_cast<std::uint16_t>(
        std::strtoul(connect_spec.c_str() + colon + 1, nullptr, 10));
  }
  const auto teardown = [&] {
    if (own_server != nullptr) {
      own_server->stop();
      server_thread.join();
    }
  };

  int fd = connect_to(host, port);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to %s:%u\n", host.c_str(),
                 static_cast<unsigned>(port));
    teardown();
    return 2;
  }

  // One session on pattern 0, fed window by window; MATCHES frames stream
  // back with ABSOLUTE byte offsets, FED acks carry the running totals.
  FrameReader reader;
  Frame frame;
  bool failed = false;
  bool resumed = false;
  std::uint64_t matches_total = 0;
  std::size_t printed = 0;
  send_all(fd, make_open_session(/*session_id=*/1, /*pattern_id=*/0,
                                 /*feed_deadline_ns=*/0, /*chunks=*/4));
  if (!recv_frame(fd, reader, frame) || frame.type != FrameType::kOpened) {
    std::fprintf(stderr, "OPEN_SESSION failed\n");
    failed = true;
  }
  for (std::size_t offset = 0; !failed && offset < text.size(); offset += window) {
    const std::string_view bytes =
        std::string_view(text).substr(offset, window);
    send_all(fd, make_feed(1, bytes));
    for (;;) {  // MATCHES* then the FED ack
      if (!recv_frame(fd, reader, frame)) {
        failed = true;
        break;
      }
      if (frame.type == FrameType::kMatches) {
        PayloadReader payload(frame.payload);
        payload.get_u32();  // session id
        const std::uint32_t count = payload.get_u32();
        for (std::uint32_t i = 0; i < count; ++i) {
          payload.get_u32();  // pattern id
          const std::uint64_t begin = payload.get_u64();
          const std::uint64_t end = payload.get_u64();
          if (printed < 5)
            std::printf("  match @ [%llu, %llu)%s\n",
                        static_cast<unsigned long long>(begin),
                        static_cast<unsigned long long>(end),
                        ++printed == 5 ? "  (further matches counted silently)"
                                       : "");
        }
        continue;
      }
      if (frame.type == FrameType::kFed) break;
      std::fprintf(stderr, "unexpected frame 0x%02x\n",
                   static_cast<unsigned>(frame.type));
      failed = true;
      break;
    }
    // Halfway through (loopback only — the helper reconnects to loopback):
    // checkpoint, vanish, resume. Everything acked so far rides in the blob.
    if (!failed && !resumed && host == "127.0.0.1" &&
        offset + window >= text.size() / 2) {
      resumed = true;
      send_all(fd, make_checkpoint(1));
      if (!recv_frame(fd, reader, frame) ||
          frame.type != FrameType::kCheckpointed) {
        std::fprintf(stderr, "CHECKPOINT failed\n");
        failed = true;
        break;
      }
      ResumeSpec spec;
      spec.session_id = 1;
      spec.pattern_ids = {0};
      spec.chunks = 4;
      spec.checkpoint = frame.payload.substr(4);  // {session, blob}
      ::close(fd);
      reader = FrameReader();
      fd = reconnect_and_resume(port, spec, reader);
      if (fd < 0) {
        std::fprintf(stderr, "RESUME_SESSION failed\n");
        failed = true;
        break;
      }
      std::printf("  (checkpointed, dropped the connection, resumed "
                  "byte-exact at offset %zu)\n",
                  std::min(offset + window, text.size()));
    }
  }
  if (!failed) {
    send_all(fd, make_close(1));
    if (recv_frame(fd, reader, frame) && frame.type == FrameType::kClosed) {
      PayloadReader payload(frame.payload);
      payload.get_u32();
      matches_total = payload.get_u64();
    } else {
      failed = true;
    }
  }
  ::close(fd);
  teardown();
  if (failed) return 1;

  std::printf("server found %llu matches in %zu bytes\n",
              static_cast<unsigned long long>(matches_total), text.size());

  // Smoke-test oracle: the server must agree with a local one-shot find.
  const Engine oracle(Pattern::compile(regex));
  const std::size_t expected = oracle.find_all(text).size();
  if (matches_total != expected) {
    std::printf("MISMATCH: local oracle found %zu (bug!)\n", expected);
    return 1;
  }
  std::printf("matches agree with the local Engine::find_all oracle\n");
  return matches_total > 0 ? 0 : 1;
}
