// rispard — the epoll-based streaming query server over MultiStreamSession.
//
// This is the serving path: thousands of TCP connections, each
// multiplexing client-named streaming-find sessions over the
// length-prefixed protocol of server/protocol.hpp, on top of the
// transport-agnostic MultiStreamSession/MatchSink API, the work-stealing
// pool and the governance plumbing (per-feed deadlines, typed QueryErrors,
// PoolAdmission, PoolStats). Every session — one catalog pattern or many —
// is one MultiStreamSession over the catalog ids it subscribed.
//
// ## Threading model
//
// ONE event-loop thread owns every socket, buffer and session table: a
// level-triggered epoll loop over non-blocking sockets. It never runs a
// kernel and never blocks on the pool — FEED payloads are handed to a small
// crew of feed workers (`ServerConfig::feed_workers`), each of which drives
// the session's governed MultiStreamSession::feed; the chunk fan-out inside
// the feed goes through the pool's EXTERNAL admission path (the
// PoolAdmission gate — this is where overload surfaces), and the submitting
// feed worker participates in the pool until its feed completes. Completed
// feeds post their response frames back to the event loop through an
// eventfd-signalled completion queue. Requests of ONE session — FEED,
// CHECKPOINT and CLOSE — run strictly in arrival order from one queue
// (a session is single-threaded by contract, and a CHECKPOINT reflects
// exactly the FEEDs before it); feeds of different sessions run
// concurrently up to the crew size.
//
// ## Backpressure
//
// Two per-connection brakes, both released on the event that clears them:
//  * write-buffer high water: a connection whose unsent responses exceed
//    `write_high_water` stops being read (EPOLLIN dropped) until the buffer
//    drains below half the mark — a slow consumer throttles itself, never
//    the server;
//  * feed-queue depth: a connection with `max_pending_feeds` windows queued
//    or in flight stops being read until completions drain the queue — a
//    producer faster than the pool is paced by ack latency, and the bytes
//    it keeps sending accumulate in ITS socket buffer, not our heap.
//
// ## Errors never drop connections
//
// Every failure a query can produce — deadline, cancellation, admission
// reject, poisoned session, validation — maps to a typed ERROR frame scoped
// to the offending session (protocol.hpp ErrorCode); the connection and its
// other sessions keep serving. The only close the server initiates is a
// protocol error (unparseable frame), where no framing remains to answer in.
//
// ## Hot reload
//
// The serving PatternSet lives behind std::atomic<std::shared_ptr<const
// PatternCatalog>> (server/catalog.hpp): RELOAD frames (and SIGHUP, when
// `handle_sighup`) build the next generation aside and swap one pointer.
// In-flight sessions pin the generation they opened with.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"
#include "server/catalog.hpp"
#include "server/protocol.hpp"

namespace rispar::rispard {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  std::uint16_t port = 0;
  /// Manifest file re-read by empty RELOAD frames and SIGHUP; may be empty
  /// when every reload ships its manifest inline.
  std::string manifest_path;
  /// Workers of the shared query pool (0 = hardware concurrency).
  unsigned pool_threads = 0;
  /// Feed crew size: concurrent governed feeds in flight. Each worker
  /// participates in the pool while its feed runs, so the crew adds
  /// submission concurrency, not oversubscription.
  unsigned feed_workers = 2;
  /// Admission policy of the shared pool — the overload gate every feed's
  /// chunk batch passes through (parallel/thread_pool.hpp).
  PoolAdmission admission{};
  /// Per-connection brakes (class comment).
  std::size_t write_high_water = 4u << 20;
  std::size_t max_pending_feeds = 32;
  /// Per-connection live-session cap (kTooManySessions past it).
  std::size_t max_sessions_per_connection = 1024;
  /// Upper bound a client may set as per-feed deadline; 0 = no cap.
  std::uint64_t max_feed_deadline_ns = 0;
  /// Route SIGHUP to a manifest re-read via signalfd (the rispard binary
  /// sets this; tests and embedded servers reload via RELOAD frames).
  bool handle_sighup = false;
  /// Route SIGTERM to a graceful drain via signalfd (the rispard binary sets
  /// this; tests and embedded servers drain via stop(true)).
  bool handle_sigterm = false;
  /// Graceful-drain grace period: once a drain starts, in-flight and queued
  /// feeds get this long to finish; past it the shared drain CancelToken
  /// trips them (QueryCancelled — those sessions poison and get an ERROR
  /// frame instead of a checkpoint). 0 = wait for every feed, however long.
  std::uint64_t drain_deadline_ms = 5000;
  /// Idle defense (slowloris): a connection with no inbound traffic and no
  /// in-flight work for this long has each of its sessions checkpointed
  /// into a DRAINING frame, then closes. 0 = never reap.
  std::uint64_t idle_timeout_ms = 0;
  /// QueryOptions::max_history_bytes applied to every session the server
  /// opens or resumes: bounds the kExact unsound-separator history tail per
  /// session (a trip is a typed kResourceExhausted ERROR frame and poisons
  /// only that session). The default also keeps the encoded checkpoint
  /// (4 bytes per retained byte plus envelope) well under the 16 MiB frame
  /// cap. 0 = unlimited — checkpoints of long unsound-separator kExact
  /// sessions may then exceed the frame cap and fail to serialize.
  std::uint64_t max_history_bytes = 2u << 20;
};

/// Monotone serving counters (the STATS frame serializes these plus
/// PoolStats as JSON). `connections_open`/`sessions_open` are gauges. A
/// draining connection leaves `connections_open` before its terminal
/// DRAINING frame is written, so a client that has read that frame never
/// sees itself counted.
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_open = 0;
  std::uint64_t feeds = 0;
  std::uint64_t bytes_fed = 0;
  std::uint64_t matches_emitted = 0;
  std::uint64_t error_frames = 0;
  std::uint64_t feed_rejects = 0;  ///< ResourceExhausted feeds (admission/budgets)
  std::uint64_t reloads = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t sessions_resumed = 0;     ///< RESUME_SESSION successes
  std::uint64_t sessions_reaped_idle = 0;  ///< checkpointed+closed by the idle reaper
  bool draining = false;                  ///< drain in progress (stats gauge)
};

class Server {
 public:
  /// Compiles `seed_regexes` as generation 1 and binds the listening
  /// socket. Throws RegexError/ResourceExhausted on a bad seed set and
  /// std::system_error on socket failures. The server is not yet serving —
  /// call run() (typically from a dedicated thread).
  Server(std::vector<std::string> seed_regexes, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (the ephemeral one when config.port was 0).
  std::uint16_t port() const { return port_; }

  /// The event loop. Blocks until stop(); reentering after stop is invalid.
  void run();

  /// Thread-safe shutdown request; run() returns after in-flight feeds
  /// complete. Idempotent. With `drain` the server stops accepting, sends
  /// every open session's checkpoint in a DRAINING frame (busy sessions
  /// after their in-flight and queued feeds finish — no acked feed is ever
  /// lost), closes each connection after its terminal DRAINING frame, and
  /// only then returns from run(). Feeds still running when
  /// `config.drain_deadline_ms` expires are cancelled (those sessions get a
  /// kCancelled ERROR instead of a checkpoint). stop() after stop(true)
  /// upgrades the drain to an immediate shutdown.
  void stop(bool drain = false);

  /// Thread-safe observability snapshot (tests, the STATS frame).
  ServerCounters counters() const;
  PoolStats pool_stats() const { return pool_->stats(); }
  std::uint64_t generation() const;

  /// The server-lifetime compile cache every generation builds through —
  /// reloading an unchanged manifest is pure hits (its stats ride in
  /// STATS_JSON as "compile_cache").
  const std::shared_ptr<CompileCache>& compile_cache() const {
    return compile_cache_;
  }

  /// The live catalog as a weak handle — tests observe retired-generation
  /// destruction through it without pinning anything themselves.
  std::weak_ptr<const PatternCatalog> catalog_handle() const;

 private:
  struct Session;
  struct Connection;

  /// One governed feed handed to the crew. The shared_ptr keeps the session
  /// (and, through its catalog pin, the Patterns it scans) alive even if
  /// the connection dies while the feed runs.
  struct FeedJob {
    std::uint64_t connection_uid = 0;
    std::shared_ptr<Session> session;
    std::string bytes;
  };

  /// What a finished feed posts back to the event loop.
  struct FeedDone {
    std::uint64_t connection_uid = 0;
    std::shared_ptr<Session> session;
    std::string frames;           ///< MATCHES* + FED, or one ERROR frame
    std::uint64_t new_matches = 0;
    std::uint64_t fed_bytes = 0;
    bool rejected = false;        ///< ResourceExhausted (the overload counter)
    bool errored = false;
  };

  // Event-loop internals (all run on the run() thread unless noted).
  void event_loop_iteration();
  void accept_ready();
  void handle_readable(Connection& conn);
  void handle_writable(Connection& conn);
  void process_frame(Connection& conn, const Frame& frame);
  /// OPEN_SESSION and RESUME_SESSION share every validation; `resume`
  /// selects the trailing-checkpoint parse and the resume construction.
  void handle_open_session(Connection& conn, const Frame& frame, bool resume);
  void handle_checkpoint(Connection& conn, const Frame& frame);
  void handle_feed(Connection& conn, const Frame& frame);
  void handle_close(Connection& conn, const Frame& frame);
  void handle_stats(Connection& conn);
  void handle_reload(Connection& conn, const Frame& frame);
  void handle_completions();
  /// Runs the session's queued requests in arrival order until a FEED goes
  /// to the crew (the session is then busy until its completion), a CLOSE
  /// retires the session, or the queue empties.
  void run_requests(Connection& conn, std::shared_ptr<Session> session);
  void finish_close(Connection& conn, std::uint32_t session_id);
  void send_error(Connection& conn, std::uint32_t session_id, ErrorCode code,
                  std::string_view message);
  void enqueue_output(Connection& conn, std::string_view frames);
  void flush_output(Connection& conn);
  void update_read_interest(Connection& conn);
  void close_connection(int fd);
  void apply_reload(Connection* conn, std::string_view manifest_text);
  std::string stats_json() const;

  // Drain / idle-reap machinery (event-loop thread).
  void start_drain();
  void drain_deadline_fired();
  void idle_tick();
  void arm_timer(std::uint64_t initial_ms, std::uint64_t interval_ms);
  /// Emits `type` (CHECKPOINTED or DRAINING) carrying the session's
  /// checkpoint, or a typed ERROR frame when serialization fails.
  void emit_checkpoint_frame(Connection& conn, Session& session,
                             FrameType type);
  /// DRAINING-checkpoints the session and erases it from the connection.
  void drain_session(Connection& conn, std::uint32_t session_id);
  /// Once a draining/reaped connection has no sessions left, sends the
  /// terminal DRAINING frame and closes when the output buffer is flushed.
  /// Returns true when the connection was closed (it is then invalid).
  bool finish_connection_drain(Connection& conn);
  void maybe_finish_drain();

  /// Crew side: governed feeds, response-frame assembly (not event loop).
  void feed_worker_loop();
  static FeedDone execute_feed(FeedJob job);

  void epoll_update(Connection& conn);

  ServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;   ///< completion + stop wakeups
  int signal_fd_ = -1;  ///< SIGHUP/SIGTERM, per config_.handle_sig*
  int timer_fd_ = -1;   ///< idle-reap ticks; re-armed as the drain deadline

  std::shared_ptr<ThreadPool> pool_;
  /// Outlives every catalog generation: unchanged manifest lines and .rpb
  /// entries carry their compiled Patterns across reloads.
  std::shared_ptr<CompileCache> compile_cache_;
  std::atomic<std::shared_ptr<const PatternCatalog>> catalog_;
  std::atomic<std::uint64_t> generation_{0};

  std::unordered_map<int, std::unique_ptr<Connection>> connections_;     // by fd
  std::unordered_map<std::uint64_t, Connection*> connections_by_uid_;
  std::uint64_t next_connection_uid_ = 1;

  // Feed crew handoff.
  std::mutex feed_mutex_;
  std::condition_variable feed_cv_;
  std::deque<FeedJob> feed_queue_;
  bool crew_stop_ = false;
  std::vector<std::thread> crew_;

  // Completion queue (crew -> event loop), drained on eventfd wakeups.
  std::mutex done_mutex_;
  std::vector<FeedDone> done_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> draining_{false};  ///< set only by the event loop
  /// Shared cancel source for the drain deadline: every session's
  /// QueryOptions carries its token, so one request_cancel() trips every
  /// feed still in flight when the grace period expires.
  CancelSource drain_cancel_;

  // Counters: atomics because counters()/STATS may race the crew's bumps.
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_open_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_open_{0};
  std::atomic<std::uint64_t> feeds_{0};
  std::atomic<std::uint64_t> bytes_fed_{0};
  std::atomic<std::uint64_t> matches_emitted_{0};
  std::atomic<std::uint64_t> error_frames_{0};
  std::atomic<std::uint64_t> feed_rejects_{0};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> sessions_resumed_{0};
  std::atomic<std::uint64_t> sessions_reaped_idle_{0};
};

}  // namespace rispar::rispard
