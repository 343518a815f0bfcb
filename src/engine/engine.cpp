#include "engine/engine.hpp"

#include <algorithm>
#include <string>

#include "engine/checkpoint.hpp"
#include "parallel/match_count.hpp"
#include "util/fault_inject.hpp"

namespace rispar {

Engine::Engine(Pattern pattern, EngineConfig config)
    : pattern_(std::move(pattern)),
      config_(config),
      pool_(config.shared_pool != nullptr
                ? config.shared_pool
                : std::make_shared<ThreadPool>(config.threads, config.admission)),
      dfa_device_(pattern_.min_dfa()),
      nfa_device_(pattern_.nfa()),
      rid_device_(pattern_.ridfa()) {}

const Device* Engine::try_device(Variant variant) const {
  switch (variant) {
    case Variant::kDfa: return &dfa_device_;
    case Variant::kNfa: return &nfa_device_;
    case Variant::kRid: return &rid_device_;
    case Variant::kSfa: return pattern_.sfa_device(config_.sfa_budget);
  }
  return nullptr;
}

const Device& Engine::device(Variant variant) const {
  const Device* found = try_device(variant);
  if (found == nullptr) {
    // The probe is cached per Pattern, so the effective budget may not be
    // this Engine's configured one — report the budget that actually ran.
    // (try_build_sfa gives up when the interned mappings pass the budget,
    // so the observed demand is at least limit + 1 — the explosion case
    // the paper reports.)
    const std::int32_t probed = pattern_.sfa_probe_budget();
    std::string resource =
        std::string(variant_name(variant)) + ": SFA construction";
    if (probed != config_.sfa_budget)
      resource += " (the shared Pattern was first probed with budget " +
                  std::to_string(probed) + ", so this Engine's sfa_budget of " +
                  std::to_string(config_.sfa_budget) + " was not applied)";
    throw ResourceExhausted(std::move(resource), probed,
                            static_cast<std::int64_t>(probed) + 1);
  }
  return *found;
}

QueryResult Engine::recognize(std::string_view text, const QueryOptions& options) const {
  return device(options.variant)
      .recognize(MappedBytes(text, pattern_.symbols()), *pool_, options);
}

QueryResult Engine::recognize(std::span<const Symbol> input,
                              const QueryOptions& options) const {
  return device(options.variant).recognize(input, *pool_, options);
}

QueryResult Engine::count(std::string_view text, const QueryOptions& options) const {
  // Reject up front — before paying the lazy searcher build (determinize +
  // minimize); count_matches re-validates.
  validate_query(options, kCountingCaps, kCountingContext);
  // The governor's clock starts BEFORE the lazy searcher build: the
  // deadline budgets the whole call, not just the kernel.
  const QueryGovernor governor(options.deadline, options.cancel);
  const Dfa& dfa = searcher();
  governor.poll();
  return count_matches(dfa, text, *pool_, options, &governor);
}

QueryResult Engine::find(std::string_view text, const QueryOptions& options) const {
  // Reject up front, like count() — before the lazy searcher build;
  // find_matches re-validates.
  validate_query(options, kFindingCaps, kFindingContext);
  const QueryGovernor governor(options.deadline, options.cancel);
  const Dfa& dfa = searcher();
  governor.poll();
  // Exact begins pay the lazy reverse-DFA build here, inside the same
  // deadline budget as the searcher (subsequent calls hit the cache).
  const ReverseBegins* reverse =
      options.begin_mode == BeginMode::kExact
          ? &pattern_.reverse_begins(config_.subset_budget)
          : nullptr;
  governor.poll();
  return find_matches(dfa, text, *pool_, options, /*pattern_id=*/0, &governor, reverse);
}

std::vector<Match> Engine::find_all(std::string_view text,
                                    const QueryOptions& options) const {
  return std::move(find(text, options).positions);
}

StreamSession Engine::stream(const QueryOptions& options) const {
  const Device& dev = device(options.variant);
  // Fail at session creation, not at the first feed (which re-validates).
  validate_query(options, kStreamCaps, device_context("stream", options.variant));
  // Positions sessions pay the lazy searcher build here, at open — never
  // inside the first feed on the hot path (and under this Engine's
  // subset_budget, so a blow-up pattern trips ResourceExhausted at open).
  // Exact-begin sessions likewise pre-pay the reverse-DFA build.
  if (options.positions) (void)searcher();
  if (options.begin_mode == BeginMode::kExact)
    (void)pattern_.reverse_begins(config_.subset_budget);
  return StreamSession(dev, pattern_, *pool_, options);
}

StreamSession Engine::resume_stream(std::string_view blob,
                                    const QueryOptions& options) const {
  // A fresh open first — validation and lazy-artifact pre-pay happen
  // BEFORE the blob is decoded, so a resume rejects for the same reasons at
  // the same point a fresh open would.
  StreamSession session = stream(options);
  session.resume(blob);
  return session;
}

std::vector<QueryResult> Engine::match_all(std::span<const std::string_view> texts,
                                           const QueryOptions& options) const {
  const Device& dev = device(options.variant);
  // Fail before any text is scanned; per-text recognize re-validates.
  validate_query(options, kRecognizeCaps, device_context("match_all", options.variant));
  std::vector<QueryResult> results(texts.size());
  // One task per text; per-text chunk runs nest on the same pool and
  // execute inline (ThreadPool reentrancy), so the sharding unit is the
  // text — the right shape for many small-to-medium documents.
  //
  // Governance is PER TASK: each text's recognize builds its own governor,
  // so the deadline budgets one text, not the batch. The batch-level
  // governor below only paces admission blocking (OverloadPolicy::kBlock).
  const QueryGovernor batch_governor(options.deadline, options.cancel);
  pool_->run(texts.size(), [&](std::size_t i) {
    results[i] =
        dev.recognize(MappedBytes(texts[i], pattern_.symbols()), *pool_, options);
  }, batch_governor.active() ? &batch_governor : nullptr);
  return results;
}

namespace {

// The serial oracle run over the minimal DFA, one symbol at a time:
// rejects as soon as a symbol is outside the alphabet or the run dies.
template <typename Input, typename ToSymbol>
bool serial_accepts(const Dfa& dfa, const Input& input, ToSymbol to_symbol) {
  State state = dfa.initial();
  for (const auto unit : input) {
    const Symbol symbol = to_symbol(unit);
    if (symbol < 0 || symbol >= dfa.num_symbols()) return false;
    state = dfa.step(state, symbol);
    if (state == kDeadState) return false;
  }
  return dfa.is_final(state);
}

}  // namespace

bool Engine::accepts(std::span<const Symbol> input) const {
  return serial_accepts(pattern_.min_dfa(), input, [](Symbol symbol) { return symbol; });
}

bool Engine::accepts(std::string_view text) const {
  // Bytes go through the pattern's map one at a time — no symbol vector.
  const SymbolMap& map = pattern_.symbols();
  return serial_accepts(pattern_.min_dfa(), text, [&](char byte) {
    return map.symbol_of(static_cast<unsigned char>(byte));
  });
}

// ------------------------------------------------------------ StreamSession

StreamSession::StreamSession(const Device& device, Pattern pattern, ThreadPool& pool,
                             QueryOptions options)
    : device_(&device), pattern_(std::move(pattern)), pool_(&pool),
      options_(std::move(options)) {
  if (options_.positions) find_.emplace(std::vector<Pattern>{pattern_}, pool, options_);
}

void StreamSession::ensure_live() const {
  if (poisoned_)
    throw ValidationError(
        "stream (feed): session is poisoned — a previous feed failed "
        "mid-window (deadline, cancellation or fault), so the carry is "
        "inconsistent; reset() to reuse the session (take_matches() still "
        "drains what was buffered)");
}

void StreamSession::feed(std::string_view bytes) { feed(bytes, nullptr); }

void StreamSession::feed(std::string_view bytes, const MatchSink& sink) {
  // Shape precondition first: rejecting here never poisons — nothing ran.
  if (!find_)
    throw ValidationError(
        "stream (match drain): this session was not opened with positions — "
        "set QueryOptions::positions at Engine::stream to request streaming "
        "find");
  feed(bytes, &sink);
}

void StreamSession::feed(std::string_view bytes, const MatchSink* sink) {
  ensure_live();
  try {
    // One governor per FEED: its clock starts here and covers both the
    // decision window and the find side.
    const QueryGovernor governor(options_.deadline, options_.cancel);
    if (dead()) {
      // The decision already died — its window would no-op anyway, so skip
      // the device-side translation (the tailing steady state: only the
      // find side still scans). Keep the window accounting.
      if (!bytes.empty()) ++carry_.windows;
    } else {
      device_->stream_feed(carry_, pattern_.translate(bytes), *pool_, options_,
                           &governor);
    }
    if (find_) find_->feed(bytes, sink, governor);
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

void StreamSession::feed(std::span<const Symbol> window) {
  if (find_)
    throw ValidationError(
        "stream (positions): symbol-span windows cannot serve streaming find "
        "— the searcher translates raw bytes with its own map; feed "
        "string_view windows (or open the session without positions)");
  ensure_live();
  try {
    device_->stream_feed(carry_, window, *pool_, options_);
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

std::string StreamSession::checkpoint() const {
  if (poisoned_)
    throw ValidationError(
        "stream (checkpoint): session is poisoned — a previous feed failed "
        "mid-window, so there is no consistent carry to save; reset() and "
        "refeed, or resume an earlier checkpoint");
  if (find_) return find_->checkpoint(&carry_);
  return checkpoint::encode(&carry_, 0, {}, options_,
                            checkpoint::fleet_fingerprint(std::span(&pattern_, 1)));
}

void StreamSession::resume(std::string_view blob) {
  checkpoint::Image image = checkpoint::decode(
      blob, options_, /*decision=*/true, find_ ? 1 : 0,
      checkpoint::fleet_fingerprint(std::span(&pattern_, 1)));
  carry_ = std::move(*image.decision);
  if (find_) {
    find_->consumed_ = image.consumed;
    find_->carries_ = std::move(image.carries);
  }
}

std::vector<Match> StreamSession::take_matches() {
  if (!find_)
    throw ValidationError(
        "stream (take_matches): this session was not opened with positions — "
        "set QueryOptions::positions at Engine::stream to request streaming "
        "find");
  return find_->take_matches();
}

void StreamSession::reset() {
  carry_ = StreamCarry{};
  if (find_) find_->reset();
  poisoned_ = false;
}

// ------------------------------------------------------- MultiStreamSession

MultiStreamSession::MultiStreamSession(std::vector<Pattern> patterns,
                                       ThreadPool& pool, QueryOptions options)
    : patterns_(std::move(patterns)),
      carries_(patterns_.size()),
      pool_(&pool),
      options_(std::move(options)) {
  options_.positions = true;  // implied, like Engine::find — this IS finding
  validate_query(options_, kStreamFindingCaps, kStreamFindingContext);
  const bool exact = options_.begin_mode == BeginMode::kExact;
  reverses_.reserve(patterns_.size());
  for (const Pattern& pattern : patterns_) {
    // Pay the lazy builds at open, never inside a feed (Engine::stream's
    // discipline) — a blow-up pattern trips ResourceExhausted here.
    (void)pattern.searcher();
    reverses_.push_back(exact ? &pattern.reverse_begins() : nullptr);
  }
}

MultiStreamSession::MultiStreamSession(std::vector<Pattern> patterns,
                                       ThreadPool& pool, QueryOptions options,
                                       std::string_view checkpoint)
    : MultiStreamSession(std::move(patterns), pool, std::move(options)) {
  checkpoint::Image image =
      checkpoint::decode(checkpoint, options_, /*decision=*/false, patterns_.size(),
                         checkpoint::fleet_fingerprint(patterns_));
  consumed_ = image.consumed;
  carries_ = std::move(image.carries);
}

std::string MultiStreamSession::checkpoint(const StreamCarry* decision) const {
  if (poisoned_)
    throw ValidationError(
        "stream_find (checkpoint): session is poisoned — some pattern carries "
        "advanced past others, so there is no consistent state to save; "
        "reset() and refeed, or resume an earlier checkpoint");
  if (!pending_.empty())
    throw ValidationError(
        "stream_find (checkpoint): " + std::to_string(pending_.size()) +
        " buffered matches are undrained — take_matches() first; checkpoints "
        "never carry match payloads, so resuming would silently drop them");
  return checkpoint::encode(decision, consumed_, carries_, options_,
                            checkpoint::fleet_fingerprint(patterns_));
}

void MultiStreamSession::ensure_live() const {
  if (poisoned_)
    throw ValidationError(
        "stream_find (feed): session is poisoned — a previous feed failed "
        "mid-window (deadline, cancellation or fault), so some pattern "
        "carries advanced and others did not; reset() to reuse the session "
        "(take_matches() still drains what was buffered)");
}

void MultiStreamSession::feed(std::string_view bytes) {
  feed(bytes, nullptr, QueryGovernor(options_.deadline, options_.cancel));
}

void MultiStreamSession::feed(std::string_view bytes, const MatchSink& sink) {
  feed(bytes, &sink, QueryGovernor(options_.deadline, options_.cancel));
}

void MultiStreamSession::feed(std::string_view bytes, const MatchSink* sink,
                              const QueryGovernor& governor) {
  ensure_live();
  try {
    const QueryGovernor* gov = governor.active() ? &governor : nullptr;
    const MatchSink buffer = [this](const Match& match) { pending_.push_back(match); };
    const MatchSink& out = sink != nullptr ? *sink : buffer;
    // Each pattern translates the window with its own searcher map.
    const auto scan = [&](std::size_t p, const MatchSink& to) {
      const Dfa& searcher = patterns_[p].searcher();
      stream_find_feed(searcher, carries_[p], searcher.symbols().translate(bytes),
                       *pool_, options_, to, static_cast<std::uint32_t>(p), gov,
                       reverses_[p]);
    };
    if (patterns_.size() == 1) {
      // One pattern's matches are already in stream order: no fan-out, no
      // merge — the scan parallelizes at chunk level instead.
      scan(0, out);
      consumed_ += bytes.size();
      return;
    }
    // One task per pattern, each collecting into a private buffer (the
    // merge below needs the whole window's matches per pattern, so sinks
    // cannot stream through — and a shared sink would race).
    std::vector<std::vector<Match>> buffers(patterns_.size());
    pool_->run(
        patterns_.size(),
        [&](std::size_t p) {
          scan(p, [&buffers, p](const Match& match) { buffers[p].push_back(match); });
        },
        gov);
    consumed_ += bytes.size();

    // Merge, serialized per window: per-pattern buffers arrive ascending
    // (end, begin) already, so one sort by the global order is cheap and
    // deterministic (at most one match per (pattern, end) — no ties).
    fault::maybe_throw("mpstream.merge");
    std::vector<Match> merged;
    for (const std::vector<Match>& buffer : buffers)
      merged.insert(merged.end(), buffer.begin(), buffer.end());
    std::sort(merged.begin(), merged.end());
    for (const Match& match : merged) out(match);
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

std::vector<Match> MultiStreamSession::take_matches() {
  std::vector<Match> taken = std::move(pending_);
  pending_.clear();
  return taken;
}

std::uint64_t MultiStreamSession::matches() const {
  std::uint64_t total = 0;
  for (const FindCarry& carry : carries_) total += carry.matches;
  return total;
}

std::uint64_t MultiStreamSession::transitions() const {
  std::uint64_t total = 0;
  for (const FindCarry& carry : carries_) total += carry.transitions;
  return total;
}

void MultiStreamSession::reset() {
  carries_.assign(patterns_.size(), FindCarry{});
  pending_.clear();
  consumed_ = 0;
  poisoned_ = false;
}

}  // namespace rispar
