#include "engine/device.hpp"

#include "parallel/match_count.hpp"
#include "parallel/thread_pool.hpp"

namespace rispar {

template <typename Source>
QueryResult Device::recognize_window(const Source& input, ThreadPool& pool,
                                     const QueryOptions& options) const {
  validate_query(options, kRecognizeCaps, device_context("recognize", variant()));
  const QueryGovernor own(options.deadline, options.cancel);
  StreamCarry carry;
  const WindowStats window =
      run_window(carry, input, pool, options, own.active() ? &own : nullptr);
  QueryResult result;
  result.accepted = stream_accepted(carry);
  result.transitions = carry.transitions;
  result.chunks = window.chunks;
  result.reach_seconds = window.reach_seconds;
  result.join_seconds = window.join_seconds;
  return result;
}

QueryResult Device::recognize(const MappedBytes& text, ThreadPool& pool,
                              const QueryOptions& options) const {
  return recognize_window(text, pool, options);
}

QueryResult Device::recognize(std::span<const Symbol> input, ThreadPool& pool,
                              const QueryOptions& options) const {
  return recognize_window(input, pool, options);
}

void Device::stream_feed(StreamCarry& carry, const MappedBytes& window,
                         ThreadPool& pool, const QueryOptions& options,
                         const QueryGovernor* governor) const {
  validate_query(options, kStreamCaps, device_context("stream", variant()));
  if (governor != nullptr) {
    run_window(carry, window, pool, options, governor->active() ? governor : nullptr);
    return;
  }
  // No caller governor: this feed's clock starts here.
  const QueryGovernor own(options.deadline, options.cancel);
  run_window(carry, window, pool, options, own.active() ? &own : nullptr);
}

}  // namespace rispar
