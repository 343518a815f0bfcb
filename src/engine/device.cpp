#include "engine/device.hpp"

#include "parallel/match_count.hpp"
#include "parallel/thread_pool.hpp"

namespace rispar {

void Device::stream_feed(StreamCarry& carry, std::span<const Symbol> window,
                         ThreadPool& pool, const QueryOptions& options,
                         const QueryGovernor* governor) const {
  validate_query(options, kStreamCaps, device_context("stream", variant()));
  if (governor != nullptr) {
    stream_window(carry, window, pool, options, governor->active() ? governor : nullptr);
    return;
  }
  // No caller governor: this feed's clock starts here.
  const QueryGovernor own(options.deadline, options.cancel);
  stream_window(carry, window, pool, options, own.active() ? &own : nullptr);
}

}  // namespace rispar
