#include "src/monitor/allocation_tracker.h"

#include <algorithm>

#include "src/util/logging.h"

namespace lockdoc {

AllocationId AllocationTracker::OnAlloc(const TraceEvent& event,
                                        std::optional<AllocationId>* displaced) {
  LOCKDOC_CHECK(event.kind == EventKind::kAlloc);
  if (displaced != nullptr) {
    displaced->reset();
  }
  AllocationInfo info;
  info.id = allocations_.size();
  info.addr = event.addr;
  info.size = event.size;
  info.type = event.type;
  info.subclass = event.subclass;
  info.alloc_seq = event.seq;
  // An already-live address means the free event was lost (salvaged trace)
  // or the trace is corrupt: retire the stale allocation at this point so
  // later accesses attribute to the new lifetime.
  auto it = live_.find(event.addr);
  if (it != live_.end()) {
    allocations_[it->second].free_seq = event.seq;
    if (displaced != nullptr) {
      *displaced = it->second;
    }
    live_.erase(it);
  }
  live_.emplace(event.addr, info.id);
  allocations_.push_back(info);
  return info.id;
}

std::optional<AllocationId> AllocationTracker::OnFree(const TraceEvent& event) {
  LOCKDOC_CHECK(event.kind == EventKind::kFree);
  auto it = live_.find(event.addr);
  if (it == live_.end()) {
    return std::nullopt;
  }
  AllocationId id = it->second;
  allocations_[id].free_seq = event.seq;
  live_.erase(it);
  return id;
}

std::optional<AllocationId> AllocationTracker::Find(Address addr) const {
  Address span_end = 0;
  return Find(addr, &span_end);
}

std::optional<AllocationId> AllocationTracker::Find(Address addr, Address* span_end) const {
  auto it = live_.upper_bound(addr);
  const Address next_start = it == live_.end() ? UINT64_MAX : it->first;
  if (it == live_.begin()) {
    return std::nullopt;
  }
  --it;
  const AllocationInfo& info = allocations_[it->second];
  if (addr >= info.addr && addr < info.addr + info.size) {
    *span_end = std::min<Address>(info.addr + info.size, next_start);
    return info.id;
  }
  return std::nullopt;
}

const AllocationInfo& AllocationTracker::info(AllocationId id) const {
  LOCKDOC_CHECK(id < allocations_.size());
  return allocations_[id];
}

}  // namespace lockdoc
