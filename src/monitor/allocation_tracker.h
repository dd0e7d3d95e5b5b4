// Replays allocation/deallocation events and answers "which observed
// allocation does this address belong to right now?" — the role of FAIL*'s
// MemoryAccessListener bookkeeping in the paper (Sec. 6): accesses are only
// attributable while the containing allocation is live, and addresses may be
// reused by later allocations.
#ifndef SRC_MONITOR_ALLOCATION_TRACKER_H_
#define SRC_MONITOR_ALLOCATION_TRACKER_H_

#include <map>
#include <optional>
#include <vector>

#include "src/model/ids.h"
#include "src/trace/event.h"

namespace lockdoc {

struct AllocationInfo {
  AllocationId id = 0;
  Address addr = 0;
  uint32_t size = 0;
  TypeId type = kInvalidTypeId;
  SubclassId subclass = kNoSubclass;
  uint64_t alloc_seq = 0;
  // kDbNull-like sentinel: UINT64_MAX when still live at end of trace.
  uint64_t free_seq = UINT64_MAX;
};

class AllocationTracker {
 public:
  // Processes a kAlloc event; returns the new allocation's id. If the
  // address is already live — possible in salvaged traces where the free
  // event was lost — the stale allocation is implicitly retired first and
  // its id is stored in `*displaced` (when non-null).
  AllocationId OnAlloc(const TraceEvent& event,
                       std::optional<AllocationId>* displaced = nullptr);

  // Processes a kFree event; returns the freed allocation's id, or nullopt
  // if the address was not tracked (tolerated: the trace may observe frees
  // of unobserved structures).
  std::optional<AllocationId> OnFree(const TraceEvent& event);

  // The live allocation containing `addr`, if any.
  std::optional<AllocationId> Find(Address addr) const;
  // Find, plus the end of the span from the allocation's start that Find
  // maps to the same allocation until the live set next changes (the
  // allocation's end, or the next live start if that comes first).
  std::optional<AllocationId> Find(Address addr, Address* span_end) const;

  // Lifetime record of any allocation ever seen (live or freed).
  const AllocationInfo& info(AllocationId id) const;
  size_t allocation_count() const { return allocations_.size(); }
  // Allocations still live (never freed so far).
  size_t live_count() const { return live_.size(); }
  const std::vector<AllocationInfo>& allocations() const { return allocations_; }

 private:
  std::vector<AllocationInfo> allocations_;
  // Live allocations keyed by start address.
  std::map<Address, AllocationId> live_;
};

}  // namespace lockdoc

#endif  // SRC_MONITOR_ALLOCATION_TRACKER_H_
