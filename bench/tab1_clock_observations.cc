// Tab. 1 reproduction: accesses to `seconds` and `minutes` grouped by
// access type for one execution of the clock example's transactions a and
// b — observed counts, folded counts, and the write-over-read matrix.
#include <cstdio>
#include <optional>

#include "src/core/clock_example.h"
#include "src/core/pipeline.h"
#include "src/util/stats.h"

using namespace lockdoc;

namespace {

struct Cell {
  uint32_t observed_r = 0, observed_w = 0;
  uint32_t folded_r = 0, folded_w = 0;
  uint32_t wor_r = 0, wor_w = 0;
};

// Extracts the matrix for the FIRST transaction whose lock sequence matches
// `txn_locks` (one execution, as in the paper's table).
Cell ExtractCell(const ObservationStore& store, const MemberObsKey& key,
                 const std::string& txn_locks) {
  Cell cell;
  std::optional<ObservationGroup> first;
  for (const ObservationGroup& group : store.GroupsFor(key)) {
    if (LockSeqToString(store.seq(group.lockseq_id)) != txn_locks) {
      continue;
    }
    if (!first.has_value() || group.txn_id < first->txn_id) {
      first = group;
    }
  }
  if (first.has_value()) {
    cell.observed_r = first->n_reads;
    cell.observed_w = first->n_writes;
    cell.folded_r = first->n_reads > 0 ? 1 : 0;
    cell.folded_w = first->n_writes > 0 ? 1 : 0;
    cell.wor_r = (first->effective() == AccessType::kRead) ? 1 : 0;
    cell.wor_w = (first->effective() == AccessType::kWrite) ? 1 : 0;
  }
  return cell;
}

}  // namespace

int main() {
  ClockExampleOptions options;
  options.iterations = 60;  // One full minute: exactly one txn a and one txn b.
  options.include_faulty_execution = false;
  ClockExample example = BuildClockExample(options);

  PipelineResult result = RunPipeline(example.trace, *example.registry);

  std::printf("Tab. 1 — accesses to seconds and minutes for one execution\n");
  std::printf("(a = sec_lock only; b = sec_lock -> min_lock)\n\n");

  TextTable table({"Variable", "Type", "Observed a", "Observed b", "Folded a", "Folded b",
                   "WoR a", "WoR b"});
  for (const char* member_name : {"seconds", "minutes"}) {
    MemberObsKey key;
    key.type = example.clock_type;
    key.subclass = kNoSubclass;
    key.member = (member_name == std::string("seconds")) ? example.seconds : example.minutes;
    Cell a = ExtractCell(result.snapshot.observations, key, "sec_lock");
    Cell b = ExtractCell(result.snapshot.observations, key, "sec_lock -> min_lock");
    table.AddRow({member_name, "r", std::to_string(a.observed_r), std::to_string(b.observed_r),
                  std::to_string(a.folded_r), std::to_string(b.folded_r),
                  std::to_string(a.wor_r), std::to_string(b.wor_r)});
    table.AddRow({member_name, "w", std::to_string(a.observed_w), std::to_string(b.observed_w),
                  std::to_string(a.folded_w), std::to_string(b.folded_w),
                  std::to_string(a.wor_w), std::to_string(b.wor_w)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\npaper Tab. 1: seconds r: 2/0|1/0|0/0, seconds w: 1/1|1/1|1/1,\n");
  std::printf("              minutes r: 0/1|0/1|0/0, minutes w: 0/1|0/1|0/1\n");
  return 0;
}
