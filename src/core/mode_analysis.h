// Acquisition-mode analysis — a refinement beyond the paper's rule model.
//
// LockDoc's rules say WHICH locks protect a member, but reader/writer
// primitives (rw_semaphore, rwlock_t) make the acquisition MODE part of the
// contract: a shared (reader) hold permits concurrent readers, so a *write*
// to the protected member under a merely-shared hold is a latent data race
// even though the lock itself is held. This module annotates each winning
// rule's locks with the observed shared/exclusive mode distribution and
// flags write rules that are satisfied by shared holds.
#ifndef SRC_CORE_MODE_ANALYSIS_H_
#define SRC_CORE_MODE_ANALYSIS_H_

#include <string>
#include <vector>

#include "src/core/analysis_context.h"
#include "src/core/derivator.h"
#include "src/db/database.h"
#include "src/model/type_registry.h"

namespace lockdoc {

// Mode distribution of one lock within one winning rule.
struct ModeUsage {
  LockClass lock;
  uint64_t shared = 0;     // Complying observations holding the lock shared.
  uint64_t exclusive = 0;  // ... holding it exclusively.

  double shared_fraction() const {
    uint64_t total = shared + exclusive;
    return total == 0 ? 0.0 : static_cast<double>(shared) / static_cast<double>(total);
  }
};

struct ModeReportEntry {
  MemberObsKey key;
  AccessType access = AccessType::kRead;
  LockSeq rule;
  std::vector<ModeUsage> usages;  // One per rule lock, in rule order.
  // True when a WRITE rule's lock is held shared in at least one complying
  // observation — the latent-race pattern this analysis exists to find.
  bool suspicious = false;
};

class ModeAnalyzer {
 public:
  // Analyzes `context`'s snapshot. `context` must outlive the analyzer and
  // carry a type registry.
  explicit ModeAnalyzer(AnalysisContext& context);

  // Annotates every derivation result with a non-empty winner. Each
  // complying group's held locks are walked in acquisition order, as
  // ClassifyHeldLocks lists them, and greedily matched against the winner on
  // interned lock ids. Results are sharded over the context's pool; entries
  // are in `results` order at any thread count.
  std::vector<ModeReportEntry> Analyze(const std::vector<DerivationResult>& results) const;

  // Only the suspicious entries (writes under shared holds).
  std::vector<ModeReportEntry> FindSharedModeWrites(
      const std::vector<DerivationResult>& results) const;

  // Text rendering of one entry (the report IR keeps one node per entry).
  std::string RenderEntry(const ModeReportEntry& entry) const;

 private:
  AnalysisContext* context_;
  const Database* db_;
  const TypeRegistry* registry_;
  const ObservationStore* store_;
};

}  // namespace lockdoc

#endif  // SRC_CORE_MODE_ANALYSIS_H_
