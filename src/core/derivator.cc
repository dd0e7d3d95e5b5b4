#include "src/core/derivator.h"

#include <algorithm>
#include <array>
#include <deque>
#include <map>

#include "src/util/logging.h"

namespace lockdoc {
namespace {

// One distinct observed lock sequence with its folded-observation count.
struct SeqCount {
  uint32_t seq_id = 0;
  uint64_t count = 0;
};

// A candidate hypothesis before string materialization: a borrowed id
// sequence (owned by the store's enumeration cache or by the permutation
// arena) plus its support.
struct ScoredCandidate {
  const IdSeq* ids = nullptr;
  uint64_t sa = 0;
  double sr = 0.0;
};

bool PtrSeqLess(const IdSeq* a, const IdSeq* b) { return *a < *b; }
bool PtrSeqEq(const IdSeq* a, const IdSeq* b) { return *a == *b; }

// Orders id sequences exactly as their materialized LockSeqs compare
// lexicographically, via the pool's rank table (see LexicographicRanks).
bool RankLess(const IdSeq& a, const IdSeq& b, const std::vector<uint32_t>& ranks) {
  size_t common = std::min(a.size(), b.size());
  for (size_t i = 0; i < common; ++i) {
    if (ranks[a[i]] != ranks[b[i]]) {
      return ranks[a[i]] < ranks[b[i]];
    }
  }
  return a.size() < b.size();
}

// Sorting for reports: descending sr, then shorter rules, then lexicographic
// (by rank — identical to comparing the materialized strings).
bool ReportOrderIds(const ScoredCandidate& a, const ScoredCandidate& b,
                    const std::vector<uint32_t>& ranks) {
  if (a.sr != b.sr) {
    return a.sr > b.sr;
  }
  if (a.ids->size() != b.ids->size()) {
    return a.ids->size() < b.ids->size();
  }
  return RankLess(*a.ids, *b.ids, ranks);
}

// Winner selection (Sec. 4.3): lowest support first, then MORE locks, then
// lexicographic for determinism.
bool WinnerOrderIds(const ScoredCandidate& a, const ScoredCandidate& b,
                    const std::vector<uint32_t>& ranks) {
  if (a.sr != b.sr) {
    return a.sr < b.sr;
  }
  if (a.ids->size() != b.ids->size()) {
    return a.ids->size() > b.ids->size();
  }
  return RankLess(*a.ids, *b.ids, ranks);
}

// The mining core for one (member, access) work item, on prefolded
// observation counts. `observed` must be sorted by seq_id with counts
// summing to `total`; `ranks` is the pool's lexicographic rank table.
DerivationResult DeriveFromCounts(const DerivatorOptions& options,
                                  const ObservationStore& store, const MemberObsKey& key,
                                  AccessType access, const std::vector<SeqCount>& observed,
                                  uint64_t total, const std::vector<uint32_t>& ranks) {
  DerivationResult result;
  result.key = key;
  result.access = access;
  result.total = total;
  if (total == 0) {
    return result;
  }

  // Enumerate candidate hypotheses from the observed combinations (never
  // the powerset of all locks in the system — Sec. 5.4). The hot path runs
  // entirely on interned id sequences: each distinct observed sequence's
  // subsequence powerset comes from the store's shared enumeration cache
  // (computed once per sequence, reused across all work items and threads),
  // and candidates are pointers into those cached vectors — no per-item
  // copies. Dedup is a flat sort+unique with integer-vector comparisons.
  std::vector<std::pair<const IdSeq*, uint64_t>> obs_seqs;
  std::vector<const std::vector<IdSeq>*> subseq_lists;
  obs_seqs.reserve(observed.size());
  subseq_lists.reserve(observed.size());
  size_t expansion = 0;
  for (const SeqCount& sc : observed) {
    obs_seqs.emplace_back(&store.id_seq(sc.seq_id), sc.count);
    subseq_lists.push_back(&store.CachedSubsequenceIds(sc.seq_id, options.max_subset_locks));
    expansion += subseq_lists.back()->size();
  }
  std::vector<const IdSeq*> candidates;
  candidates.reserve(expansion);
  for (const std::vector<IdSeq>* subs : subseq_lists) {
    for (const IdSeq& sub : *subs) {
      candidates.push_back(&sub);
    }
  }
  std::sort(candidates.begin(), candidates.end(), PtrSeqLess);
  candidates.erase(std::unique(candidates.begin(), candidates.end(), PtrSeqEq),
                   candidates.end());

  // Permutations, when enabled, are generated in place (sort +
  // next_permutation; no per-level multiset copies) into a deque arena so
  // the candidate pointers stay stable. Permuting the deduplicated
  // subsequences yields the same candidate set as permuting each
  // subsequence per observed combination: permutations depend only on the
  // subsequence's multiset of locks.
  std::deque<IdSeq> perm_arena;
  if (options.enumerate_permutations) {
    size_t base = candidates.size();
    for (size_t i = 0; i < base; ++i) {
      if (candidates[i]->empty() || candidates[i]->size() > options.max_permutation_size) {
        continue;
      }
      IdSeq elems = *candidates[i];
      std::sort(elems.begin(), elems.end());
      do {
        perm_arena.push_back(elems);
        candidates.push_back(&perm_arena.back());
      } while (std::next_permutation(elems.begin(), elems.end()));
    }
    std::sort(candidates.begin(), candidates.end(), PtrSeqLess);
    candidates.erase(std::unique(candidates.begin(), candidates.end(), PtrSeqEq),
                     candidates.end());
  }

  // Score each candidate with the two-pointer integer subsequence test.
  result.candidates_scored = candidates.size();
  std::vector<ScoredCandidate> scored;
  scored.reserve(candidates.size());
  for (const IdSeq* candidate : candidates) {
    ScoredCandidate entry;
    entry.ids = candidate;
    for (const auto& [seq, count] : obs_seqs) {
      if (IsSubsequenceIds(*candidate, *seq)) {
        entry.sa += count;
      }
    }
    entry.sr = static_cast<double>(entry.sa) / static_cast<double>(total);
    scored.push_back(entry);
  }

  // Winner selection among candidates clearing the acceptance threshold —
  // on ids; rank comparisons reproduce the string tie-break exactly.
  const ScoredCandidate* winner = nullptr;
  for (const ScoredCandidate& entry : scored) {
    if (entry.sr + 1e-12 < options.accept_threshold) {
      continue;
    }
    if (winner == nullptr || WinnerOrderIds(entry, *winner, ranks)) {
      winner = &entry;
    }
  }
  // The no-lock hypothesis always clears the threshold, so a winner exists.
  LOCKDOC_CHECK(winner != nullptr);
  const IdSeq* winner_ids = winner->ids;
  Hypothesis winner_hypothesis;
  winner_hypothesis.sa = winner->sa;
  winner_hypothesis.sr = winner->sr;
  winner_hypothesis.locks = store.pool().Materialize(*winner_ids);

  // Apply the report cutoff and sort for presentation, still on ids.
  // Candidates are deduplicated, so pointer identity against the winner is
  // equivalent to the locks-inequality test on materialized strings.
  if (options.cutoff_threshold > 0.0) {
    std::erase_if(scored, [&](const ScoredCandidate& entry) {
      return entry.sr < options.cutoff_threshold && entry.ids != winner_ids;
    });
  }
  std::sort(scored.begin(), scored.end(),
            [&ranks](const ScoredCandidate& a, const ScoredCandidate& b) {
              return ReportOrderIds(a, b, ranks);
            });

  // Lock-class strings materialize only here, at the result boundary, for
  // the hypotheses that survived the cutoff.
  result.hypotheses.reserve(scored.size());
  for (const ScoredCandidate& entry : scored) {
    Hypothesis hypothesis;
    hypothesis.sa = entry.sa;
    hypothesis.sr = entry.sr;
    hypothesis.locks = store.pool().Materialize(*entry.ids);
    result.hypotheses.push_back(std::move(hypothesis));
  }
  result.winner = std::move(winner_hypothesis);
  return result;
}

}  // namespace

std::vector<LockSeq> EnumerateSubsequences(const LockSeq& seq, size_t max_locks) {
  // Reference (string-based) enumeration; the hot path uses the interned
  // mirror EnumerateSubsequenceIds via the ObservationStore cache. Both
  // produce the same sorted deduplicated sequence set (pinned by the
  // differential test).
  std::vector<LockSeq> result;
  result.push_back(LockSeq{});
  // The bitmask powerset cannot represent >= 64 locks; such sequences only
  // appear in salvaged or adversarial traces with a raised max_locks, and
  // clamp into the bounded fallback instead of aborting.
  if (seq.size() <= max_locks && seq.size() < 64) {
    // Full subsequence powerset via bitmask.
    uint64_t limit = 1ULL << seq.size();
    result.reserve(static_cast<size_t>(limit));
    for (uint64_t mask = 1; mask < limit; ++mask) {
      LockSeq subsequence;
      for (size_t i = 0; i < seq.size(); ++i) {
        if ((mask >> i) & 1) {
          subsequence.push_back(seq[i]);
        }
      }
      result.push_back(std::move(subsequence));
    }
  } else {
    // Bounded fallback: singles, ordered pairs, prefixes, full sequence,
    // and per-class multiplicity runs.
    result.reserve(1 + seq.size() * (seq.size() + 1) / 2 + 2 * seq.size());
    for (size_t i = 0; i < seq.size(); ++i) {
      result.push_back(LockSeq{seq[i]});
      for (size_t j = i + 1; j < seq.size(); ++j) {
        result.push_back(LockSeq{seq[i], seq[j]});
      }
    }
    LockSeq prefix;
    for (const LockClass& lock : seq) {
      prefix.push_back(lock);
      result.push_back(prefix);
    }
    // A class held k >= 3 times in one group (e.g. the same range lock over
    // several spans) must yield the k-fold repeat as a candidate even when
    // the copies are not a prefix: {x, a, a, a} needs {a, a, a}. Runs of 1
    // and 2 are already covered by the singles and ordered pairs above.
    std::map<LockClass, size_t> multiplicity;
    for (const LockClass& lock : seq) {
      ++multiplicity[lock];
    }
    for (const auto& [lock, count] : multiplicity) {
      LockSeq run;
      for (size_t k = 1; k <= count; ++k) {
        run.push_back(lock);
        if (k >= 3) {
          result.push_back(run);
        }
      }
    }
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

RuleDerivator::RuleDerivator(DerivatorOptions options) : options_(options) {
  LOCKDOC_CHECK(options_.accept_threshold > 0.0 && options_.accept_threshold <= 1.0);
}

DerivationResult RuleDerivator::Derive(const ObservationStore& store, const MemberObsKey& key,
                                       AccessType access) const {
  // Fold the member's groups into distinct-sequence counts with a flat
  // counts array indexed by the (dense) sequence id — no node-based map on
  // the hot path. DeriveAll prefolds both access types in one pass instead
  // of calling this per item.
  std::vector<uint64_t> counts(store.distinct_seqs(), 0);
  std::vector<uint32_t> touched;
  uint64_t total = 0;
  for (const ObservationGroup& group : store.GroupsFor(key)) {
    if (group.effective() != access) {
      continue;
    }
    LOCKDOC_CHECK(group.lockseq_id < counts.size());
    if (counts[group.lockseq_id]++ == 0) {
      touched.push_back(group.lockseq_id);
    }
    ++total;
  }
  std::sort(touched.begin(), touched.end());
  std::vector<SeqCount> observed;
  observed.reserve(touched.size());
  for (uint32_t seq_id : touched) {
    observed.push_back({seq_id, counts[seq_id]});
  }
  return DeriveFromCounts(options_, store, key, access, observed, total,
                          store.pool().LexicographicRanks());
}

std::vector<DerivationResult> RuleDerivator::DeriveAll(const ObservationStore& store,
                                                       ThreadPool* pool) const {
  // Work items in key order (the store's keys are sorted), with the observed
  // counts for both access types prefolded in one serial pass per member.
  // Each item writes only its own slot and the observed() filter below runs
  // in item order, so results are byte-identical at any thread count.
  struct WorkItem {
    MemberObsKey key;
    AccessType access = AccessType::kRead;
    std::vector<SeqCount> observed;
    uint64_t total = 0;
  };
  std::vector<WorkItem> items;
  items.reserve(store.keys().size() * 2);
  std::array<std::vector<uint64_t>, 2> counts;
  std::array<std::vector<uint32_t>, 2> touched;
  counts.fill(std::vector<uint64_t>(store.distinct_seqs(), 0));
  for (size_t k = 0; k < store.keys().size(); ++k) {
    const MemberObsKey& key = store.keys()[k];
    for (const ObservationGroup& group : store.GroupsAt(k)) {
      size_t side = group.effective() == AccessType::kWrite ? 1 : 0;
      LOCKDOC_CHECK(group.lockseq_id < counts[side].size());
      if (counts[side][group.lockseq_id]++ == 0) {
        touched[side].push_back(group.lockseq_id);
      }
    }
    for (AccessType access : {AccessType::kRead, AccessType::kWrite}) {
      size_t side = access == AccessType::kWrite ? 1 : 0;
      WorkItem item;
      item.key = key;
      item.access = access;
      std::sort(touched[side].begin(), touched[side].end());
      item.observed.reserve(touched[side].size());
      for (uint32_t seq_id : touched[side]) {
        item.observed.push_back({seq_id, counts[side][seq_id]});
        item.total += counts[side][seq_id];
        counts[side][seq_id] = 0;  // Reset only touched entries for the next key.
      }
      touched[side].clear();
      items.push_back(std::move(item));
    }
  }

  // The rank table is computed once and shared read-only by every item.
  const std::vector<uint32_t> ranks = store.pool().LexicographicRanks();
  std::vector<DerivationResult> slots(items.size());
  auto derive_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      slots[i] = DeriveFromCounts(options_, store, items[i].key, items[i].access,
                                  items[i].observed, items[i].total, ranks);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(items.size(), derive_range);
  } else {
    derive_range(0, items.size());
  }

  std::vector<DerivationResult> results;
  for (DerivationResult& result : slots) {
    if (result.observed()) {
      results.push_back(std::move(result));
    }
  }
  return results;
}

}  // namespace lockdoc
