// Differential test for the interned-id mining core: an independent
// string-based reference derivation (std::set dedup, recursive multiset
// permutation, string subsequence tests and tie-breaks — the shape of the
// pre-interning implementation) must produce byte-identical
// DerivationResults to RuleDerivator on randomized observation stores, for
// every option combination and at any thread count. This is the proof that
// interning is a pure representation change.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/core/derivator.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace lockdoc {
namespace {

bool RefReportOrder(const Hypothesis& a, const Hypothesis& b) {
  if (a.sr != b.sr) {
    return a.sr > b.sr;
  }
  if (a.locks.size() != b.locks.size()) {
    return a.locks.size() < b.locks.size();
  }
  return a.locks < b.locks;
}

bool RefWinnerOrder(const Hypothesis& a, const Hypothesis& b) {
  if (a.sr != b.sr) {
    return a.sr < b.sr;
  }
  if (a.locks.size() != b.locks.size()) {
    return a.locks.size() > b.locks.size();
  }
  return a.locks < b.locks;
}

// Reference permutation enumeration: all distinct orderings of the multiset
// of locks in `seq`, via per-level multiset copies.
void RefPermute(const std::multiset<LockClass>& remaining, LockSeq* prefix,
                std::set<LockSeq>* out) {
  if (remaining.empty()) {
    out->insert(*prefix);
    return;
  }
  for (auto it = remaining.begin(); it != remaining.end();
       it = remaining.upper_bound(*it)) {
    std::multiset<LockClass> rest = remaining;
    rest.erase(rest.find(*it));
    prefix->push_back(*it);
    RefPermute(rest, prefix, out);
    prefix->pop_back();
  }
}

// The pre-interning derivation algorithm, kept deliberately naive.
DerivationResult ReferenceDerive(const ObservationStore& store, const MemberObsKey& key,
                                 AccessType access, const DerivatorOptions& options) {
  DerivationResult result;
  result.key = key;
  result.access = access;

  std::map<uint32_t, uint64_t> observed;
  for (const ObservationGroup& group : store.GroupsFor(key)) {
    if (group.effective() == access) {
      ++observed[group.lockseq_id];
      ++result.total;
    }
  }
  if (result.total == 0) {
    return result;
  }

  std::set<LockSeq> candidates;
  for (const auto& [seq_id, count] : observed) {
    for (const LockSeq& sub :
         EnumerateSubsequences(store.seq(seq_id), options.max_subset_locks)) {
      candidates.insert(sub);
    }
  }
  if (options.enumerate_permutations) {
    std::set<LockSeq> permuted;
    for (const LockSeq& seq : candidates) {
      if (seq.empty() || seq.size() > options.max_permutation_size) {
        continue;
      }
      LockSeq prefix;
      RefPermute(std::multiset<LockClass>(seq.begin(), seq.end()), &prefix, &permuted);
    }
    candidates.insert(permuted.begin(), permuted.end());
  }

  result.candidates_scored = candidates.size();
  for (const LockSeq& candidate : candidates) {
    Hypothesis hypothesis;
    hypothesis.locks = candidate;
    for (const auto& [seq_id, count] : observed) {
      if (IsSubsequence(candidate, store.seq(seq_id))) {
        hypothesis.sa += count;
      }
    }
    hypothesis.sr = static_cast<double>(hypothesis.sa) / static_cast<double>(result.total);
    result.hypotheses.push_back(std::move(hypothesis));
  }

  const Hypothesis* winner = nullptr;
  for (const Hypothesis& hypothesis : result.hypotheses) {
    if (hypothesis.sr + 1e-12 < options.accept_threshold) {
      continue;
    }
    if (winner == nullptr || RefWinnerOrder(hypothesis, *winner)) {
      winner = &hypothesis;
    }
  }
  result.winner = *winner;
  if (options.cutoff_threshold > 0.0) {
    std::erase_if(result.hypotheses, [&](const Hypothesis& h) {
      return h.sr < options.cutoff_threshold && h.locks != result.winner->locks;
    });
  }
  std::sort(result.hypotheses.begin(), result.hypotheses.end(), RefReportOrder);
  return result;
}

void ExpectSameResult(const DerivationResult& ref, const DerivationResult& got) {
  EXPECT_EQ(ref.key, got.key);
  EXPECT_EQ(ref.access, got.access);
  EXPECT_EQ(ref.total, got.total);
  EXPECT_EQ(ref.candidates_scored, got.candidates_scored);
  ASSERT_EQ(ref.winner.has_value(), got.winner.has_value());
  if (ref.winner.has_value()) {
    EXPECT_EQ(ref.winner->locks, got.winner->locks)
        << LockSeqToString(ref.winner->locks) << " vs "
        << LockSeqToString(got.winner->locks);
    EXPECT_EQ(ref.winner->sa, got.winner->sa);
    EXPECT_EQ(ref.winner->sr, got.winner->sr);
  }
  ASSERT_EQ(ref.hypotheses.size(), got.hypotheses.size());
  for (size_t i = 0; i < ref.hypotheses.size(); ++i) {
    EXPECT_EQ(ref.hypotheses[i].locks, got.hypotheses[i].locks)
        << "hypothesis " << i << ": " << LockSeqToString(ref.hypotheses[i].locks)
        << " vs " << LockSeqToString(got.hypotheses[i].locks);
    EXPECT_EQ(ref.hypotheses[i].sa, got.hypotheses[i].sa) << "hypothesis " << i;
    EXPECT_EQ(ref.hypotheses[i].sr, got.hypotheses[i].sr) << "hypothesis " << i;
  }
}

// A random multi-member store over a small shared lock vocabulary, so
// sequences overlap, share prefixes, and repeat classes (the cases where
// dedup and multiset permutation actually matter).
ObservationStore RandomStore(Rng& rng, size_t members, std::vector<MemberObsKey>* keys) {
  ObservationStore store;
  // Groups are drawn member by member, then appended in key order.
  struct Drawn {
    MemberObsKey key;
    ObservationGroup group;
    uint64_t seq = 0;
  };
  std::vector<Drawn> drawn;
  uint64_t txn = 0;
  for (size_t m = 0; m < members; ++m) {
    MemberObsKey key;
    key.type = static_cast<TypeId>(m % 3);
    key.subclass = kNoSubclass;
    key.member = static_cast<MemberIndex>(m);
    keys->push_back(key);
    size_t kinds = 1 + rng.Below(4);
    for (size_t k = 0; k < kinds; ++k) {
      LockSeq seq;
      size_t depth = rng.Below(5);
      for (size_t d = 0; d < depth; ++d) {
        // A vocabulary of 4 names across 2 scopes; repeats within one
        // sequence are likely.
        std::string name = StrFormat("g%d", static_cast<int>(rng.Below(4)));
        seq.push_back(rng.Below(2) == 0 ? LockClass::Global(name)
                                        : LockClass::Same(name, "inode"));
      }
      uint32_t seq_id = store.InternSeq(seq);
      uint64_t count = 1 + rng.Below(20);
      for (uint64_t n = 0; n < count; ++n) {
        ObservationGroup group;
        group.lockseq_id = seq_id;
        group.txn_id = txn++;
        group.alloc_id = 0;
        if (rng.Below(4) == 0) {
          group.n_reads = 1;
        } else {
          group.n_writes = 1;
        }
        drawn.push_back({key, group, txn});
      }
    }
  }
  std::stable_sort(drawn.begin(), drawn.end(),
                   [](const Drawn& a, const Drawn& b) { return a.key < b.key; });
  for (Drawn& entry : drawn) {
    entry.group.seqs = ColumnView(&entry.seq, sizeof(entry.seq), 1);
    store.AppendGroup(entry.key, entry.group);
  }
  return store;
}

class DerivatorDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DerivatorDifferentialTest, InternedPathMatchesStringReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 13);
  std::vector<MemberObsKey> keys;
  ObservationStore store = RandomStore(rng, 4, &keys);

  std::vector<DerivatorOptions> option_sets(4);
  option_sets[1].accept_threshold = 0.6;
  option_sets[1].cutoff_threshold = 0.3;
  option_sets[2].enumerate_permutations = true;
  option_sets[2].max_permutation_size = 3;
  option_sets[3].max_subset_locks = 2;  // Forces the bounded fallback.

  for (const DerivatorOptions& options : option_sets) {
    RuleDerivator derivator(options);
    for (const MemberObsKey& key : keys) {
      for (AccessType access : {AccessType::kRead, AccessType::kWrite}) {
        ExpectSameResult(ReferenceDerive(store, key, access, options),
                         derivator.Derive(store, key, access));
      }
    }
  }
}

TEST_P(DerivatorDifferentialTest, DeriveAllMatchesStringReferenceAtAnyJobCount) {
  // DeriveAll shards work items over the pool and shares the enumeration
  // cache across threads (call_once per entry) — running this under TSan is
  // the race check for the cache, and the comparison against the serial
  // string reference is the determinism check.
  Rng rng(static_cast<uint64_t>(GetParam()) * 40499 + 7);
  std::vector<MemberObsKey> keys;
  ObservationStore store = RandomStore(rng, 6, &keys);
  RuleDerivator derivator;

  std::vector<DerivationResult> reference;
  for (const MemberObsKey& key : store.keys()) {
    for (AccessType access : {AccessType::kRead, AccessType::kWrite}) {
      DerivationResult result = ReferenceDerive(store, key, access, derivator.options());
      if (result.observed()) {
        reference.push_back(std::move(result));
      }
    }
  }

  for (size_t jobs : {size_t{1}, size_t{4}}) {
    ThreadPool pool(jobs);
    std::vector<DerivationResult> got = derivator.DeriveAll(store, &pool);
    ASSERT_EQ(reference.size(), got.size()) << "jobs=" << jobs;
    for (size_t i = 0; i < reference.size(); ++i) {
      ExpectSameResult(reference[i], got[i]);
    }
  }
}

TEST(DerivatorDifferentialTest, IdEnumerationMirrorsStringEnumeration) {
  // The id enumeration must produce exactly the interned forms of the
  // string enumeration, both on the full-powerset path and on the bounded
  // fallback (max_locks below the sequence length).
  Rng rng(53);
  for (int trial = 0; trial < 50; ++trial) {
    LockClassPool pool;
    LockSeq seq;
    size_t depth = rng.Below(7);
    for (size_t d = 0; d < depth; ++d) {
      seq.push_back(LockClass::Global(StrFormat("g%d", static_cast<int>(rng.Below(4)))));
    }
    IdSeq ids = pool.InternSeq(seq);
    for (size_t max_locks : {size_t{2}, size_t{10}}) {
      std::vector<IdSeq> got = EnumerateSubsequenceIds(ids, max_locks);
      std::vector<IdSeq> expected;
      for (const LockSeq& sub : EnumerateSubsequences(seq, max_locks)) {
        std::optional<IdSeq> sub_ids = pool.FindSeq(sub);
        ASSERT_TRUE(sub_ids.has_value());
        expected.push_back(*sub_ids);
      }
      std::sort(expected.begin(), expected.end());
      expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
      EXPECT_EQ(got, expected) << LockSeqToString(seq) << " max_locks=" << max_locks;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerivatorDifferentialTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace lockdoc
