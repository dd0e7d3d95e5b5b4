// Hypothesis enumeration, support metrics, and winner selection
// (paper Sec. 4.3 / 5.4) — including the exact Tab. 2 numbers.
#include "src/core/derivator.h"

#include <gtest/gtest.h>

#include "src/core/clock_example.h"
#include "src/core/pipeline.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace lockdoc {
namespace {

// Builds a store with the given (sequence, count) observations for one key.
ObservationStore MakeStore(const std::vector<std::pair<LockSeq, uint64_t>>& observations,
                           MemberObsKey* key_out, AccessType access = AccessType::kWrite) {
  ObservationStore store;
  MemberObsKey key;
  key.type = 1;
  key.subclass = kNoSubclass;
  key.member = 0;
  *key_out = key;
  uint64_t txn = 0;
  for (const auto& [seq, count] : observations) {
    uint32_t seq_id = store.InternSeq(seq);
    for (uint64_t i = 0; i < count; ++i) {
      ObservationGroup group;
      group.lockseq_id = seq_id;
      group.txn_id = txn++;
      group.alloc_id = 0;
      if (access == AccessType::kWrite) {
        group.n_writes = 1;
      } else {
        group.n_reads = 1;
      }
      group.seqs = ColumnView(&group.txn_id, sizeof(group.txn_id), 1);
      store.AppendGroup(key, group);
    }
  }
  return store;
}

const LockClass kA = LockClass::Global("a");
const LockClass kB = LockClass::Global("b");
const LockClass kC = LockClass::Global("c");

TEST(EnumerateSubsequencesTest, PowersetOfDistinctLocks) {
  LockSeq seq = {kA, kB, kC};
  auto subsequences = EnumerateSubsequences(seq, 10);
  // 2^3 subsequences including the empty one.
  EXPECT_EQ(subsequences.size(), 8u);
}

TEST(EnumerateSubsequencesTest, DuplicatesDeduplicated) {
  LockSeq seq = {kA, kA};
  auto subsequences = EnumerateSubsequences(seq, 10);
  // {}, {a}, {a,a} — the two single-a subsequences collapse.
  EXPECT_EQ(subsequences.size(), 3u);
}

TEST(EnumerateSubsequencesTest, BoundedFallbackForLongSequences) {
  LockSeq seq;
  for (int i = 0; i < 12; ++i) {
    seq.push_back(LockClass::Global(StrFormat("l%d", i)));
  }
  auto subsequences = EnumerateSubsequences(seq, 10);
  // Singles + ordered pairs + prefixes + empty; far below 2^12.
  EXPECT_LT(subsequences.size(), 200u);
  // The full sequence must be included (it is the longest prefix).
  EXPECT_NE(std::find(subsequences.begin(), subsequences.end(), seq), subsequences.end());
}

TEST(EnumerateSubsequencesTest, SixtyFourLocksWithRaisedLimitDoesNotAbort) {
  // Regression: a 64-deep sequence with max_locks raised past it used to hit
  // the 1ULL << 64 overflow CHECK and abort. It must clamp into the bounded
  // fallback instead.
  LockSeq seq;
  for (int i = 0; i < 64; ++i) {
    seq.push_back(LockClass::Global(StrFormat("deep%d", i)));
  }
  auto subsequences = EnumerateSubsequences(seq, 100);
  EXPECT_GE(subsequences.size(), 64u);           // At least every single.
  EXPECT_LT(subsequences.size(), 64u * 64u);     // Far below any powerset.
  EXPECT_NE(std::find(subsequences.begin(), subsequences.end(), seq), subsequences.end());
}

TEST(EnumerateSubsequencesTest, BoundedFallbackEmitsMultiplicityRuns) {
  // Regression: the bounded fallback used to drop k-fold repeats of one
  // class unless they happened to form a prefix. A range lock held over
  // three spans inside one group must still yield {a,a,a} as a candidate.
  LockSeq seq;
  seq.push_back(kB);  // Non-prefix position for the repeats.
  for (int i = 0; i < 3; ++i) {
    seq.push_back(kA);
  }
  for (int i = 0; i < 10; ++i) {
    seq.push_back(LockClass::Global(StrFormat("pad%d", i)));
  }
  auto subsequences = EnumerateSubsequences(seq, 10);  // 14 locks -> fallback.
  LockSeq triple = {kA, kA, kA};
  EXPECT_NE(std::find(subsequences.begin(), subsequences.end(), triple),
            subsequences.end());
  // Runs of 1 and 2 come from the singles / ordered-pairs passes.
  LockSeq pair = {kA, kA};
  EXPECT_NE(std::find(subsequences.begin(), subsequences.end(), pair), subsequences.end());
  EXPECT_NE(std::find(subsequences.begin(), subsequences.end(), LockSeq{kA}),
            subsequences.end());
}

TEST(EnumerateSubsequencesTest, BoundedFallbackStaysBounded) {
  // The multiplicity-run extension must not reintroduce quadratic blowup:
  // the fallback remains O(n^2) candidates.
  LockSeq seq;
  for (int i = 0; i < 12; ++i) {
    seq.push_back(LockClass::Global(StrFormat("l%d", i % 4)));  // Heavy duplication.
  }
  auto subsequences = EnumerateSubsequences(seq, 10);
  EXPECT_LT(subsequences.size(), 200u);
  // Each of the four classes repeats three times; every triple run appears.
  for (int c = 0; c < 4; ++c) {
    LockClass cls = LockClass::Global(StrFormat("l%d", c));
    LockSeq run = {cls, cls, cls};
    EXPECT_NE(std::find(subsequences.begin(), subsequences.end(), run), subsequences.end());
  }
}

TEST(DerivatorTest, DeepLockSequenceWithRaisedLimitDerives) {
  // End-to-end version of the 64-lock regression: derivation over a store
  // whose only observation holds 64 locks, with max_subset_locks raised.
  LockSeq deep;
  for (int i = 0; i < 64; ++i) {
    deep.push_back(LockClass::Global(StrFormat("deep%d", i)));
  }
  MemberObsKey key;
  ObservationStore store = MakeStore({{deep, 3}}, &key);
  DerivatorOptions options;
  options.max_subset_locks = 128;
  RuleDerivator derivator(options);
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
  ASSERT_TRUE(result.winner.has_value());
  EXPECT_EQ(result.winner->locks, deep);  // The full sequence still wins.
  EXPECT_EQ(result.winner->sa, 3u);
}

TEST(DerivatorTest, UnobservedMemberYieldsNoWinner) {
  MemberObsKey key;
  ObservationStore store = MakeStore({}, &key);
  RuleDerivator derivator;
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
  EXPECT_FALSE(result.observed());
  EXPECT_FALSE(result.winner.has_value());
}

TEST(DerivatorTest, ConsistentLockingWinsOverNoLock) {
  MemberObsKey key;
  ObservationStore store = MakeStore({{{kA}, 100}}, &key);
  RuleDerivator derivator;
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
  ASSERT_TRUE(result.winner.has_value());
  // Both no-lock and {a} have sr=1; ties break toward more locks.
  EXPECT_EQ(result.winner->locks, (LockSeq{kA}));
  EXPECT_EQ(result.winner->sa, 100u);
}

TEST(DerivatorTest, LowestSupportAboveThresholdWins) {
  // 95 of 100 observations hold a->b; 5 only a. The full rule a->b (sr=0.95)
  // beats the sub-rule a (sr=1.0) — the paper's key selection insight.
  MemberObsKey key;
  ObservationStore store = MakeStore({{{kA, kB}, 95}, {{kA}, 5}}, &key);
  RuleDerivator derivator;
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
  EXPECT_EQ(result.winner->locks, (LockSeq{kA, kB}));
  EXPECT_DOUBLE_EQ(result.winner->sr, 0.95);
}

TEST(DerivatorTest, BelowThresholdFallsBackToNoLock) {
  // Only 60 % hold the lock: no lock hypothesis clears tac=0.9.
  MemberObsKey key;
  ObservationStore store = MakeStore({{{kA}, 60}, {{}, 40}}, &key);
  RuleDerivator derivator;
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
  EXPECT_TRUE(result.winner_is_no_lock());
}

TEST(DerivatorTest, ThresholdBoundaryExactlyAtTac) {
  MemberObsKey key;
  ObservationStore store = MakeStore({{{kA}, 90}, {{}, 10}}, &key);
  DerivatorOptions options;
  options.accept_threshold = 0.9;
  RuleDerivator derivator(options);
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
  // sr = 0.9 == tac: acceptable, and lower than no-lock's 1.0.
  EXPECT_EQ(result.winner->locks, (LockSeq{kA}));
}

TEST(DerivatorTest, AccessTypesDerivedIndependently) {
  MemberObsKey key;
  ObservationStore store = MakeStore({{{kA}, 10}}, &key, AccessType::kRead);
  RuleDerivator derivator;
  EXPECT_TRUE(derivator.Derive(store, key, AccessType::kRead).observed());
  EXPECT_FALSE(derivator.Derive(store, key, AccessType::kWrite).observed());
}

TEST(DerivatorTest, OrderingDistinguishedBySupport) {
  // a->b observed; b->a never. Both enumerated with permutations on.
  MemberObsKey key;
  ObservationStore store = MakeStore({{{kA, kB}, 10}}, &key);
  DerivatorOptions options;
  options.enumerate_permutations = true;
  RuleDerivator derivator(options);
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
  bool saw_reversed = false;
  for (const Hypothesis& h : result.hypotheses) {
    if (h.locks == (LockSeq{kB, kA})) {
      saw_reversed = true;
      EXPECT_EQ(h.sa, 0u);
    }
  }
  EXPECT_TRUE(saw_reversed);
}

TEST(DerivatorTest, CutoffPrunesReportButKeepsWinner) {
  MemberObsKey key;
  ObservationStore store = MakeStore({{{kA, kB}, 95}, {{kB}, 5}}, &key);
  DerivatorOptions options;
  options.cutoff_threshold = 0.5;
  RuleDerivator derivator(options);
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
  for (const Hypothesis& h : result.hypotheses) {
    EXPECT_TRUE(h.sr >= 0.5 || h.locks == result.winner->locks) << LockSeqToString(h.locks);
  }
}

TEST(DerivatorTest, HypothesesComeFromObservedCombinationsOnly) {
  MemberObsKey key;
  ObservationStore store = MakeStore({{{kA}, 5}, {{kB}, 5}}, &key);
  RuleDerivator derivator;
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
  // {a,b} was never observed as a combination, so no a->b hypothesis exists.
  for (const Hypothesis& h : result.hypotheses) {
    EXPECT_LT(h.locks.size(), 2u);
  }
}

TEST(DerivatorTest, ReproducesPaperTable2Exactly) {
  ClockExample example = BuildClockExample();
  PipelineOptions options;
  options.derivator.enumerate_permutations = true;
  PipelineResult result = RunPipeline(example.trace, *example.registry, options);

  MemberObsKey key;
  key.type = example.clock_type;
  key.subclass = kNoSubclass;
  key.member = example.minutes;
  RuleDerivator derivator(options.derivator);
  DerivationResult minutes = derivator.Derive(result.snapshot.observations, key, AccessType::kWrite);

  EXPECT_EQ(minutes.total, 17u);
  ASSERT_EQ(minutes.hypotheses.size(), 5u);

  auto support_of = [&](const LockSeq& locks) -> uint64_t {
    for (const Hypothesis& h : minutes.hypotheses) {
      if (h.locks == locks) {
        return h.sa;
      }
    }
    ADD_FAILURE() << "missing hypothesis " << LockSeqToString(locks);
    return 0;
  };
  const LockClass sec = LockClass::Global("sec_lock");
  const LockClass min = LockClass::Global("min_lock");
  EXPECT_EQ(support_of({}), 17u);
  EXPECT_EQ(support_of({sec}), 17u);
  EXPECT_EQ(support_of({min}), 16u);
  EXPECT_EQ(support_of({sec, min}), 16u);
  EXPECT_EQ(support_of({min, sec}), 0u);

  ASSERT_TRUE(minutes.winner.has_value());
  EXPECT_EQ(minutes.winner->locks, (LockSeq{sec, min}));
  EXPECT_NEAR(minutes.winner->sr, 16.0 / 17.0, 1e-9);
}

// Winner-selection laws under random observation mixes.
class WinnerLawTest : public ::testing::TestWithParam<int> {};

TEST_P(WinnerLawTest, WinnerAlwaysClearsThresholdAndExists) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  std::vector<std::pair<LockSeq, uint64_t>> observations;
  size_t kinds = 1 + rng.Below(4);
  for (size_t i = 0; i < kinds; ++i) {
    LockSeq seq;
    size_t depth = rng.Below(4);
    for (size_t d = 0; d < depth; ++d) {
      seq.push_back(LockClass::Global(StrFormat("g%d", static_cast<int>(rng.Below(5)))));
    }
    observations.push_back({seq, 1 + rng.Below(50)});
  }
  MemberObsKey key;
  ObservationStore store = MakeStore(observations, &key);
  DerivatorOptions options;
  options.accept_threshold = 0.7 + rng.NextDouble() * 0.3;
  RuleDerivator derivator(options);
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);

  ASSERT_TRUE(result.winner.has_value());
  EXPECT_GE(result.winner->sr + 1e-12, options.accept_threshold);
  // No acceptable hypothesis has strictly lower support than the winner.
  for (const Hypothesis& h : result.hypotheses) {
    if (h.sr + 1e-12 >= options.accept_threshold) {
      EXPECT_GE(h.sr + 1e-12, result.winner->sr);
    }
  }
  // Support of any hypothesis never exceeds the total.
  for (const Hypothesis& h : result.hypotheses) {
    EXPECT_LE(h.sa, result.total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WinnerLawTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace lockdoc
