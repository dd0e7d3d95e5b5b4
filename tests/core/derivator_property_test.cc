// Property sweeps over the derivator's threshold behaviour — the laws
// behind the paper's Fig. 7.
#include <gtest/gtest.h>

#include "src/core/derivator.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace lockdoc {
namespace {

// A random observation store for one member: a few distinct lock
// combinations with random counts, plus optional lock-free observations.
ObservationStore RandomStore(Rng& rng, MemberObsKey* key_out) {
  ObservationStore store;
  MemberObsKey key;
  key.type = 1;
  key.subclass = kNoSubclass;
  key.member = 0;
  *key_out = key;
  uint64_t txn = 0;
  size_t kinds = 1 + rng.Below(5);
  for (size_t i = 0; i < kinds; ++i) {
    LockSeq seq;
    size_t depth = rng.Below(4);
    for (size_t d = 0; d < depth; ++d) {
      seq.push_back(LockClass::Global(StrFormat("g%d", static_cast<int>(rng.Below(6)))));
    }
    uint32_t seq_id = store.InternSeq(seq);
    uint64_t count = 1 + rng.Below(40);
    for (uint64_t n = 0; n < count; ++n) {
      ObservationGroup group;
      group.lockseq_id = seq_id;
      group.txn_id = txn++;
      group.alloc_id = 0;
      group.n_writes = 1;
      const uint64_t seq = txn;
      group.seqs = ColumnView(&seq, sizeof(seq), 1);
      store.AppendGroup(key, group);
    }
  }
  return store;
}

class DerivatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DerivatorPropertyTest, NoLockWinnerIsMonotoneInThreshold) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 65537 + 3);
  MemberObsKey key;
  ObservationStore store = RandomStore(rng, &key);

  bool was_no_lock = false;
  for (double tac : {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}) {
    DerivatorOptions options;
    options.accept_threshold = tac;
    RuleDerivator derivator(options);
    DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
    ASSERT_TRUE(result.winner.has_value());
    bool is_no_lock = result.winner_is_no_lock();
    // Once "no lock" wins at some threshold, it wins at every higher one
    // (raising tac only disqualifies lock hypotheses).
    if (was_no_lock) {
      EXPECT_TRUE(is_no_lock) << "tac=" << tac;
    }
    was_no_lock = is_no_lock;
  }
}

TEST_P(DerivatorPropertyTest, WinnerSupportNeverBelowThreshold) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 40503 + 17);
  MemberObsKey key;
  ObservationStore store = RandomStore(rng, &key);
  for (double tac : {0.55, 0.75, 0.9, 1.0}) {
    DerivatorOptions options;
    options.accept_threshold = tac;
    RuleDerivator derivator(options);
    DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
    EXPECT_GE(result.winner->sr + 1e-12, tac);
  }
}

TEST_P(DerivatorPropertyTest, WinnerSupportIsNonDecreasingInThreshold) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 29);
  MemberObsKey key;
  ObservationStore store = RandomStore(rng, &key);
  double last_sr = 0.0;
  for (double tac : {0.5, 0.7, 0.9, 1.0}) {
    DerivatorOptions options;
    options.accept_threshold = tac;
    RuleDerivator derivator(options);
    DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
    // The winner is the minimum-support acceptable hypothesis; shrinking the
    // acceptable set (raising tac) can only raise that minimum.
    EXPECT_GE(result.winner->sr + 1e-12, last_sr);
    last_sr = result.winner->sr;
  }
}

TEST_P(DerivatorPropertyTest, SubsequenceClosureOfSupport) {
  // Dropping locks from a hypothesis never lowers its support: for every
  // reported hypothesis, each of its sub-hypotheses that is also reported
  // has sa at least as large.
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 5);
  MemberObsKey key;
  ObservationStore store = RandomStore(rng, &key);
  RuleDerivator derivator;
  DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
  for (const Hypothesis& a : result.hypotheses) {
    for (const Hypothesis& b : result.hypotheses) {
      if (IsSubsequence(a.locks, b.locks)) {
        EXPECT_GE(a.sa, b.sa) << LockSeqToString(a.locks) << " subset of "
                              << LockSeqToString(b.locks);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerivatorPropertyTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace lockdoc
