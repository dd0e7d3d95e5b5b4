// Ablation micro-benchmarks for the locking-rule derivator: hypothesis
// enumeration cost against combination size and observation count. Validates
// the paper's design decision (Sec. 5.4) to enumerate subsets of *observed*
// lock combinations instead of the powerset of all locks in the system, and
// quantifies the cost of the optional order-permutation enumeration.
#include <algorithm>
#include <utility>

#include <benchmark/benchmark.h>

#include "src/core/derivator.h"
#include "src/core/observations.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace lockdoc {
namespace {

// Builds an observation store with `distinct` lock combinations of length
// `depth`, `observations` folded observations total.
ObservationStore BuildStore(size_t depth, size_t distinct, size_t observations,
                            MemberObsKey* key_out) {
  ObservationStore store;
  MemberObsKey key;
  key.type = 0;
  key.subclass = kNoSubclass;
  key.member = 0;
  *key_out = key;

  Rng rng(99);
  std::vector<uint32_t> seq_ids;
  for (size_t d = 0; d < distinct; ++d) {
    LockSeq seq;
    for (size_t i = 0; i < depth; ++i) {
      seq.push_back(LockClass::Global(StrFormat("lock_%zu_%zu", d, i)));
    }
    seq_ids.push_back(store.InternSeq(seq));
  }
  for (size_t i = 0; i < observations; ++i) {
    ObservationGroup group;
    group.lockseq_id = seq_ids[rng.Below(seq_ids.size())];
    group.txn_id = i;
    group.alloc_id = 1;
    group.n_writes = 1;
    group.seqs = ColumnView(&group.txn_id, sizeof(group.txn_id), 1);
    store.AppendGroup(key, group);
  }
  return store;
}

// Like BuildStore, but spreads observations over `members` populations so
// DeriveAll has enough independent work items to distribute across threads.
ObservationStore BuildWideStore(size_t members, size_t depth, size_t distinct,
                                size_t observations_per_member) {
  ObservationStore store;
  Rng rng(99);
  std::vector<uint32_t> seq_ids;
  for (size_t d = 0; d < distinct; ++d) {
    LockSeq seq;
    for (size_t i = 0; i < depth; ++i) {
      seq.push_back(LockClass::Global(StrFormat("lock_%zu_%zu", d, i)));
    }
    seq_ids.push_back(store.InternSeq(seq));
  }
  // Groups are appended in key order.
  std::vector<std::pair<MemberObsKey, size_t>> keys;
  for (size_t m = 0; m < members; ++m) {
    MemberObsKey key;
    key.type = static_cast<TypeId>(m % 7);
    key.subclass = kNoSubclass;
    key.member = static_cast<MemberIndex>(m);
    keys.emplace_back(key, m);
  }
  std::sort(keys.begin(), keys.end());
  for (const auto& [key, m] : keys) {
    for (size_t i = 0; i < observations_per_member; ++i) {
      ObservationGroup group;
      group.lockseq_id = seq_ids[rng.Below(seq_ids.size())];
      group.txn_id = m * observations_per_member + i;
      group.alloc_id = 1;
      if (i % 3 == 0) {
        group.n_reads = 1;
      } else {
        group.n_writes = 1;
      }
      const uint64_t seq = i;
      group.seqs = ColumnView(&seq, sizeof(seq), 1);
      store.AppendGroup(key, group);
    }
  }
  return store;
}

// The tentpole scaling benchmark: DeriveAll over a wide store at 1/2/4/8
// threads. Real time (not CPU time) is the interesting axis; the "jobs"
// counter records the sweep point in the benchmark JSON.
void BM_DeriveAllJobs(benchmark::State& state) {
  size_t jobs = static_cast<size_t>(state.range(0));
  ObservationStore store = BuildWideStore(64, 4, 6, 512);
  RuleDerivator derivator;
  ThreadPool pool(jobs);
  for (auto _ : state) {
    std::vector<DerivationResult> results = derivator.DeriveAll(store, &pool);
    benchmark::DoNotOptimize(results);
  }
  state.counters["jobs"] = static_cast<double>(pool.thread_count());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64 * 2);
}
BENCHMARK(BM_DeriveAllJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_DeriveByDepth(benchmark::State& state) {
  size_t depth = static_cast<size_t>(state.range(0));
  MemberObsKey key;
  ObservationStore store = BuildStore(depth, 4, 2048, &key);
  RuleDerivator derivator;
  for (auto _ : state) {
    DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2048);
}
BENCHMARK(BM_DeriveByDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_DeriveByObservations(benchmark::State& state) {
  size_t observations = static_cast<size_t>(state.range(0));
  MemberObsKey key;
  ObservationStore store = BuildStore(3, 4, observations, &key);
  RuleDerivator derivator;
  for (auto _ : state) {
    DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(observations));
}
BENCHMARK(BM_DeriveByObservations)->Range(64, 65536);

void BM_DeriveWithPermutations(benchmark::State& state) {
  size_t depth = static_cast<size_t>(state.range(0));
  MemberObsKey key;
  ObservationStore store = BuildStore(depth, 4, 2048, &key);
  DerivatorOptions options;
  options.enumerate_permutations = true;
  options.max_permutation_size = depth;
  RuleDerivator derivator(options);
  for (auto _ : state) {
    DerivationResult result = derivator.Derive(store, key, AccessType::kWrite);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DeriveWithPermutations)->Arg(2)->Arg(3)->Arg(4);

void BM_EnumerateSubsequences(benchmark::State& state) {
  size_t depth = static_cast<size_t>(state.range(0));
  LockSeq seq;
  for (size_t i = 0; i < depth; ++i) {
    seq.push_back(LockClass::Global(StrFormat("lock_%zu", i)));
  }
  for (auto _ : state) {
    auto subsequences = EnumerateSubsequences(seq, 10);
    benchmark::DoNotOptimize(subsequences);
  }
}
BENCHMARK(BM_EnumerateSubsequences)->DenseRange(2, 10, 2);

}  // namespace
}  // namespace lockdoc

BENCHMARK_MAIN();
