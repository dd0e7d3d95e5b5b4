// Micro-benchmark for the mini relational engine: insert, and
// indexed/unindexed lookup throughput. The key column is in key order with
// about eight rows per key, as the importer writes the looked-up columns
// (e.g. txn_locks.txn_id), so indexed lookups binary-search it.
#include <benchmark/benchmark.h>

#include "src/db/table.h"
#include "src/util/rng.h"

namespace lockdoc {
namespace {

Table BuildTable(size_t rows, bool indexed) {
  Table table("bench", {{"id", ColumnType::kUint64},
                        {"key", ColumnType::kUint64},
                        {"payload", ColumnType::kUint64}});
  Rng rng(5);
  for (size_t i = 0; i < rows; ++i) {
    table.Insert({static_cast<uint64_t>(i), static_cast<uint64_t>(i / 8), rng.Next()});
  }
  if (indexed) {
    table.CreateIndex(table.ColumnIndex("key"));
  }
  return table;
}

void BM_Insert(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Table table = BuildTable(rows, /*indexed=*/false);
    benchmark::DoNotOptimize(table.row_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_Insert)->Range(1024, 262144);

void BM_InsertIndexed(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Table table = BuildTable(rows, /*indexed=*/true);
    benchmark::DoNotOptimize(table.row_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_InsertIndexed)->Range(1024, 262144);

void BM_LookupIndexed(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Table table = BuildTable(rows, /*indexed=*/true);
  size_t key_col = table.ColumnIndex("key");
  Rng rng(7);
  for (auto _ : state) {
    auto hits = table.LookupEqual(key_col, rng.Below(rows / 8 + 1));
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_LookupIndexed)->Range(1024, 262144);

void BM_LookupScan(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Table table = BuildTable(rows, /*indexed=*/false);
  size_t key_col = table.ColumnIndex("key");
  Rng rng(7);
  for (auto _ : state) {
    auto hits = table.LookupEqual(key_col, rng.Below(rows / 8 + 1));
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_LookupScan)->Range(1024, 65536);

}  // namespace
}  // namespace lockdoc

BENCHMARK_MAIN();
