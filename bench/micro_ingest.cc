// Micro-benchmark for the ingest path: the overlapped parallel import
// (trace -> .lockdb on disk) at several job counts, and the load side — the
// v2 zero-copy mmap load vs the v1 varint deserialize vs rebuilding the
// snapshot from the trace. The load comparison is what the v2 container
// buys; the jobs sweep is bounded by the host's core count (a single-core
// machine shows overhead, not speedup — see BENCH_ingest.json's context).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/core/pipeline.h"
#include "src/core/snapshot.h"
#include "src/util/file_io.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

uint64_t BenchOps() {
  uint64_t ops = 100000;
  if (const char* env = std::getenv("LOCKDOC_BENCH_OPS"); env != nullptr) {
    uint64_t parsed = 0;
    if (ParseUint64(env, &parsed) && parsed > 0) {
      ops = parsed;
    }
  }
  return ops;
}

struct Fixture {
  SimulationResult sim;
  PipelineOptions options;
  std::string dir;
  std::string v1_path;
  std::string v2_path;
  uint64_t v2_bytes = 0;

  Fixture() {
    MixOptions mix;
    mix.ops = BenchOps();
    mix.seed = 5;
    sim = SimulateKernelRun(mix, FaultPlan{});
    options.filter = VfsKernel::MakeFilterConfig();

    dir = (std::filesystem::temp_directory_path() /
           ("lockdoc_bench_ingest." + std::to_string(::getpid())))
              .string();
    std::filesystem::create_directories(dir);
    v1_path = dir + "/bench_v1.lockdb";
    v2_path = dir + "/bench_v2.lockdb";
    AnalysisSnapshot snapshot = BuildSnapshot(sim.trace, *sim.registry, options);
    SnapshotWriteOptions v1;
    v1.container_version = 1;
    LOCKDOC_CHECK(SaveSnapshot(snapshot, *sim.registry, v1_path, v1).ok());
    LOCKDOC_CHECK(SaveSnapshot(snapshot, *sim.registry, v2_path).ok());
    v2_bytes = FileSize(v2_path).value();
  }

  ~Fixture() { std::filesystem::remove_all(dir); }
};

Fixture& SharedFixture() {
  static Fixture fixture;
  return fixture;
}

// The load benchmarks compare decode/attach cost, not disk throughput: the
// import benchmarks that run first write enough dirty pages to evict the
// fixture files from the page cache, and a single cold 300MB+ fault sweep
// would swamp the timed region with disk variance. Re-reading the file
// right before the loop pins the warm-cache case — the representative one
// for import-once/analyze-many.
void Prefault(const std::string& path) {
  auto bytes = ReadFileToString(path);
  LOCKDOC_CHECK(bytes.ok());
  benchmark::DoNotOptimize(bytes.value().data());
}

// The full import command: trace -> analysis snapshot -> .lockdb on disk,
// with the head sections streamed behind observation extraction. Arg is the
// job count; bytes on disk are identical at every value.
void BM_ImportAndSave(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  PipelineOptions options = fixture.options;
  options.jobs = static_cast<size_t>(state.range(0));
  std::string path = fixture.dir + "/import_out.lockdb";
  for (auto _ : state) {
    auto snapshot = BuildAndSaveSnapshot(fixture.sim.trace, *fixture.sim.registry, options,
                                         SnapshotWriteOptions{}, path);
    LOCKDOC_CHECK(snapshot.ok());
    benchmark::DoNotOptimize(snapshot);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.v2_bytes));
}
BENCHMARK(BM_ImportAndSave)->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// The v2 zero-copy load: mmap + CRC-checked scan + column views attached
// in place.
void BM_LoadV2Mmap(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  Prefault(fixture.v2_path);
  for (auto _ : state) {
    auto snapshot = LoadSnapshot(fixture.v2_path, *fixture.sim.registry);
    LOCKDOC_CHECK(snapshot.ok());
    benchmark::DoNotOptimize(snapshot);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.v2_bytes));
}
BENCHMARK(BM_LoadV2Mmap)->Unit(benchmark::kMillisecond);

// The legacy v1 load: every varint decoded into owned storage.
void BM_LoadV1Deserialize(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  Prefault(fixture.v1_path);
  for (auto _ : state) {
    auto snapshot = LoadSnapshot(fixture.v1_path, *fixture.sim.registry);
    LOCKDOC_CHECK(snapshot.ok());
    benchmark::DoNotOptimize(snapshot);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.v2_bytes));
}
BENCHMARK(BM_LoadV1Deserialize)->Unit(benchmark::kMillisecond);

// The ceiling both loads are measured against: rebuilding the snapshot from
// the trace (what every analysis paid before .lockdb existed).
void BM_RebuildFromTrace(benchmark::State& state) {
  Fixture& fixture = SharedFixture();
  for (auto _ : state) {
    AnalysisSnapshot snapshot =
        BuildSnapshot(fixture.sim.trace, *fixture.sim.registry, fixture.options);
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_RebuildFromTrace)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdoc

BENCHMARK_MAIN();
