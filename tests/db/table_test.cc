#include "src/db/table.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/core/snapshot.h"
#include "src/db/schema.h"
#include "src/db/snapshot.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

Table MakeTable() {
  return Table("t", {{"id", ColumnType::kUint64},
                     {"name", ColumnType::kString},
                     {"score", ColumnType::kDouble}});
}

// The reference answer: every row whose `column` equals `value`, by scan.
std::vector<RowId> ScanEqual(const Table& table, size_t column, uint64_t value) {
  std::vector<RowId> rows;
  for (RowId row = 0; row < table.row_count(); ++row) {
    if (table.GetUint64(row, column) == value) {
      rows.push_back(row);
    }
  }
  return rows;
}

// LookupEqual agrees with the scan for every value in [0, max + 2], so
// present values, gaps and values past the end are all probed.
void ExpectLookupsMatchScan(const Table& table, size_t column) {
  uint64_t max_value = 0;
  for (RowId row = 0; row < table.row_count(); ++row) {
    max_value = std::max(max_value, table.GetUint64(row, column));
  }
  for (uint64_t value = 0; value <= max_value + 2; ++value) {
    EXPECT_EQ(table.LookupEqual(column, value), ScanEqual(table, column, value))
        << "value " << value;
  }
}

Table MakeKeyTable(const std::vector<uint64_t>& keys) {
  Table table("k", {{"key", ColumnType::kUint64}, {"payload", ColumnType::kUint64}});
  for (size_t i = 0; i < keys.size(); ++i) {
    table.Insert({keys[i], uint64_t{i}});
  }
  table.CreateIndex(0);
  return table;
}

// Frames `table` through the snapshot writer and decodes it into `db`: its
// u64 columns come back as views at the width their values need. `bytes`
// holds the viewed payload and must outlive `db`.
const Table& NarrowRoundTrip(const Table& table, std::string* bytes, Database* db) {
  SnapshotWriter writer;
  writer.AddTableSection(table);
  *bytes = writer.Finish().value();
  auto sections = ScanSnapshotSections(*bytes);
  EXPECT_TRUE(sections.ok() && sections.value().size() == 1);
  EXPECT_TRUE(DecodeTableSection(sections.value()[0].payload, db).ok());
  return db->table(table.name());
}

TEST(TableTest, InsertAndTypedGet) {
  Table table = MakeTable();
  RowId row = table.Insert({uint64_t{7}, std::string("x"), 2.5});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_EQ(table.GetUint64(row, 0), 7u);
  EXPECT_EQ(table.GetString(row, 1), "x");
  EXPECT_DOUBLE_EQ(table.GetDouble(row, 2), 2.5);
}

TEST(TableTest, ColumnIndexByName) {
  Table table = MakeTable();
  EXPECT_EQ(table.ColumnIndex("id"), 0u);
  EXPECT_EQ(table.ColumnIndex("score"), 2u);
}

TEST(TableTest, LookupEqualWithoutIndexScans) {
  Table table = MakeTable();
  table.Insert({uint64_t{1}, std::string("a"), 0.0});
  table.Insert({uint64_t{2}, std::string("b"), 0.0});
  table.Insert({uint64_t{1}, std::string("c"), 0.0});
  EXPECT_EQ(table.LookupEqual(0, 1), (std::vector<RowId>{0, 2}));
  EXPECT_TRUE(table.LookupEqual(0, 99).empty());
}

TEST(TableTest, IndexedLookupMatchesScan) {
  Table table = MakeTable();
  for (uint64_t i = 0; i < 100; ++i) {
    table.Insert({i % 10, std::string("r"), 0.0});
  }
  std::vector<RowId> scanned = table.LookupEqual(0, 3);
  table.CreateIndex(0);
  EXPECT_TRUE(table.HasIndex(0));
  EXPECT_EQ(table.LookupEqual(0, 3), scanned);
}

TEST(TableTest, IndexMaintainedAcrossInsert) {
  Table table = MakeTable();
  table.CreateIndex(0);
  table.Insert({uint64_t{5}, std::string("a"), 0.0});
  table.Insert({uint64_t{5}, std::string("b"), 0.0});
  EXPECT_EQ(table.LookupEqual(0, 5).size(), 2u);
}

TEST(TableTest, SetUint64UpdatesIndex) {
  Table table = MakeTable();
  table.CreateIndex(0);
  RowId row = table.Insert({uint64_t{5}, std::string("a"), 0.0});
  table.SetUint64(row, 0, 9);
  EXPECT_TRUE(table.LookupEqual(0, 5).empty());
  EXPECT_EQ(table.LookupEqual(0, 9), (std::vector<RowId>{row}));
  EXPECT_EQ(table.GetUint64(row, 0), 9u);
}

TEST(TableTest, OrderedColumnWithDuplicatesAndGapsMatchesScan) {
  Table table = MakeKeyTable({0, 0, 1, 4, 4, 4, 5, 9, 9, 12});
  ExpectLookupsMatchScan(table, 0);
}

TEST(TableTest, UnorderedColumnMatchesScan) {
  Rng rng(17);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(rng.Below(40) * 2);  // Odd values are gaps.
  }
  Table table = MakeKeyTable(keys);
  ExpectLookupsMatchScan(table, 0);
}

TEST(TableTest, EmptyIndexedTableFindsNothingUntilInsert) {
  Table table = MakeKeyTable({});
  EXPECT_TRUE(table.LookupEqual(0, 0).empty());
  EXPECT_TRUE(table.LookupEqual(0, 7).empty());
  table.Insert({uint64_t{7}, uint64_t{0}});
  EXPECT_EQ(table.LookupEqual(0, 7), (std::vector<RowId>{0}));
}

TEST(TableTest, InsertBreakingOrderAfterLookupStaysCorrect) {
  Table table = MakeKeyTable({1, 2, 2, 5});
  EXPECT_EQ(table.LookupEqual(0, 2), (std::vector<RowId>{1, 2}));  // Sorted column.
  table.Insert({uint64_t{2}, uint64_t{4}});  // Out of order from here on.
  table.Insert({uint64_t{0}, uint64_t{5}});
  EXPECT_EQ(table.LookupEqual(0, 2), (std::vector<RowId>{1, 2, 4}));
  ExpectLookupsMatchScan(table, 0);
  table.Insert({uint64_t{3}, uint64_t{6}});  // Mutating an unordered column.
  ExpectLookupsMatchScan(table, 0);
}

TEST(TableTest, SetUint64BreakingOrderAfterLookupStaysCorrect) {
  Table table = MakeKeyTable({1, 2, 3, 4});
  EXPECT_EQ(table.LookupEqual(0, 3), (std::vector<RowId>{2}));
  table.SetUint64(0, 0, 3);  // Row 0 now sorts after rows 1 and 2.
  EXPECT_EQ(table.LookupEqual(0, 3), (std::vector<RowId>{0, 2}));
  EXPECT_TRUE(table.LookupEqual(0, 1).empty());
  ExpectLookupsMatchScan(table, 0);
  table.SetUint64(2, 0, 1);  // Mutating an unordered column.
  ExpectLookupsMatchScan(table, 0);
}

TEST(TableTest, ParallelFirstLookupsAgreeWithScan) {
  // Threads race the first lookup, which checks the column's order: one
  // on a key-ordered column (binary-searched), one on an unordered column
  // (scanned); owned, and viewed at each width the codec stores.
  for (uint64_t base : {uint64_t{0}, uint64_t{1000}, uint64_t{1} << 20, uint64_t{1} << 40}) {
    const uint64_t span = base == 0 ? 250 : 1000;
    std::vector<uint64_t> ordered;
    std::vector<uint64_t> unordered;
    Rng rng(5);
    for (uint64_t i = 0; i < 3000; ++i) {
      ordered.push_back(base + i * span / 3000);
      unordered.push_back(base + rng.Below(span));
    }
    for (const std::vector<uint64_t>* keys : {&ordered, &unordered}) {
      Table owned = MakeKeyTable(*keys);
      std::string bytes;
      Database db;
      const Table& viewed = NarrowRoundTrip(owned, &bytes, &db);
      ASSERT_TRUE(viewed.column_data(0).is_view());
      SCOPED_TRACE("width " + std::to_string(viewed.Column(0).width()));
      for (const Table* table : {static_cast<const Table*>(&owned), &viewed}) {
        std::vector<std::vector<RowId>> expected;
        for (uint64_t value = base; value < base + span + 1; ++value) {
          expected.push_back(ScanEqual(*table, 0, value));
        }
        constexpr size_t kThreads = 8;
        std::vector<size_t> mismatches(kThreads, 0);
        std::vector<std::thread> threads;
        for (size_t t = 0; t < kThreads; ++t) {
          threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < expected.size(); ++i) {
              uint64_t slot = (i * 7 + t * 131) % expected.size();
              if (table->LookupEqual(0, base + slot) != expected[slot]) {
                ++mismatches[t];
              }
            }
          });
        }
        for (std::thread& thread : threads) {
          thread.join();
        }
        for (size_t t = 0; t < kThreads; ++t) {
          EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
        }
      }
    }
  }
}

// Columns whose maximum sits at each width boundary, with and without
// nulls, come back at the narrowest width that holds them, read back every
// value exactly, and answer every lookup as a scan does: for each value up
// to max + 2 (near the boundary only, at the u32 boundary), kDbNull, and a
// value too wide for the column. Key-ordered columns with an index take
// the binary search, the others the scan.
TEST(TableTest, NarrowColumnsAtEachWidthBoundaryMatchSourceAndScan) {
  struct Case {
    uint64_t max;
    uint8_t width;
  };
  const Case cases[] = {{254, 1},
                        {255, 2},
                        {65534, 2},
                        {65535, 4},
                        {(uint64_t{1} << 32) - 2, 4},
                        {(uint64_t{1} << 32) - 1, 8}};
  for (const Case& c : cases) {
    for (bool with_null : {false, true}) {
      for (bool indexed : {false, true}) {
        SCOPED_TRACE(StrFormat("max %llu%s%s", static_cast<unsigned long long>(c.max),
                               with_null ? " with null" : "", indexed ? " indexed" : ""));
        std::vector<uint64_t> values = {0, 0, 1, 7, c.max / 2, c.max - 1, c.max, c.max};
        if (with_null) {
          values.push_back(kDbNull);
        }
        Table owned("k", {{"key", ColumnType::kUint64}});
        for (uint64_t value : values) {
          owned.Insert({value});
        }
        if (indexed) {
          owned.CreateIndex(0);
        }
        std::string bytes;
        Database db;
        const Table& table = NarrowRoundTrip(owned, &bytes, &db);
        ASSERT_TRUE(table.column_data(0).is_view());
        EXPECT_EQ(table.Column(0).width(), c.width);
        EXPECT_EQ(table.HasIndex(0), indexed);
        for (RowId row = 0; row < values.size(); ++row) {
          EXPECT_EQ(table.GetUint64(row, 0), values[row]) << "row " << row;
          EXPECT_EQ(table.Column(0)[row], values[row]) << "row " << row;
        }
        std::vector<uint64_t> probes = {kDbNull, c.max + 1, c.max + 2,
                                        uint64_t{1} << (8 * c.width - 1) << 1};
        if (c.width == 8) {
          probes.back() = kDbNull - 1;
        }
        const uint64_t dense = c.max < (1u << 17) ? c.max + 2 : 1000;
        for (uint64_t value = 0; value <= dense; ++value) {
          probes.push_back(value);
        }
        for (uint64_t value = c.max > dense ? c.max - 1000 : dense + 1; value <= c.max + 2;
             ++value) {
          probes.push_back(value);
        }
        for (uint64_t value : probes) {
          EXPECT_EQ(table.LookupEqual(0, value), ScanEqual(owned, 0, value)) << "value " << value;
        }
      }
    }
  }
}

// Every LookupEqual column the analysis uses, as LoadSnapshot maps it: the
// importer writes each in key order, and lookups answer from the mapped
// column itself.
TEST(TableTest, LoadedSnapshotViewColumnsAreKeyOrderedAndMatchScan) {
  for (bool mm : {false, true}) {
    MixOptions mix;
    mix.ops = 600;
    mix.seed = 3;
    SimulationResult sim = mm ? SimulateMmRun(mix, FaultPlan::Clean())
                              : SimulateKernelRun(mix, FaultPlan::Clean());
    PipelineOptions options;
    options.filter = VfsKernel::MakeFilterConfig();
    options.jobs = 1;
    AnalysisSnapshot built = BuildSnapshot(sim.trace, *sim.registry, options);
    std::string path = ::testing::TempDir() + "/table_test_view_columns" +
                       (mm ? "_mm" : "_vfs") + ".lockdb";
    ASSERT_TRUE(SaveSnapshot(built, *sim.registry, path).ok());
    auto loaded = LoadSnapshot(path, *sim.registry);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const Database& db = loaded.value().db;

    std::vector<std::pair<std::string, std::string>> columns = {
        {LockDocSchema::kAccesses, "seq"},
        {LockDocSchema::kTxnLocks, "txn_id"},
        {LockDocSchema::kStackFrames, "stack_id"}};
    if (mm) {
      ASSERT_TRUE(db.HasTable(LockDocSchema::kTxnLockRanges));
      columns.emplace_back(LockDocSchema::kTxnLockRanges, "txn_id");
    }
    for (const auto& [table_name, column_name] : columns) {
      SCOPED_TRACE(table_name + "." + column_name);
      const Table& table = db.table(table_name);
      size_t column = table.ColumnIndex(column_name);
      ASSERT_TRUE(table.HasIndex(column));
      ASSERT_GT(table.row_count(), 0u);
      EXPECT_TRUE(table.column_data(column).is_view());
      const ColumnView data = table.Column(column);
      EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
      std::map<uint64_t, std::vector<RowId>> expected;
      for (RowId row = 0; row < table.row_count(); ++row) {
        expected[data[row]].push_back(row);
      }
      for (const auto& [value, rows] : expected) {
        EXPECT_EQ(table.LookupEqual(column, value), rows) << "value " << value;
      }
      EXPECT_TRUE(table.LookupEqual(column, expected.rbegin()->first + 1).empty());
    }
  }
}

TEST(TableTest, ScanEarlyExit) {
  Table table = MakeTable();
  for (uint64_t i = 0; i < 10; ++i) {
    table.Insert({i, std::string(), 0.0});
  }
  size_t visited = 0;
  table.Scan([&](RowId) {
    ++visited;
    return visited < 3;
  });
  EXPECT_EQ(visited, 3u);
}

TEST(TableTest, CsvRoundTrip) {
  Table table = MakeTable();
  table.Insert({uint64_t{1}, std::string("plain"), 1.25});
  table.Insert({uint64_t{2}, std::string("with,comma"), -0.5});
  table.CreateIndex(0);

  std::ostringstream out;
  table.ExportCsv(out);

  Table restored = MakeTable();
  ASSERT_TRUE(restored.ImportCsv(out.str()).ok());
  EXPECT_EQ(restored.row_count(), 2u);
  EXPECT_EQ(restored.GetString(1, 1), "with,comma");
  EXPECT_DOUBLE_EQ(restored.GetDouble(0, 2), 1.25);
}

TEST(TableTest, ImportRejectsHeaderMismatch) {
  Table table = MakeTable();
  EXPECT_FALSE(table.ImportCsv("wrong,header,row\n1,a,0.5\n").ok());
}

TEST(TableTest, ImportRejectsArityMismatch) {
  Table table = MakeTable();
  EXPECT_FALSE(table.ImportCsv("id,name,score\n1,a\n").ok());
}

TEST(TableTest, ImportRejectsBadNumbers) {
  Table table = MakeTable();
  EXPECT_FALSE(table.ImportCsv("id,name,score\nxyz,a,0.5\n").ok());
  EXPECT_FALSE(table.ImportCsv("id,name,score\n1,a,notadouble\n").ok());
}

TEST(TableTest, ImportReplacesExistingRows) {
  Table table = MakeTable();
  table.Insert({uint64_t{1}, std::string("old"), 0.0});
  ASSERT_TRUE(table.ImportCsv("id,name,score\n2,new,1.0\n").ok());
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_EQ(table.GetString(0, 1), "new");
}

}  // namespace
}  // namespace lockdoc
