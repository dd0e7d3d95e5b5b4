// Serve building blocks (spool, requests, journal) plus the in-process
// service end to end: ingest, answer, quarantine, LRU eviction, journal
// recovery. The shell harnesses (serve_smoke_test.sh, chaos_test.sh) cover
// the process-level contract — byte identity with the CLI and seeded kills;
// these tests pin the library-level semantics.
#include "src/serve/service.h"

#include <sys/stat.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/serve/journal.h"
#include "src/serve/request.h"
#include "src/serve/socket.h"
#include "src/serve/spool.h"
#include "src/util/socket.h"
#include "src/trace/trace_io.h"
#include "src/util/file_io.h"
#include "src/vfs/mm_kernel.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

class SpoolFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "lockdoc_serve_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_EQ(::system(("rm -rf " + root_).c_str()), 0);
    ASSERT_EQ(::mkdir(root_.c_str(), 0755), 0);
    layout_ = MakeSpoolLayout(root_, "");
    ASSERT_TRUE(EnsureSpoolLayout(layout_).ok());
  }

  std::string root_;
  SpoolLayout layout_;
};

TEST(SpoolLayoutTest, DefaultStateLivesUnderSpool) {
  SpoolLayout layout = MakeSpoolLayout("/spool", "");
  EXPECT_EQ(layout.incoming_dir, "/spool/incoming");
  EXPECT_EQ(layout.requests_dir, "/spool/requests");
  EXPECT_EQ(layout.responses_dir, "/spool/responses");
  EXPECT_EQ(layout.state_dir, "/spool/state");
  EXPECT_EQ(layout.snapshots_dir, "/spool/state/snapshots");
  EXPECT_EQ(layout.journal_dir, "/spool/state/journal");
  EXPECT_EQ(layout.quarantine_dir, "/spool/state/quarantine");
}

TEST(SpoolLayoutTest, ExplicitStateDirIsHonored) {
  SpoolLayout layout = MakeSpoolLayout("/spool", "/elsewhere/state");
  EXPECT_EQ(layout.state_dir, "/elsewhere/state");
  EXPECT_EQ(layout.snapshots_dir, "/elsewhere/state/snapshots");
}

TEST(SpoolLayoutTest, MissingSpoolDirIsAnError) {
  // A typo'd spool path must not be silently created.
  SpoolLayout layout = MakeSpoolLayout("/nonexistent_lockdoc_spool", "");
  EXPECT_FALSE(EnsureSpoolLayout(layout).ok());
}

TEST_F(SpoolFixture, ListSpoolFilesSortsAndSkipsTemps) {
  ASSERT_TRUE(WriteFileAtomic(layout_.incoming_dir + "/b.trace", "b").ok());
  ASSERT_TRUE(WriteFileAtomic(layout_.incoming_dir + "/a.trace", "a").ok());
  ASSERT_TRUE(WriteFileAtomic(layout_.incoming_dir + "/c.req", "c").ok());
  // A half-written atomic temp must be invisible to scans.
  ASSERT_TRUE(
      WriteFileAtomic(layout_.incoming_dir + "/" + std::string(kAtomicTempPrefix) + "x", "t")
          .ok());

  auto all = ListSpoolFiles(layout_.incoming_dir);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), 3u);
  EXPECT_EQ(all.value()[0], "a.trace");
  EXPECT_EQ(all.value()[1], "b.trace");
  EXPECT_EQ(all.value()[2], "c.req");

  auto reqs = ListSpoolFiles(layout_.incoming_dir, ".req");
  ASSERT_TRUE(reqs.ok());
  ASSERT_EQ(reqs.value().size(), 1u);
  EXPECT_EQ(reqs.value()[0], "c.req");
}

TEST_F(SpoolFixture, QuarantinePublishesReasonThenMovesFile) {
  ASSERT_TRUE(WriteFileAtomic(layout_.incoming_dir + "/bad.trace", "junk").ok());
  ASSERT_TRUE(QuarantineFile(layout_, layout_.incoming_dir, "bad.trace", "unreadable",
                             "no magic", "re-export the trace")
                  .ok());
  // Original gone from incoming, preserved (not deleted) in quarantine.
  EXPECT_FALSE(FileSize(layout_.incoming_dir + "/bad.trace").ok());
  auto moved = ReadFileToString(layout_.quarantine_dir + "/bad.trace");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), "junk");
  auto reason = ReadFileToString(layout_.quarantine_dir + "/bad.trace.reason");
  ASSERT_TRUE(reason.ok());
  EXPECT_NE(reason.value().find("kind=unreadable\n"), std::string::npos);
  EXPECT_NE(reason.value().find("detail=no magic\n"), std::string::npos);
  EXPECT_NE(reason.value().find("hint=re-export the trace\n"), std::string::npos);
}

TEST(KeyValueTest, ParseSkipsBlanksAndComments) {
  auto pairs = ParseKeyValueText("# header\npass=check\n\ninput=web\npass=again\n");
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs.value().size(), 3u);
  EXPECT_EQ(pairs.value()[0].first, "pass");
  EXPECT_EQ(pairs.value()[0].second, "check");
  EXPECT_EQ(pairs.value()[2].second, "again");  // Duplicates preserved in order.
}

TEST(KeyValueTest, MalformedLineIsAnErrorWithItsNumber) {
  auto pairs = ParseKeyValueText("pass=check\nnot a record\n");
  ASSERT_FALSE(pairs.ok());
  EXPECT_NE(pairs.status().message().find("line 2"), std::string::npos);
}

TEST(KeyValueTest, LineRoundTrips) {
  EXPECT_EQ(KeyValueLine("kind", "timeout"), "kind=timeout\n");
  auto pairs = ParseKeyValueText(KeyValueLine("a", "b=c"));
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs.value()[0].second, "b=c");  // First '=' splits; rest is value.
}

TEST(ServeRequestTest, ParsesFullRequest) {
  auto request = ParseServeRequest(
      "r1", "pass=diff\ninput=web\nbaseline=base\ntac=0.5\nlimit=3\n");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().id, "r1");
  EXPECT_EQ(request.value().pass, "diff");
  EXPECT_EQ(request.value().input, "web");
  EXPECT_EQ(request.value().baseline, "base");
  EXPECT_DOUBLE_EQ(request.value().tac, 0.5);
  EXPECT_EQ(request.value().pass_options.violation_limit, 3u);
}

TEST(ServeRequestTest, ParsesFormatKey) {
  auto request = ParseServeRequest("r1", "pass=violations\ninput=web\nformat=json\n");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().format, ReportFormat::kJson);
  EXPECT_TRUE(request.value().has_format);
  // Omitted: defaults to text without marking the key as present.
  auto plain = ParseServeRequest("r2", "pass=violations\ninput=web\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().format, ReportFormat::kText);
  EXPECT_FALSE(plain.value().has_format);
}

TEST(ServeRequestTest, RejectsBadFormat) {
  auto request = ParseServeRequest("r", "pass=check\ninput=web\nformat=bogus\n");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("expected text, json or html"),
            std::string::npos);
}

TEST(ServeRequestTest, RejectsBadRequests) {
  EXPECT_FALSE(ParseServeRequest("r", "input=web\n").ok());       // No pass.
  EXPECT_FALSE(ParseServeRequest("r", "pass=check\n").ok());      // No input.
  EXPECT_FALSE(ParseServeRequest("r", "pass=check\ninput=web\ntac=2\n").ok());
  EXPECT_FALSE(ParseServeRequest("r", "pass=check\ninput=web\ntac=abc\n").ok());
  EXPECT_FALSE(ParseServeRequest("r", "pass=check\ninput=web\nbogus=1\n").ok());
  // Names that could escape the snapshots directory.
  EXPECT_FALSE(ParseServeRequest("r", "pass=check\ninput=../../etc/passwd\n").ok());
  EXPECT_FALSE(ParseServeRequest("r", "pass=check\ninput=..\n").ok());
  EXPECT_FALSE(ParseServeRequest("r", "pass=diff\ninput=web\nbaseline=a/b\n").ok());
}

TEST_F(SpoolFixture, ResponseMetaCarriesTaxonomyAndExtras) {
  ServeResponseMeta meta;
  meta.ok = false;
  meta.kind = kServeErrorTimeout;
  meta.error = "deadline\nexceeded";
  meta.extra.push_back({"pass", "report"});
  ASSERT_TRUE(WriteResponseMeta(layout_, "slow", meta).ok());
  auto text = ReadFileToString(layout_.responses_dir + "/slow.meta");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("status=error\n"), std::string::npos);
  EXPECT_NE(text.value().find("kind=timeout\n"), std::string::npos);
  // Newlines collapsed so the meta stays line-oriented.
  EXPECT_NE(text.value().find("error=deadline exceeded\n"), std::string::npos);
  EXPECT_NE(text.value().find("pass=report\n"), std::string::npos);
}

TEST_F(SpoolFixture, JournalRoundTripsEntries) {
  ImportJournal journal(&layout_);
  JournalEntry entry;
  entry.name = "web";
  entry.source = "web.trace";
  entry.attempts = 2;
  ASSERT_TRUE(journal.Record(entry).ok());

  auto loaded = journal.Load();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].name, "web");
  EXPECT_EQ(loaded.value()[0].source, "web.trace");
  EXPECT_EQ(loaded.value()[0].attempts, 2u);

  ASSERT_TRUE(journal.Clear("web").ok());
  ASSERT_TRUE(journal.Clear("web").ok());  // Idempotent.
  loaded = journal.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST_F(SpoolFixture, MalformedJournalEntrySaturatesAttempts) {
  // A corrupt journal file must steer recovery toward quarantine, not
  // crash-loop the service on its own journal.
  ASSERT_TRUE(WriteFileAtomic(layout_.journal_dir + "/web.job", "garbage content").ok());
  ImportJournal journal(&layout_);
  auto loaded = journal.Load();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].name, "web");
  EXPECT_GE(loaded.value()[0].attempts, kMaxImportAttempts);
}

// --- the service itself, in process ---

class ServeServiceTest : public SpoolFixture {
 protected:
  void SetUp() override {
    SpoolFixture::SetUp();
    MixOptions mix;
    mix.ops = 600;
    mix.seed = 11;
    sim_ = SimulateKernelRun(mix, FaultPlan{});
    options_.pipeline.filter = VfsKernel::MakeFilterConfig();
    options_.documented_rules_text = VfsKernel::DocumentedRulesText();
  }

  void DropTrace(const std::string& name) {
    ASSERT_TRUE(WriteTraceToFile(sim_.trace, layout_.incoming_dir + "/" + name).ok());
  }

  void DropRequest(const std::string& id, const std::string& text) {
    ASSERT_TRUE(WriteFileAtomic(layout_.requests_dir + "/" + id + ".req", text).ok());
  }

  std::string MetaText(const std::string& stem) {
    auto text = ReadFileToString(layout_.responses_dir + "/" + stem + ".meta");
    return text.ok() ? text.value() : "<missing: " + text.status().message() + ">";
  }

  SimulationResult sim_;
  ServeServiceOptions options_;
};

TEST_F(ServeServiceTest, IngestsAnswersAndAcks) {
  DropTrace("web.trace");
  DropRequest("q", "pass=check\ninput=web\n");

  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  auto handled = service.ProcessOnce();
  ASSERT_TRUE(handled.ok()) << handled.status().ToString();
  EXPECT_EQ(handled.value(), 2u);  // One ingest + one answer.

  // Snapshot published, source consumed, journal clear.
  EXPECT_TRUE(FileSize(layout_.snapshots_dir + "/web.lockdb").ok());
  EXPECT_FALSE(FileSize(layout_.incoming_dir + "/web.trace").ok());
  EXPECT_NE(MetaText("web.ingest").find("status=ok\n"), std::string::npos);
  EXPECT_NE(MetaText("q").find("status=ok\n"), std::string::npos);
  auto out = ReadFileToString(layout_.responses_dir + "/q.out");
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.value().empty());
  EXPECT_EQ(service.stats().ingested, 1u);
  EXPECT_EQ(service.stats().answered_ok, 1u);

  // An idle follow-up scan touches nothing.
  handled = service.ProcessOnce();
  ASSERT_TRUE(handled.ok());
  EXPECT_EQ(handled.value(), 0u);
}

TEST_F(ServeServiceTest, MmTracesSelectExtendedRegistry) {
  MixOptions mix;
  mix.ops = 800;
  mix.seed = 7;
  SimulationResult mm = SimulateMmRun(mix, FaultPlan::Clean());
  ASSERT_TRUE(WriteTraceToFile(mm.trace, layout_.incoming_dir + "/mm.trace").ok());
  DropTrace("web.trace");
  DropRequest("qmm", "pass=derive\ninput=mm\n");
  DropRequest("qvfs", "pass=derive\ninput=web\n");

  VfsIds mm_ids;
  std::unique_ptr<TypeRegistry> extended = BuildVfsMmRegistry(&mm_ids);
  options_.extended_documented_rules_text =
      VfsKernel::DocumentedRulesText() + MmKernel::DocumentedRulesText();
  ServeService service(layout_, sim_.registry.get(), options_, extended.get());
  ASSERT_TRUE(service.Recover().ok());
  auto handled = service.ProcessOnce();
  ASSERT_TRUE(handled.ok()) << handled.status().ToString();
  EXPECT_EQ(handled.value(), 4u);  // Two ingests + two answers.

  // The mm trace was ingested and answered against the extended registry.
  auto mm_out = ReadFileToString(layout_.responses_dir + "/qmm.out");
  ASSERT_TRUE(mm_out.ok());
  EXPECT_NE(mm_out.value().find("mm_struct"), std::string::npos);
  EXPECT_NE(mm_out.value().find("vm_area_struct"), std::string::npos);
  // The vfs trace still derives against the base registry only.
  auto vfs_out = ReadFileToString(layout_.responses_dir + "/qvfs.out");
  ASSERT_TRUE(vfs_out.ok());
  EXPECT_EQ(vfs_out.value().find("mm_struct"), std::string::npos);
}

TEST_F(ServeServiceTest, MmSnapshotReloadsWithExtendedRegistry) {
  MixOptions mix;
  mix.ops = 800;
  mix.seed = 7;
  SimulationResult mm = SimulateMmRun(mix, FaultPlan::Clean());
  ASSERT_TRUE(WriteTraceToFile(mm.trace, layout_.incoming_dir + "/mm.trace").ok());

  VfsIds mm_ids;
  std::unique_ptr<TypeRegistry> extended = BuildVfsMmRegistry(&mm_ids);
  options_.extended_documented_rules_text =
      VfsKernel::DocumentedRulesText() + MmKernel::DocumentedRulesText();
  {
    ServeService ingest_service(layout_, sim_.registry.get(), options_, extended.get());
    ASSERT_TRUE(ingest_service.Recover().ok());
    ASSERT_TRUE(ingest_service.ProcessOnce().ok());
    ASSERT_TRUE(FileSize(layout_.snapshots_dir + "/mm.lockdb").ok());
  }
  // A fresh service must re-pick the extended registry when loading the
  // published snapshot from disk (the LoadResident path, not ingest).
  DropRequest("q2", "pass=check\ninput=mm\n");
  ServeService service(layout_, sim_.registry.get(), options_, extended.get());
  ASSERT_TRUE(service.Recover().ok());
  auto handled = service.ProcessOnce();
  ASSERT_TRUE(handled.ok()) << handled.status().ToString();
  EXPECT_NE(MetaText("q2").find("status=ok\n"), std::string::npos);
  auto out = ReadFileToString(layout_.responses_dir + "/q2.out");
  ASSERT_TRUE(out.ok());
  // check ran against the extended documented rules, so the mm types show.
  EXPECT_NE(out.value().find("mm_struct"), std::string::npos);
}

TEST_F(ServeServiceTest, TypedErrorsForBadRequests) {
  DropTrace("web.trace");
  DropRequest("badpass", "pass=nope\ninput=web\n");
  DropRequest("badinput", "pass=check\ninput=ghost\n");
  DropRequest("malformed", "no equals sign here\n");

  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.ProcessOnce().ok());

  EXPECT_NE(MetaText("badpass").find("kind=unknown-pass\n"), std::string::npos);
  EXPECT_NE(MetaText("badinput").find("kind=unknown-input\n"), std::string::npos);
  EXPECT_NE(MetaText("malformed").find("kind=bad-request\n"), std::string::npos);
  EXPECT_EQ(service.stats().answered_error, 3u);
  // Typed errors never carry response bytes.
  EXPECT_FALSE(FileSize(layout_.responses_dir + "/badpass.out").ok());
}

TEST_F(ServeServiceTest, EmptyFileIsQuarantinedTyped) {
  ASSERT_TRUE(WriteFileAtomic(layout_.incoming_dir + "/empty.trace", "").ok());
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.ProcessOnce().ok());

  auto reason = ReadFileToString(layout_.quarantine_dir + "/empty.trace.reason");
  ASSERT_TRUE(reason.ok());
  EXPECT_NE(reason.value().find("kind=empty\n"), std::string::npos);
  EXPECT_EQ(service.stats().quarantined, 1u);
}

// The retired v1 container never reaches the trace reader or the resident
// store: it is quarantined with the loader's typed error as its reason.
// A retired container — a v1 stub, or a real full-width v2 file frozen
// from before v3 — is quarantined with a reason that names it and a hint
// that says to re-import: doctor cannot read or repair either.
TEST_F(ServeServiceTest, RetiredSnapshotsAreQuarantinedWithTheReimportMessage) {
  auto legacy_v2 =
      ReadFileToString(std::string(LOCKDOC_TESTDATA_DIR) + "/legacy_v2.lockdb");
  ASSERT_TRUE(legacy_v2.ok());
  ASSERT_TRUE(
      WriteFileAtomic(layout_.incoming_dir + "/old1.lockdb", "LOCKDB01 then v1 frames").ok());
  ASSERT_TRUE(WriteFileAtomic(layout_.incoming_dir + "/old2.lockdb", legacy_v2.value()).ok());
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.ProcessOnce().ok());

  for (int version : {1, 2}) {
    SCOPED_TRACE("v" + std::to_string(version));
    auto reason = ReadFileToString(layout_.quarantine_dir + "/old" + std::to_string(version) +
                                   ".lockdb.reason");
    ASSERT_TRUE(reason.ok());
    EXPECT_NE(reason.value().find("kind=damaged-snapshot\n"), std::string::npos)
        << reason.value();
    const std::string container =
        "container v" + std::to_string(version) + " (LOCKDB0" + std::to_string(version) + ")";
    EXPECT_NE(reason.value().find(container), std::string::npos) << reason.value();
    EXPECT_NE(reason.value().find("lockdoc import"), std::string::npos) << reason.value();
    size_t hint = reason.value().find("hint=");
    ASSERT_NE(hint, std::string::npos) << reason.value();
    std::string hint_line = reason.value().substr(hint, reason.value().find('\n', hint) - hint);
    EXPECT_NE(hint_line.find("lockdoc import"), std::string::npos) << hint_line;
    EXPECT_EQ(hint_line.find("doctor"), std::string::npos) << hint_line;
  }
  EXPECT_EQ(service.stats().quarantined, 2u);
  EXPECT_EQ(service.stats().ingested, 0u);
}

TEST_F(ServeServiceTest, OversizedFileIsQuarantinedBeforeParsing) {
  DropTrace("web.trace");
  options_.max_trace_bytes = 16;
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.ProcessOnce().ok());

  auto reason = ReadFileToString(layout_.quarantine_dir + "/web.trace.reason");
  ASSERT_TRUE(reason.ok());
  EXPECT_NE(reason.value().find("kind=oversized\n"), std::string::npos);
}

TEST_F(ServeServiceTest, LruEvictsBeyondMaxResident) {
  DropTrace("a.trace");
  DropTrace("b.trace");
  DropRequest("qa", "pass=check\ninput=a\n");
  DropRequest("qb", "pass=check\ninput=b\n");

  options_.max_resident = 1;
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.ProcessOnce().ok());

  EXPECT_NE(MetaText("qa").find("status=ok\n"), std::string::npos);
  EXPECT_NE(MetaText("qb").find("status=ok\n"), std::string::npos);
  EXPECT_GE(service.stats().evictions, 1u);

  // The evicted snapshot reloads from disk and still answers.
  DropRequest("qa2", "pass=check\ninput=a\n");
  ASSERT_TRUE(service.ProcessOnce().ok());
  EXPECT_NE(MetaText("qa2").find("status=ok\n"), std::string::npos);
}

TEST_F(ServeServiceTest, RecoverReplaysAnOrphanedJournalEntry) {
  // Simulate a crash immediately after the journal record was published:
  // the source is still in incoming, nothing else happened.
  DropTrace("web.trace");
  {
    ImportJournal journal(&layout_);
    JournalEntry entry;
    entry.name = "web";
    entry.source = "web.trace";
    entry.attempts = 1;
    ASSERT_TRUE(journal.Record(entry).ok());
  }
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  EXPECT_EQ(service.stats().recovered, 1u);
  EXPECT_TRUE(FileSize(layout_.snapshots_dir + "/web.lockdb").ok());
  EXPECT_FALSE(FileSize(layout_.incoming_dir + "/web.trace").ok());
  auto pending = ImportJournal(&layout_).Load();
  ASSERT_TRUE(pending.ok());
  EXPECT_TRUE(pending.value().empty());
}

TEST_F(ServeServiceTest, RepeatedCrashesQuarantineInsteadOfLooping) {
  // An entry already at the attempt cap: recovery must quarantine the
  // source, not retry it forever.
  DropTrace("web.trace");
  {
    ImportJournal journal(&layout_);
    JournalEntry entry;
    entry.name = "web";
    entry.source = "web.trace";
    entry.attempts = kMaxImportAttempts;
    ASSERT_TRUE(journal.Record(entry).ok());
  }
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  auto reason = ReadFileToString(layout_.quarantine_dir + "/web.trace.reason");
  ASSERT_TRUE(reason.ok());
  EXPECT_NE(reason.value().find("kind=crash-loop\n"), std::string::npos);
  EXPECT_FALSE(FileSize(layout_.snapshots_dir + "/web.lockdb").ok());
}

TEST_F(ServeServiceTest, DeadlineTimesOutAndServiceSurvives) {
  DropTrace("web.trace");
  DropRequest("slow", "pass=report\ninput=web\nfull=1\n");
  options_.deadline_ms = 1;  // Guaranteed to expire on any machine.
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.ProcessOnce().ok());

  // Either the tiny trace finished inside 1 ms (fast machine) or it timed
  // out; both are legal, but a timeout must be typed and non-fatal.
  std::string meta = MetaText("slow");
  if (meta.find("status=ok\n") == std::string::npos) {
    EXPECT_NE(meta.find("kind=timeout\n"), std::string::npos);
    EXPECT_EQ(service.stats().timeouts, 1u);
  }
  // The service keeps answering afterward either way.
  DropRequest("after", "pass=check\ninput=web\n");
  ASSERT_TRUE(service.ProcessOnce().ok());
  EXPECT_TRUE(service.DrainZombies(5000));
}

TEST_F(ServeServiceTest, FailedDispatchIsNotCountedAsHandled) {
  // Regression: a journal write failure used to count as "handled", making
  // the daemon loop believe it made progress and skip its poll sleep — a
  // busy-loop against a broken state dir. A failed dispatch must count 0
  // and leave the input in incoming for the next scan.
  DropTrace("web.trace");
  ASSERT_EQ(::system(("rm -rf " + layout_.journal_dir).c_str()), 0);
  // A regular file where the journal dir should be: every Record fails.
  ASSERT_TRUE(WriteFileAtomic(layout_.journal_dir, "not a directory").ok());

  ServeService service(layout_, sim_.registry.get(), options_);
  auto handled = service.ProcessOnce();
  ASSERT_TRUE(handled.ok());
  EXPECT_EQ(handled.value(), 0u);  // No terminal state reached, no credit.
  EXPECT_TRUE(FileSize(layout_.incoming_dir + "/web.trace").ok());
  EXPECT_EQ(service.stats().ingested, 0u);
  EXPECT_EQ(service.stats().quarantined, 0u);

  // Heal the state dir: the very next scan completes the import.
  ASSERT_EQ(::unlink(layout_.journal_dir.c_str()), 0);
  ASSERT_EQ(::mkdir(layout_.journal_dir.c_str(), 0755), 0);
  handled = service.ProcessOnce();
  ASSERT_TRUE(handled.ok());
  EXPECT_EQ(handled.value(), 1u);
  EXPECT_EQ(service.stats().ingested, 1u);
}

TEST_F(ServeServiceTest, ParallelWorkersAnswerEveryRequestIdentically) {
  DropTrace("web.trace");
  options_.workers = 4;
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.ProcessOnce().ok());  // Ingest first.

  for (int i = 0; i < 8; ++i) {
    DropRequest("q" + std::to_string(i), "pass=check\ninput=web\n");
  }
  auto handled = service.ProcessOnce();
  ASSERT_TRUE(handled.ok());
  EXPECT_EQ(handled.value(), 8u);
  EXPECT_EQ(service.stats().answered_ok, 8u);

  auto first = ReadFileToString(layout_.responses_dir + "/q0.out");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().empty());
  for (int i = 1; i < 8; ++i) {
    auto other = ReadFileToString(layout_.responses_dir + "/q" + std::to_string(i) + ".out");
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(other.value(), first.value()) << "q" << i << " bytes differ";
  }
}

TEST_F(ServeServiceTest, AnswerFromTextSharesTheResidentStore) {
  // The socket transport's entry point: same taxonomy, same bytes, same
  // stats as the spool, with no files involved.
  DropTrace("web.trace");
  options_.workers = 2;
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.ProcessOnce().ok());

  auto ok = service.AnswerFromText("s1", "pass=check\ninput=web\n");
  EXPECT_TRUE(ok.meta.ok);
  EXPECT_FALSE(ok.text.empty());

  DropRequest("q", "pass=check\ninput=web\n");
  ASSERT_TRUE(service.ProcessOnce().ok());
  auto spooled = ReadFileToString(layout_.responses_dir + "/q.out");
  ASSERT_TRUE(spooled.ok());
  EXPECT_EQ(ok.text, spooled.value());  // Transport must not change bytes.

  auto bad = service.AnswerFromText("s2", "pass=check\ninput=ghost\n");
  EXPECT_FALSE(bad.meta.ok);
  EXPECT_EQ(bad.meta.kind, kServeErrorUnknownInput);
  auto malformed = service.AnswerFromText("s3", "no equals\n");
  EXPECT_FALSE(malformed.meta.ok);
  EXPECT_EQ(malformed.meta.kind, kServeErrorBadRequest);
  EXPECT_EQ(service.stats().answered_ok, 2u);
  EXPECT_EQ(service.stats().answered_error, 2u);
}

TEST_F(ServeServiceTest, RunLoopBacksOffWhenIdleAndResetsOnWork) {
  // The injectable sleeper observes the idle schedule without wall-clock
  // time: consecutive idle scans double the delay (capped at 8x the poll
  // interval); any handled work resets the ramp.
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());

  std::vector<uint64_t> delays;
  std::atomic<bool> stop{false};
  Status status = service.RunLoop(stop, 50, [&](uint64_t ms) {
    delays.push_back(ms);
    if (delays.size() == 6) {
      // Work arrives after the ramp topped out: the next idle delay must
      // restart from the base interval.
      (void)WriteFileAtomic(layout_.requests_dir + "/mid.req", "pass=nope\ninput=x\n");
    }
    if (delays.size() >= 8) {
      stop.store(true);
    }
  });
  ASSERT_TRUE(status.ok());
  ASSERT_GE(delays.size(), 8u);
  EXPECT_EQ(delays[0], 50u);   // First idle scan: the base interval.
  EXPECT_EQ(delays[1], 100u);  // Doubling...
  EXPECT_EQ(delays[2], 200u);
  EXPECT_EQ(delays[3], 400u);  // ...capped at 8x.
  EXPECT_EQ(delays[4], 400u);
  EXPECT_EQ(delays[5], 400u);
  EXPECT_EQ(delays[6], 50u);   // Reset: the answered request counted as work.
  EXPECT_EQ(delays[7], 100u);  // And the ramp restarts from the base.
}

TEST_F(ServeServiceTest, SocketRoundTripMatchesSpoolBytes) {
  DropTrace("web.trace");
  options_.workers = 2;
  ServeService service(layout_, sim_.registry.get(), options_);
  ASSERT_TRUE(service.Recover().ok());
  ASSERT_TRUE(service.ProcessOnce().ok());

  ServeSocketOptions socket_options;
  socket_options.port = 0;
  ServeSocketServer server(&service, socket_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto conn = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE(WriteFrame(conn.value().get(), "pass=check\ninput=web\n").ok());
  FrameRead meta = ReadFrame(conn.value().get(), 10000, 10000, 0);
  ASSERT_EQ(meta.status, FrameStatus::kOk) << meta.error;
  EXPECT_NE(meta.payload.find("status=ok\n"), std::string::npos);
  FrameRead out = ReadFrame(conn.value().get(), 10000, 10000, 0);
  ASSERT_EQ(out.status, FrameStatus::kOk) << out.error;

  // Byte-identity across transports, meta and payload both.
  DropRequest("q", "pass=check\ninput=web\n");
  ASSERT_TRUE(service.ProcessOnce().ok());
  auto spool_out = ReadFileToString(layout_.responses_dir + "/q.out");
  ASSERT_TRUE(spool_out.ok());
  EXPECT_EQ(out.payload, spool_out.value());

  // A second exchange on the same connection (pipelining).
  ASSERT_TRUE(WriteFrame(conn.value().get(), "pass=nope\ninput=web\n").ok());
  meta = ReadFrame(conn.value().get(), 10000, 10000, 0);
  ASSERT_EQ(meta.status, FrameStatus::kOk);
  EXPECT_NE(meta.payload.find("kind=unknown-pass\n"), std::string::npos);
  out = ReadFrame(conn.value().get(), 10000, 10000, 0);
  ASSERT_EQ(out.status, FrameStatus::kOk);
  EXPECT_TRUE(out.payload.empty());  // Errors never carry response bytes.

  server.Stop();
}

}  // namespace
}  // namespace lockdoc
