#include "src/serve/service.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <thread>
#include <utility>

#include "src/core/snapshot.h"
#include "src/db/snapshot.h"
#include "src/report/render.h"
#include "src/serve/crash_point.h"
#include "src/trace/trace_io.h"
#include "src/util/file_io.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace lockdoc {

namespace {

constexpr char kRequestSuffix[] = ".req";
constexpr char kSnapshotSuffix[] = ".lockdb";

bool PathExists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

// "web.trace" and "web.lockdb" both ingest as snapshot "web"; dotless names
// pass through unchanged.
std::string SnapshotNameFor(const std::string& source) {
  size_t dot = source.rfind('.');
  if (dot == std::string::npos || dot == 0) {
    return source;
  }
  return source.substr(0, dot);
}

void SleepMs(uint64_t ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

// Unlinks crash debris: in-flight WriteFileAtomic temp files that a kill
// stranded. Their rename never happened, so they are garbage by contract.
void SweepTempFiles(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return;
  }
  std::vector<std::string> victims;
  while (struct dirent* entry = ::readdir(handle)) {
    if (StartsWith(entry->d_name, kAtomicTempPrefix)) {
      victims.push_back(entry->d_name);
    }
  }
  ::closedir(handle);
  for (const std::string& name : victims) {
    RemoveFileIfExists(dir + "/" + name);
  }
}

}  // namespace

std::string ServeStats::ToString() const {
  return StrFormat(
      "ingested=%llu salvaged=%llu quarantined=%llu answered_ok=%llu "
      "answered_error=%llu timeouts=%llu evictions=%llu recovered=%llu",
      static_cast<unsigned long long>(ingested),
      static_cast<unsigned long long>(ingested_salvaged),
      static_cast<unsigned long long>(quarantined),
      static_cast<unsigned long long>(answered_ok),
      static_cast<unsigned long long>(answered_error),
      static_cast<unsigned long long>(timeouts),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(recovered));
}

// One analysis context over one resident snapshot at one tac value. Holds
// shared ownership of the snapshot so an abandoned deadline worker (or a
// concurrent diff baseline) stays valid after the resident entry is evicted.
// Concurrent requests share a box: the context's indexes are call_once
// memoized, its ThreadPool serializes concurrent drivers, and per-request
// knobs travel as a Run() parameter, never as context state.
struct ServeService::ContextBox {
  std::shared_ptr<AnalysisSnapshot> snapshot;
  PipelineTimings timings;
  std::unique_ptr<AnalysisContext> context;
};

struct ServeService::Resident {
  std::string name;
  // Build-once rendezvous: the first requester loads the snapshot, every
  // concurrent requester for the same name waits on the same flag.
  std::once_flag once;
  bool load_ok = false;
  std::string load_error;
  std::shared_ptr<AnalysisSnapshot> snapshot;
  // The registry this snapshot loaded against (base or extended); contexts
  // and documented rules must use the same one.
  const TypeRegistry* registry = nullptr;
  // The eviction currency charged against --max-resident-bytes: the mapped
  // backing size for zero-copy v2 snapshots (their table columns live in
  // the mmap, not the heap), the on-disk size otherwise.
  uint64_t bytes = 0;
  bool charged = false;  // bytes accounted into resident_bytes_ (store_mu_).
  // In-flight requests currently using this entry (store_mu_). LRU
  // eviction skips pinned entries so a context is never unmapped
  // mid-request; poison evictions (timeout, re-import) remove the map
  // entry regardless — the shared_ptr keeps the memory valid.
  uint64_t pins = 0;
  // Contexts keyed by formatted tac; memoized rules depend on it (store_mu_).
  std::map<std::string, std::shared_ptr<ContextBox>> contexts;
};

// The rendezvous between the watchdog and one pass execution.
struct ServeService::WorkerHandle {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Status status;
  std::string text;
};

void ServeService::PinGuard::Release() {
  if (service_ != nullptr && resident_ != nullptr) {
    std::lock_guard<std::mutex> lock(service_->store_mu_);
    --resident_->pins;
    // A load that found every other entry pinned left the store over
    // budget; settle that as soon as a pin drops, not at the next load.
    service_->EnforceResidencyBudgetLocked();
  }
  service_ = nullptr;
  resident_ = nullptr;
}

ServeService::ServeService(const SpoolLayout& layout, const TypeRegistry* registry,
                           ServeServiceOptions options, const TypeRegistry* extended_registry)
    : layout_(layout),
      registry_(registry),
      extended_registry_(extended_registry),
      options_(std::move(options)),
      journal_(&layout_),
      scheduler_(std::make_unique<RequestScheduler>(options_.workers)) {}

ServeService::~ServeService() = default;

ServeStats ServeService::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return stats_;
}

Status ServeService::Recover() {
  for (const std::string* dir :
       {&layout_.incoming_dir, &layout_.requests_dir, &layout_.responses_dir,
        &layout_.snapshots_dir, &layout_.journal_dir, &layout_.quarantine_dir}) {
    SweepTempFiles(*dir);
  }

  auto entries = journal_.Load();
  if (!entries.ok()) {
    return entries.status();
  }
  for (const JournalEntry& entry : entries.value()) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++stats_.recovered;
    }
    const std::string source = entry.source.empty() ? entry.name : entry.source;
    if (!PathExists(layout_.incoming_dir + "/" + source)) {
      // The import completed through source removal (the ack or quarantine
      // is already published); only the journal clear was lost.
      journal_.Clear(entry.name);
      continue;
    }
    if (entry.attempts >= kMaxImportAttempts) {
      QuarantineIncoming(source, entry.name, "crash-loop",
                         StrFormat("import attempted %u times without completing",
                                   entry.attempts),
                         "inspect with lockdoc doctor, then re-drop the file");
      continue;
    }
    IngestOne(source, entry.attempts + 1);
  }

  // Requests answered before the crash but whose .req removal was lost.
  auto requests = ListSpoolFiles(layout_.requests_dir, kRequestSuffix);
  if (requests.ok()) {
    for (const std::string& file : requests.value()) {
      const std::string stem = file.substr(0, file.size() - (sizeof(kRequestSuffix) - 1));
      if (PathExists(layout_.responses_dir + "/" + stem + ".meta")) {
        RemoveFileIfExists(layout_.requests_dir + "/" + file);
      }
    }
  }
  return Status::Ok();
}

Result<size_t> ServeService::ProcessOnce() {
  size_t handled = 0;
  auto incoming = ListSpoolFiles(layout_.incoming_dir);
  if (!incoming.ok()) {
    return incoming.status();
  }
  for (const std::string& source : incoming.value()) {
    if (IngestOne(source, 1)) {
      ++handled;
    }
  }
  auto requests = ListSpoolFiles(layout_.requests_dir, kRequestSuffix);
  if (!requests.ok()) {
    return requests.status();
  }
  if (!requests.value().empty()) {
    // Fan the batch out over the scheduler and barrier on the batch — not
    // the whole queue — so concurrent socket requests don't extend the
    // scan. With one worker the FIFO queue preserves the sorted scan
    // order, reproducing the serial loop exactly.
    std::atomic<size_t> answered{0};
    std::atomic<size_t> remaining{requests.value().size()};
    std::mutex done_mu;
    std::condition_variable done_cv;
    for (const std::string& file : requests.value()) {
      scheduler_->Submit([this, file, &answered, &remaining, &done_mu, &done_cv] {
        if (AnswerSpool(file)) {
          answered.fetch_add(1, std::memory_order_relaxed);
        }
        if (remaining.fetch_sub(1) == 1) {
          std::lock_guard<std::mutex> lock(done_mu);
          done_cv.notify_all();
        }
      });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining.load() == 0; });
    handled += answered.load();
  }
  return handled;
}

Status ServeService::RunLoop(const std::atomic<bool>& stop, uint64_t poll_ms,
                             const std::function<void(uint64_t)>& sleep_ms) {
  // Idle backoff: first idle scan sleeps the base poll interval, each
  // consecutive idle scan doubles it, capped at 8x — an idle daemon wakes
  // 8x less often while a busy spool still gets scanned at full rate.
  const uint64_t base = poll_ms == 0 ? 50 : poll_ms;
  BackoffPolicy idle;
  idle.base_delay_ms = base;
  idle.max_delay_ms = base * 8;
  idle.multiplier = 2;
  uint32_t idle_streak = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    auto handled = ProcessOnce();
    if (!handled.ok()) {
      return handled.status();
    }
    if (stop.load(std::memory_order_relaxed)) {
      break;
    }
    if (handled.value() != 0) {
      idle_streak = 0;
      continue;
    }
    if (idle_streak < 16) {
      ++idle_streak;
    }
    const uint64_t delay = BackoffDelayMs(idle, idle_streak);
    if (sleep_ms != nullptr) {
      sleep_ms(delay);
      continue;
    }
    // Chunked so a stop request (SIGTERM) is honored within ~50 ms even at
    // the top of the ramp.
    uint64_t slept = 0;
    while (slept < delay && !stop.load(std::memory_order_relaxed)) {
      const uint64_t chunk = std::min<uint64_t>(50, delay - slept);
      SleepMs(chunk);
      slept += chunk;
    }
  }
  return Status::Ok();
}

bool ServeService::DrainZombies(uint64_t grace_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  for (;;) {
    std::vector<std::shared_ptr<WorkerHandle>> snapshot;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      snapshot = zombies_;
    }
    bool alive = false;
    for (const auto& worker : snapshot) {
      std::lock_guard<std::mutex> lock(worker->mutex);
      if (!worker->done) {
        alive = true;
        break;
      }
    }
    if (!alive) {
      // `done` flips just before the detached thread unwinds; give it a
      // beat to actually leave our code before the caller tears down.
      if (!snapshot.empty()) {
        SleepMs(20);
      }
      std::lock_guard<std::mutex> lock(state_mu_);
      zombies_.clear();
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    SleepMs(10);
  }
}

// --- ingest ---

bool ServeService::IngestOne(const std::string& source, uint32_t attempts) {
  const std::string name = SnapshotNameFor(source);
  const std::string source_path = layout_.incoming_dir + "/" + source;

  JournalEntry entry;
  entry.name = name;
  entry.source = source;
  entry.attempts = attempts;
  if (Status status = journal_.Record(entry); !status.ok()) {
    // Transient state-dir trouble; the file stays in incoming and the next
    // scan retries the whole import. No terminal state was reached.
    std::fprintf(stderr, "lockdoc serve: journal %s: %s\n", name.c_str(),
                 status.message().c_str());
    return false;
  }
  ServeCrashPoint("journal-recorded");

  auto size = FileSize(source_path);
  if (!size.ok()) {
    // Vanished between the scan and now (an operator took it back).
    journal_.Clear(name);
    return false;
  }
  if (options_.max_trace_bytes != 0 && size.value() > options_.max_trace_bytes) {
    return QuarantineIncoming(
        source, name, kServeErrorOversized,
        StrFormat("%llu bytes exceeds --max-trace-bytes %llu",
                  static_cast<unsigned long long>(size.value()),
                  static_cast<unsigned long long>(options_.max_trace_bytes)),
        "raise --max-trace-bytes or split the trace");
  }

  auto bytes = ReadSpoolFileWithRetry(source_path);
  if (!bytes.ok()) {
    return QuarantineIncoming(source, name, kServeErrorIo, bytes.status().message(),
                              "check spool filesystem health");
  }
  if (bytes.value().empty()) {
    return QuarantineIncoming(source, name, "empty", "zero-byte file",
                              "re-export the trace; producers must publish into "
                              "incoming/ with an atomic rename");
  }

  // Both kinds of drop become one complete .lockdb staged under an
  // atomic-temp name (Recover sweeps it after a crash), published below by
  // one rename.
  const std::string snapshot_path = layout_.snapshots_dir + "/" + name + kSnapshotSuffix;
  const std::string staged_path =
      layout_.snapshots_dir + "/" + kAtomicTempPrefix + name + kSnapshotSuffix;
  std::string input = std::move(bytes).value();
  ServeResponseMeta ack;
  ack.ok = true;
  bool salvaged = false;
  if (LooksLikeSnapshot(input)) {
    // Pre-imported .lockdb: staged as dropped, then validated by the loader
    // the resident store and the CLI use, so a damaged snapshot never
    // enters the resident store. Doctor repairs damaged LOCKDB03 files
    // only; a magic that CheckSnapshotMagic rejects (a retired LOCKDB01 or
    // LOCKDB02) needs a re-import.
    const std::string hint =
        CheckSnapshotMagic(input).ok()
            ? StrFormat("lockdoc doctor %s --repair %s.lockdb", source.c_str(), name.c_str())
            : "re-run `lockdoc import` on the trace";
    Status staged = WriteFileAtomic(staged_path, input);
    std::string().swap(input);  // The load maps the staged file instead.
    if (!staged.ok()) {
      return QuarantineIncoming(source, name, kServeErrorIo, staged.message(),
                                "check state filesystem health");
    }
    const TypeRegistry& registry =
        PickSnapshotRegistry(staged_path, *registry_, extended_registry_);
    auto snapshot = LoadSnapshot(staged_path, registry);
    if (!snapshot.ok()) {
      RemoveFileIfExists(staged_path);
      return QuarantineIncoming(source, name, "damaged-snapshot", snapshot.status().message(),
                                hint);
    }
    ack.extra.emplace_back("kind", "snapshot");
  } else {
    // One read, in salvage mode on the ingest's --jobs lanes: a clean trace
    // reads as a strict read would, and damage is reported in the ack.
    ThreadPool read_pool(options_.pipeline.jobs);
    TraceReadOptions read_options;
    read_options.salvage = true;
    read_options.pool = &read_pool;
    TraceReadReport report;
    auto trace = ReadTraceFromBytes(input, read_options, &report);
    std::string().swap(input);  // The events are decoded out of it.
    if (!trace.ok()) {
      return QuarantineIncoming(source, name, "unreadable", trace.status().message(),
                                "not a readable trace or snapshot; lockdoc doctor "
                                "itemizes the damage");
    }
    // What `lockdoc import` does: the sections stream to the staged file as
    // they are built.
    auto built = BuildAndSaveSnapshot(
        trace.value(), PickTraceRegistry(trace.value(), *registry_, extended_registry_),
        options_.pipeline, SnapshotWriteOptions{}, staged_path);
    if (!built.ok()) {
      return QuarantineIncoming(source, name, kServeErrorIo, built.status().message(),
                                "check state filesystem health");
    }
    ServeCrashPoint("snapshot-serialized");
    ack.extra.emplace_back("kind", "trace");
    ack.extra.emplace_back("events", std::to_string(trace.value().events().size()));
    if (!report.clean()) {
      // Graceful degradation: answer from what survived, but say so.
      salvaged = true;
      ack.extra.emplace_back("salvaged", "1");
      ack.extra.emplace_back("damage", OneLine(report.ToString()));
    }
  }

  ServeCrashPoint("pre-snapshot-publish");
  Result<uint64_t> staged_size = FileSize(staged_path);
  Status published = staged_size.ok() ? RenameFile(staged_path, snapshot_path)
                                      : staged_size.status();
  if (published.ok()) {
    published = SyncDirectory(layout_.snapshots_dir);
  }
  if (!published.ok()) {
    RemoveFileIfExists(staged_path);
    return QuarantineIncoming(source, name, kServeErrorIo, published.message(),
                              "check state filesystem health");
  }
  ack.extra.emplace_back("snapshot_bytes", std::to_string(staged_size.value()));
  ServeCrashPoint("snapshot-published");
  // A re-import replaces any stale resident copy.
  EvictResident(name);

  if (!FinishIngest(source, name, ack)) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.ingested;
    if (salvaged) {
      ++stats_.ingested_salvaged;
    }
  }
  return true;
}

bool ServeService::QuarantineIncoming(const std::string& source, const std::string& name,
                                      const std::string& kind, const std::string& detail,
                                      const std::string& hint) {
  Status status = QuarantineFile(layout_, layout_.incoming_dir, source, kind, detail, hint);
  if (!status.ok()) {
    std::fprintf(stderr, "lockdoc serve: quarantine %s: %s\n", source.c_str(),
                 status.message().c_str());
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.quarantined;
  }
  journal_.Clear(name);
  ServeCrashPoint("quarantine-journal-cleared");
  // Terminal only if the file actually moved out of incoming/; otherwise
  // the next scan retries and the loop must not count progress.
  return status.ok();
}

bool ServeService::FinishIngest(const std::string& source, const std::string& name,
                                const ServeResponseMeta& ack) {
  // The ack is the commit point of the answered state; everything after it
  // is idempotent cleanup that recovery can replay.
  if (Status status = WriteResponseMeta(layout_, name + ".ingest", ack); !status.ok()) {
    std::fprintf(stderr, "lockdoc serve: ack %s: %s\n", name.c_str(),
                 status.message().c_str());
    return false;
  }
  ServeCrashPoint("ingest-acked");
  RemoveFileIfExists(layout_.incoming_dir + "/" + source);
  ServeCrashPoint("source-removed");
  journal_.Clear(name);
  ServeCrashPoint("journal-cleared");
  return true;
}

// --- requests ---

ServeService::ServeAnswer ServeService::MakeError(const std::string& kind,
                                                  const std::string& error) {
  ServeAnswer answer;
  answer.meta.ok = false;
  answer.meta.kind = kind;
  answer.meta.error = error;
  return answer;
}

bool ServeService::AnswerSpool(const std::string& request_file) {
  const std::string stem =
      request_file.substr(0, request_file.size() - (sizeof(kRequestSuffix) - 1));
  const std::string request_path = layout_.requests_dir + "/" + request_file;
  if (PathExists(layout_.responses_dir + "/" + stem + ".meta")) {
    // Already answered (crash between meta publication and .req removal).
    RemoveFileIfExists(request_path);
    return false;
  }

  ServeAnswer answer;
  auto text = ReadSpoolFileWithRetry(request_path);
  if (!text.ok()) {
    answer = MakeError(kServeErrorIo, text.status().message());
  } else {
    auto parsed = ParseServeRequest(stem, text.value());
    if (!parsed.ok()) {
      answer = MakeError(kServeErrorBadRequest, parsed.status().message());
    } else {
      answer = AnswerParsed(parsed.value());
    }
  }
  return PublishSpoolAnswer(stem, request_path, std::move(answer));
}

bool ServeService::PublishSpoolAnswer(const std::string& stem,
                                      const std::string& request_path, ServeAnswer answer) {
  if (answer.meta.ok) {
    Status status =
        WriteFileAtomic(layout_.responses_dir + "/" + stem + ".out", answer.text);
    if (!status.ok()) {
      answer = MakeError(kServeErrorIo, status.message());
    } else {
      ServeCrashPoint("response-out-written");
      if (Status meta_status = WriteResponseMeta(layout_, stem, answer.meta);
          !meta_status.ok()) {
        // No meta, no terminal state: the request stays and is retried.
        std::fprintf(stderr, "lockdoc serve: answer %s: %s\n", stem.c_str(),
                     meta_status.message().c_str());
        return false;
      }
      {
        std::lock_guard<std::mutex> lock(state_mu_);
        ++stats_.answered_ok;
      }
      ServeCrashPoint("response-meta-written");
      RemoveFileIfExists(request_path);
      ServeCrashPoint("request-removed");
      return true;
    }
  }

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.answered_error;
  }
  if (Status status = WriteResponseMeta(layout_, stem, answer.meta); !status.ok()) {
    std::fprintf(stderr, "lockdoc serve: answer %s: %s\n", stem.c_str(),
                 status.message().c_str());
    return false;
  }
  RemoveFileIfExists(request_path);
  return true;
}

ServeService::ServeAnswer ServeService::AnswerFromText(const std::string& id,
                                                       std::string_view text) {
  auto parsed = ParseServeRequest(id, text);
  if (!parsed.ok()) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.answered_error;
    return MakeError(kServeErrorBadRequest, parsed.status().message());
  }
  ServeAnswer answer;
  scheduler_->RunAndWait([&] { answer = AnswerParsed(parsed.value()); });
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (answer.meta.ok) {
      ++stats_.answered_ok;
    } else {
      ++stats_.answered_error;
    }
  }
  return answer;
}

ServeService::ServeAnswer ServeService::AnswerParsed(const ServeRequest& request) {
  const AnalysisPass* pass = PassRegistry::Default().Find(request.pass);
  if (pass == nullptr) {
    return MakeError(kServeErrorUnknownPass,
                     StrFormat("unknown pass '%s' (expected one of: %s)",
                               request.pass.c_str(),
                               PassRegistry::Default().JoinedNames().c_str()));
  }

  std::string error;
  auto resident = GetResident(request.input, &error);
  if (resident == nullptr) {
    return MakeError(kServeErrorUnknownInput, error);
  }
  PinGuard input_pin(this, resident);

  std::shared_ptr<ContextBox> baseline_box;
  PinGuard baseline_pin;
  if (request.pass == "diff") {
    if (request.baseline.empty()) {
      return MakeError(kServeErrorBadRequest, "pass=diff requires baseline=<name>");
    }
    auto baseline = GetResident(request.baseline, &error);
    if (baseline == nullptr) {
      return MakeError(kServeErrorUnknownInput, error);
    }
    baseline_pin = PinGuard(this, baseline);
    baseline_box = GetContext(baseline, request.tac);
  }
  auto box = GetContext(resident, request.tac);

  // Per-request knobs over the CLI's defaults; the documented-rules text is
  // service configuration, exactly as the standalone commands wire it. The
  // options ride along as a Run() parameter — the shared context is never
  // mutated, so concurrent requests with different knobs cannot interfere.
  PassOptions pass_options = request.pass_options;
  pass_options.documented_rules_text =
      (resident->registry == extended_registry_ && extended_registry_ != nullptr &&
       !options_.extended_documented_rules_text.empty())
          ? options_.extended_documented_rules_text
          : options_.documented_rules_text;
  pass_options.baseline = baseline_box ? baseline_box->context.get() : nullptr;

  auto worker = std::make_shared<WorkerHandle>();
  const ReportFormat format = request.format;
  auto work = [worker, pass, box, baseline_box, pass_options, format]() {
    PassOutput out;
    Status status = pass->Run(*box->context, pass_options, out);
    // Rendering happens here, inside the deadline, so a pathological
    // document cannot stall the answer path after the worker reports done.
    std::string rendered;
    if (status.ok()) {
      rendered = format == ReportFormat::kText ? std::move(out.text)
                                               : RenderReportDocument(out.doc, format);
    }
    std::lock_guard<std::mutex> lock(worker->mutex);
    worker->done = true;
    worker->status = std::move(status);
    worker->text = std::move(rendered);
    worker->cv.notify_all();
  };

  bool finished = true;
  if (options_.deadline_ms == 0) {
    work();
  } else {
    std::thread thread(work);
    std::unique_lock<std::mutex> lock(worker->mutex);
    if (worker->cv.wait_for(lock, std::chrono::milliseconds(options_.deadline_ms),
                            [&worker] { return worker->done; })) {
      lock.unlock();
      thread.join();
    } else {
      lock.unlock();
      thread.detach();
      finished = false;
    }
  }

  if (!finished) {
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++stats_.timeouts;
      zombies_.push_back(worker);
    }
    // The abandoned worker may still be building this context's indexes;
    // poison the entries out of the cache so no later request shares its
    // state (the worker's shared ownership keeps the memory valid).
    EvictResident(request.input);
    if (!request.baseline.empty()) {
      EvictResident(request.baseline);
    }
    return MakeError(kServeErrorTimeout,
                     StrFormat("pass '%s' exceeded the %llu ms deadline",
                               request.pass.c_str(),
                               static_cast<unsigned long long>(options_.deadline_ms)));
  }

  if (!worker->status.ok()) {
    return MakeError(kServeErrorAnalysis, worker->status.message());
  }

  ServeAnswer answer;
  answer.meta.ok = true;
  answer.meta.extra.emplace_back("pass", request.pass);
  answer.meta.extra.emplace_back("input", request.input);
  if (request.has_format) {
    answer.meta.extra.emplace_back("format", std::string(ReportFormatName(request.format)));
  }
  answer.text = std::move(worker->text);
  return answer;
}

// --- resident store ---

std::shared_ptr<ServeService::Resident> ServeService::GetResident(const std::string& name,
                                                                  std::string* error) {
  std::shared_ptr<Resident> resident;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    auto it = residents_.find(name);
    if (it != residents_.end()) {
      resident = it->second;
    } else {
      // Insert a shell now so concurrent requests for the same snapshot
      // rendezvous on one load instead of each mapping its own copy.
      resident = std::make_shared<Resident>();
      resident->name = name;
      residents_[name] = resident;
      lru_.push_front(name);
    }
  }

  std::call_once(resident->once, [&] { LoadResident(resident); });

  std::lock_guard<std::mutex> lock(store_mu_);
  if (!resident->load_ok) {
    *error = resident->load_error;
    // Drop the failed shell (if it is still ours) so a re-dropped snapshot
    // gets a fresh load attempt.
    auto it = residents_.find(name);
    if (it != residents_.end() && it->second == resident) {
      residents_.erase(it);
      lru_.remove(name);
    }
    return nullptr;
  }
  // LRU touch + pin. The entry may have been poison-evicted mid-load; the
  // caller still gets a valid (detached) resident, it just isn't listed.
  if (residents_.count(name) != 0 && residents_[name] == resident) {
    lru_.remove(name);
    lru_.push_front(name);
  }
  ++resident->pins;
  return resident;
}

void ServeService::LoadResident(const std::shared_ptr<Resident>& resident) {
  const std::string& name = resident->name;
  const std::string path = layout_.snapshots_dir + "/" + name + kSnapshotSuffix;
  if (!PathExists(path)) {
    resident->load_error =
        StrFormat("no snapshot named '%s' in the resident store", name.c_str());
    return;
  }
  // Zero-copy load: the snapshot keeps its table columns in the mapping,
  // which is what the resident store charges. Payload CRCs are verified
  // during every load — the no-wrong-answer invariant does not bend for
  // speed.
  const TypeRegistry* registry = &PickSnapshotRegistry(path, *registry_, extended_registry_);
  auto snapshot = LoadSnapshot(path, *registry);
  if (!snapshot.ok()) {
    resident->load_error =
        StrFormat("snapshot '%s' is damaged (%s); try lockdoc doctor --repair",
                  name.c_str(), snapshot.status().message().c_str());
    return;
  }
  resident->registry = registry;
  resident->snapshot = std::make_shared<AnalysisSnapshot>(std::move(snapshot.value()));
  resident->bytes = resident->snapshot->backing->bytes.size();

  std::lock_guard<std::mutex> lock(store_mu_);
  resident->load_ok = true;
  auto it = residents_.find(name);
  if (it != residents_.end() && it->second == resident) {
    resident->charged = true;
    resident_bytes_ += resident->bytes;
    EnforceResidencyBudgetLocked();
  }
}

std::shared_ptr<ServeService::ContextBox> ServeService::GetContext(
    const std::shared_ptr<Resident>& resident, double tac) {
  const std::string key = StrFormat("%.17g", tac);
  std::lock_guard<std::mutex> lock(store_mu_);
  auto it = resident->contexts.find(key);
  if (it != resident->contexts.end()) {
    return it->second;
  }
  auto box = std::make_shared<ContextBox>();
  box->snapshot = resident->snapshot;
  AnalysisOptions options;
  options.pipeline = options_.pipeline;
  options.pipeline.derivator.accept_threshold = tac;
  box->context = std::make_unique<AnalysisContext>(
      box->snapshot.get(), resident->registry != nullptr ? resident->registry : registry_,
      std::move(options), &box->timings);
  resident->contexts[key] = box;
  return box;
}

void ServeService::EvictResident(const std::string& name) {
  std::lock_guard<std::mutex> lock(store_mu_);
  EvictResidentLocked(name);
}

void ServeService::EvictResidentLocked(const std::string& name) {
  auto it = residents_.find(name);
  if (it == residents_.end()) {
    return;
  }
  if (it->second->charged) {
    resident_bytes_ -= it->second->bytes;
    it->second->charged = false;
  }
  residents_.erase(it);
  lru_.remove(name);
}

void ServeService::EnforceResidencyBudgetLocked() {
  const size_t max_resident = options_.max_resident == 0 ? 1 : options_.max_resident;
  auto over_budget = [&] {
    return residents_.size() > max_resident ||
           (options_.max_resident_bytes != 0 && resident_bytes_ > options_.max_resident_bytes);
  };
  // The most recent entry (front) always survives: a request being answered
  // right now must not evict its own snapshot. Pinned entries are skipped —
  // eviction must never unmap a context another worker is using.
  while (residents_.size() > 1 && over_budget()) {
    std::string victim;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (*it == lru_.front()) {
        break;
      }
      auto found = residents_.find(*it);
      if (found != residents_.end() && found->second->pins == 0) {
        victim = *it;
        break;
      }
    }
    if (victim.empty()) {
      break;  // Everything evictable is pinned; retried when a pin drops.
    }
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++stats_.evictions;
    }
    EvictResidentLocked(victim);
  }
}

Result<std::string> ServeService::ReadSpoolFileWithRetry(const std::string& path) {
  std::string bytes;
  Status status = RetryWithBackoff(options_.retry, [&]() -> Status {
    auto read = ReadFileToString(path);
    if (!read.ok()) {
      return read.status();
    }
    bytes = std::move(read.value());
    return Status::Ok();
  });
  if (!status.ok()) {
    return status;
  }
  return bytes;
}

}  // namespace lockdoc
