// ServeService — the long-lived, fault-tolerant analysis service behind
// `lockdoc serve` (ROADMAP: "a fleet of instrumented machines uploading
// traces, one service answering locking-rule queries").
//
// One scan cycle (ProcessOnce) ingests every file in SPOOL/incoming — each
// import journaled, crash-safe, and ending in exactly one of {acknowledged,
// quarantined} — then answers every SPOOL/requests/*.req against the
// resident snapshot store. Ingest is the CLI's import: a trace is built
// and written by BuildAndSaveSnapshot, a dropped .lockdb is validated by
// LoadSnapshot, so the published snapshot is byte-identical to `lockdoc
// import`'s. Responses are byte-identical to the standalone CLI: the same
// registered AnalysisPass renders the same bytes from the same
// AnalysisContext; only the transport differs.
//
// Concurrency model (DESIGN.md 4h): requests are answered by a bounded
// RequestScheduler (`--workers`); ingestion stays serial on the scan
// thread, so the journal and quarantine protocol never interleave. Two
// transports feed the scheduler — the spool scan submits a batch per scan,
// socket connections (src/serve/socket.h) hand their request over one at a
// time — and both render answers through the same code path, so the byte-
// identity contract holds at any workers/jobs combination. Shared state is
// split across two small mutexes: store_mu_ (resident snapshots, LRU,
// per-entry pins, context caches) and state_mu_ (stats, zombie workers).
// Lock order: store_mu_ before state_mu_, never the reverse.
//
// Robustness machinery:
//   - crash safety: every state change is an atomic publish; the import
//     journal (src/serve/journal.h) replays or quarantines interrupted
//     imports on Recover()
//   - graceful degradation: damaged traces are salvaged with the damage
//     report attached to the acknowledgement; unreadable/oversized/empty
//     inputs are quarantined with a typed reason file, never deleted,
//     never retried forever
//   - deadlines: a request running past --deadline-ms gets a typed timeout
//     response from the watchdog while the worker is abandoned (its shared
//     ownership keeps memory valid) and the service keeps answering
//   - memory guardrails: resident snapshots are LRU-evicted beyond
//     --max-resident / --max-resident-bytes; entries pinned by an
//     in-flight request are never evicted mid-answer; oversized traces
//     are rejected before a byte is parsed
//   - transient I/O failures retry with bounded exponential backoff
#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/analysis_context.h"
#include "src/core/analysis_pass.h"
#include "src/core/pipeline.h"
#include "src/serve/journal.h"
#include "src/serve/request.h"
#include "src/serve/scheduler.h"
#include "src/serve/spool.h"
#include "src/util/backoff.h"
#include "src/util/status.h"

namespace lockdoc {

struct ServeServiceOptions {
  // Analysis knobs shared with the CLI (filter, derivator defaults, jobs).
  // The per-request tac overrides derivator.accept_threshold.
  PipelineOptions pipeline;
  // Documented-rules text for check/report, as the CLI default supplies it.
  std::string documented_rules_text;
  // Rules text for inputs that load against the extended registry (see the
  // extended_registry constructor parameter); empty falls back to
  // documented_rules_text.
  std::string extended_documented_rules_text;

  // Request-scheduler lanes; 0 selects RequestScheduler::DefaultWorkerCount()
  // (min(4, hardware)). 1 reproduces the serial loop exactly.
  size_t workers = 0;

  // Memory guardrails.
  size_t max_resident = 8;               // Resident snapshot count cap (>= 1).
  uint64_t max_resident_bytes = 1ull << 30;  // Byte budget; 0 = unlimited.
  uint64_t max_trace_bytes = 1ull << 30;     // Larger incoming files: quarantined.

  // Per-request deadline; 0 disables the watchdog.
  uint64_t deadline_ms = 0;

  // Transient-I/O retry schedule.
  BackoffPolicy retry;
};

// Monotonic counters, printed by `serve --once` and on shutdown.
struct ServeStats {
  uint64_t ingested = 0;          // Incoming files acknowledged ok.
  uint64_t ingested_salvaged = 0; // ... of which needed the salvage reader.
  uint64_t quarantined = 0;
  uint64_t answered_ok = 0;
  uint64_t answered_error = 0;    // Typed error responses (incl. timeouts).
  uint64_t timeouts = 0;
  uint64_t evictions = 0;         // LRU evictions (not counting timeout poisoning).
  uint64_t recovered = 0;         // Journal entries replayed by Recover().

  std::string ToString() const;
};

class ServeService {
 public:
  // One computed answer, transport-agnostic: the meta commit record plus
  // the pass output bytes (empty on error). The spool publishes these as
  // .meta/.out files; the socket sends them as two frames.
  struct ServeAnswer {
    ServeResponseMeta meta;
    std::string text;
  };

  // `registry` must outlive the service; `layout` is copied.
  // `extended_registry` (optional, same lifetime) is a strict superset of
  // `registry` — extra types appended past the base set. Inputs that
  // reference types beyond the base registry (or carry ranged lock events)
  // are imported and loaded against it; everything else keeps using the
  // base registry bit-exactly. The choice is the CLI's: PickTraceRegistry
  // and PickSnapshotRegistry (src/core/snapshot.h).
  ServeService(const SpoolLayout& layout, const TypeRegistry* registry,
               ServeServiceOptions options, const TypeRegistry* extended_registry = nullptr);
  ~ServeService();

  ServeService(const ServeService&) = delete;
  ServeService& operator=(const ServeService&) = delete;

  // Replays the import journal, finishes half-answered requests, and sweeps
  // crash debris. Call once before the first ProcessOnce.
  Status Recover();

  // One spool scan: ingest everything in incoming/ (serial), answer every
  // request (fanned out over the scheduler, barriered before returning).
  // Returns the number of items that reached a terminal state — an ingest
  // acknowledged or quarantined, a request answered with a published meta.
  // Items that failed before their terminal state (journal write failed,
  // response dir unwritable) are NOT counted, so an erroring spool reports
  // 0 and RunLoop backs off instead of busy-looping.
  Result<size_t> ProcessOnce();

  // Drives ProcessOnce until `stop` becomes true. Idle scans back off
  // deterministically (src/util/backoff.*): the first idle scan sleeps
  // poll_ms (50 when 0), each further consecutive idle scan doubles the
  // sleep, capped at 8x poll_ms; any handled item resets the ramp. Sleeps
  // are chunked so a stop request is honored within ~50 ms. `sleep_ms` is
  // injectable for tests; nullptr selects a real sleep.
  Status RunLoop(const std::atomic<bool>& stop, uint64_t poll_ms,
                 const std::function<void(uint64_t)>& sleep_ms = nullptr);

  // Computes the answer for one raw request text (the socket transport).
  // Parsing happens on the calling thread; the analysis itself runs on the
  // scheduler, so socket and spool requests share one bounded pool. Thread-
  // safe; many connection threads may call concurrently.
  ServeAnswer AnswerFromText(const std::string& id, std::string_view text);

  ServeStats stats() const;

  // True while an abandoned (timed-out) worker thread is still running.
  // Waits up to `grace_ms` for them to finish; callers that still see
  // zombies should _exit rather than run static destructors under a live
  // thread.
  bool DrainZombies(uint64_t grace_ms);

 private:
  struct ContextBox;
  struct Resident;
  struct WorkerHandle;

  // Releases one resident pin on destruction (see Resident::pins).
  class PinGuard {
   public:
    PinGuard() = default;
    PinGuard(ServeService* service, std::shared_ptr<Resident> resident)
        : service_(service), resident_(std::move(resident)) {}
    PinGuard(PinGuard&& other) noexcept
        : service_(other.service_), resident_(std::move(other.resident_)) {
      other.service_ = nullptr;
      other.resident_ = nullptr;
    }
    PinGuard& operator=(PinGuard&& other) noexcept {
      if (this != &other) {
        Release();
        service_ = other.service_;
        resident_ = std::move(other.resident_);
        other.service_ = nullptr;
        other.resident_ = nullptr;
      }
      return *this;
    }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;
    ~PinGuard() { Release(); }
    void Release();

   private:
    ServeService* service_ = nullptr;
    std::shared_ptr<Resident> resident_;
  };

  // --- ingest (serial, scan thread only) ---
  bool IngestOne(const std::string& source, uint32_t attempts);
  bool QuarantineIncoming(const std::string& source, const std::string& name,
                          const std::string& kind, const std::string& detail,
                          const std::string& hint);
  bool FinishIngest(const std::string& source, const std::string& name,
                    const ServeResponseMeta& ack);

  // --- requests (scheduler workers) ---
  // Spool transport: read + parse + answer + publish one .req. Returns
  // true when the request reached its terminal state (meta published).
  bool AnswerSpool(const std::string& request_file);
  // The transport-agnostic core: everything after parsing.
  ServeAnswer AnswerParsed(const ServeRequest& request);
  static ServeAnswer MakeError(const std::string& kind, const std::string& error);
  bool PublishSpoolAnswer(const std::string& stem, const std::string& request_path,
                          ServeAnswer answer);

  // --- resident store (store_mu_) ---
  // Returns the resident pinned (caller must wrap in a PinGuard) or
  // nullptr with `*error` set. Concurrent requests for the same name share
  // one load via call_once.
  std::shared_ptr<Resident> GetResident(const std::string& name, std::string* error);
  void LoadResident(const std::shared_ptr<Resident>& resident);
  std::shared_ptr<ContextBox> GetContext(const std::shared_ptr<Resident>& resident,
                                         double tac);
  void EvictResident(const std::string& name);
  void EvictResidentLocked(const std::string& name);
  void EnforceResidencyBudgetLocked();

  Result<std::string> ReadSpoolFileWithRetry(const std::string& path);

  SpoolLayout layout_;
  const TypeRegistry* registry_;
  const TypeRegistry* extended_registry_ = nullptr;
  ServeServiceOptions options_;
  ImportJournal journal_;
  std::unique_ptr<RequestScheduler> scheduler_;

  // Guards the resident store: residents_, lru_, resident_bytes_, and
  // every Resident's pins/contexts.
  std::mutex store_mu_;
  std::list<std::string> lru_;  // Front = most recently used.
  std::map<std::string, std::shared_ptr<Resident>> residents_;
  uint64_t resident_bytes_ = 0;

  // Guards stats_ and zombies_.
  mutable std::mutex state_mu_;
  ServeStats stats_;
  std::vector<std::shared_ptr<WorkerHandle>> zombies_;
};

}  // namespace lockdoc

#endif  // SRC_SERVE_SERVICE_H_
