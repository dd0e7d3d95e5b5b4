// Traced in-process replay of one perfbench workload. It calls each layer's
// public entry points directly, wraps a span around every call, and prints
// the per-layer metrics as one JSON object on stdout. Spans are flat (no
// span runs inside another), so each span is its layer's self time and the
// spans' sum against the wall clock is the attributed share.
//
//   lockdoc_trace_run --work DIR --inputs NAME:KIND:OPS:SEED[,...]
//                     --analyze NAME --refs DIR
//                     --serve SNAP=INPUT[,...] --hot SNAP[,...] --cold SNAP,SNAP
//                     --serve-drop trace|lockdb --jobs N --workers N
//
// KIND is vfs or mm. Every pass output produced here (text, and JSON/HTML
// where REFS/INPUT/<pass>.json|.html exist) is compared byte for byte with
// the CLI's output in REFS/INPUT/; serve answers likewise. Mismatches count
// as failed checks in the output's "attempted"/"failed" fields.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analysis_pass.h"
#include "src/core/pipeline.h"
#include "src/core/snapshot.h"
#include "src/db/snapshot.h"
#include "src/report/render.h"
#include "src/serve/service.h"
#include "src/serve/socket.h"
#include "src/serve/spool.h"
#include "src/trace/trace_io.h"
#include "src/util/file_io.h"
#include "src/util/flags.h"
#include "src/util/socket.h"
#include "src/util/string_util.h"
#include "src/vfs/mm_kernel.h"
#include "src/vfs/types.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

using namespace lockdoc;

namespace {

using Clock = std::chrono::steady_clock;

// Requests timed per warm transport (spool, socket) and cold reloads.
constexpr uint64_t kWarmRepeats = 20;
constexpr uint64_t kColdRepeats = 4;

double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

// Flat span recorder: Run() times one call and files it under `name`.
class Tracer {
 public:
  template <class F>
  decltype(auto) Run(const std::string& name, F&& body) {
    Guard guard(this, name);
    return body();
  }

  double Total(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
  }
  // Median duration of the spans named `name`, 0 when there are none.
  double Median(const std::string& name) const {
    auto it = samples_.find(name);
    if (it == samples_.end() || it->second.empty()) {
      return 0.0;
    }
    std::vector<double> v = it->second;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  }
  double Sum() const { return sum_; }
  size_t count() const { return count_; }

 private:
  class Guard {
   public:
    Guard(Tracer* tracer, const std::string& name)
        : tracer_(tracer), name_(name), start_(Clock::now()) {}
    ~Guard() { tracer_->Record(name_, SecondsSince(start_)); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Tracer* tracer_;
    std::string name_;
    Clock::time_point start_;
  };

  void Record(const std::string& name, double seconds) {
    totals_[name] += seconds;
    samples_[name].push_back(seconds);
    sum_ += seconds;
    ++count_;
  }

  std::map<std::string, double> totals_;
  std::map<std::string, std::vector<double>> samples_;
  double sum_ = 0.0;
  size_t count_ = 0;
};

// Correctness bookkeeping: every check is attempted; a false one fails and
// is reported on stderr.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "trace_run: check failed: %s\n", what.c_str());
    }
    return ok;
  }
};

struct InputSpec {
  std::string name;
  bool mm = false;
  uint64_t ops = 0;
  uint64_t seed = 0;
};

bool ParseInputs(const std::string& spec, std::vector<InputSpec>* out) {
  for (const std::string& item : SplitAndTrim(spec, ',')) {
    std::vector<std::string> parts = SplitAndTrim(item, ':');
    InputSpec input;
    if (parts.size() != 4 || (parts[1] != "vfs" && parts[1] != "mm") ||
        !ParseUint64(parts[2], &input.ops) || !ParseUint64(parts[3], &input.seed)) {
      return false;
    }
    input.name = parts[0];
    input.mm = parts[1] == "mm";
    out->push_back(input);
  }
  return !out->empty();
}

std::optional<std::string> ReadIfExists(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return std::nullopt;
  }
  auto bytes = ReadFileToString(path);
  return bytes.ok() ? std::optional<std::string>(bytes.value()) : std::nullopt;
}

uint64_t SizeOf(const std::string& path) {
  auto size = FileSize(path);
  return size.ok() ? size.value() : 0;
}

class Runner {
 public:
  Runner(const FlagSet& flags, std::vector<InputSpec> inputs)
      : flags_(flags),
        inputs_(std::move(inputs)),
        work_(flags.GetString("work", "")),
        refs_(flags.GetString("refs", "")),
        jobs_(flags.GetUint64("jobs", 1)),
        workers_(flags.GetUint64("workers", 1)) {}

  int Main() {
    const Clock::time_point start = Clock::now();
    tracer_.Run("setup.registry", [&] {
      base_registry_ = BuildVfsRegistry(&base_ids_);
      mm_registry_ = BuildVfsMmRegistry(&mm_ids_);
    });
    pipeline_.filter = VfsKernel::MakeFilterConfig();
    pipeline_.derivator.accept_threshold = 0.9;
    pipeline_.jobs = jobs_;

    for (const InputSpec& input : inputs_) {
      Simulate(input);
    }
    const InputSpec* analyzed = Find(flags_.GetString("analyze", ""));
    if (!checks_.Expect(analyzed != nullptr, "--analyze names an input")) {
      return 1;
    }
    Import(*analyzed);
    Analyze(*analyzed);
    Serve();
    const double wall = SecondsSince(start);
    Emit(wall);
    return 0;
  }

 private:
  const InputSpec* Find(const std::string& name) const {
    for (const InputSpec& input : inputs_) {
      if (input.name == name) {
        return &input;
      }
    }
    return nullptr;
  }
  std::string TracePath(const std::string& input) const { return work_ + "/" + input + ".trace"; }
  std::string LockdbPath(const std::string& input) const {
    return work_ + "/" + input + ".lockdb";
  }
  std::string DocumentedRules(bool mm) const {
    return VfsKernel::DocumentedRulesText() + (mm ? MmKernel::DocumentedRulesText() : "");
  }

  void Simulate(const InputSpec& input) {
    MixOptions mix;
    mix.ops = input.ops;
    mix.seed = input.seed;
    auto sim = std::make_unique<SimulationResult>(tracer_.Run("workload.simulate", [&] {
      return input.mm ? SimulateMmRun(mix, FaultPlan{}) : SimulateKernelRun(mix, FaultPlan{});
    }));
    events_ += sim->trace.size();
    Status written =
        tracer_.Run("trace.write", [&] { return WriteTraceToFile(sim->trace, TracePath(input.name)); });
    checks_.Expect(written.ok(), "write trace " + input.name);
    trace_bytes_ += SizeOf(TracePath(input.name));
    tracer_.Run("teardown", [&] { sim.reset(); });
  }

  // What `lockdoc import` does: read the trace, then build the snapshot and
  // publish it atomically (fsync + rename) in one overlapped pass.
  void Import(const InputSpec& input) {
    ThreadPool read_pool(jobs_);
    TraceReadOptions read_options;
    read_options.pool = &read_pool;
    auto trace = std::make_unique<Result<Trace>>(tracer_.Run(
        "trace.read", [&] { return ReadTraceFromFile(TracePath(input.name), read_options, nullptr); }));
    if (!checks_.Expect(trace->ok(), "read trace " + input.name)) {
      return;
    }
    const TypeRegistry& registry = input.mm ? *mm_registry_ : *base_registry_;
    PipelineTimings timings;
    auto built = std::make_unique<Result<AnalysisSnapshot>>(tracer_.Run("core.build_and_save", [&] {
      return BuildAndSaveSnapshot(trace->value(), registry, pipeline_, SnapshotWriteOptions{},
                                  LockdbPath(input.name), &timings);
    }));
    if (checks_.Expect(built->ok(), "import " + input.name)) {
      const AnalysisSnapshot& snapshot = built->value();
      for (const std::string& name : snapshot.db.TableNames()) {
        db_rows_ += snapshot.db.table(name).row_count();
      }
      accesses_ = snapshot.import_stats.accesses_kept;
    }
    for (const PhaseTiming& phase : timings.phases) {
      import_phases_[phase.phase] += phase.seconds;
    }
    tracer_.Run("teardown", [&] {
      built.reset();
      trace.reset();
    });
  }

  // What `lockdoc analyze` does on the .lockdb: peek the registry shape,
  // load, build the shared indexes (forced one by one so each pass span is
  // self time), run every single-input pass, render the non-text formats.
  void Analyze(const InputSpec& input) {
    const std::string path = LockdbPath(input.name);
    auto type_count = tracer_.Run("core.snapshot_peek", [&] { return PeekSnapshotTypeCount(path); });
    checks_.Expect(type_count.ok(), "peek " + path);
    const bool mm = type_count.ok() && type_count.value() > VfsBaseTypeCount();
    checks_.Expect(mm == input.mm, "peek picks the registry of " + input.name);
    const TypeRegistry* registry = mm ? mm_registry_.get() : base_registry_.get();
    auto loaded = std::make_unique<Result<AnalysisSnapshot>>(
        tracer_.Run("core.snapshot_load", [&] { return LoadSnapshot(path, *registry); }));
    if (!checks_.Expect(loaded->ok(), "load " + path)) {
      return;
    }
    const AnalysisSnapshot& snapshot = loaded->value();
    snapshot_bytes_ = SizeOf(path);
    tracer_.Run("core.snapshot_inspect", [&] { MeasureSections(snapshot); });

    AnalysisOptions options;
    options.pipeline = pipeline_;
    options.pass.documented_rules_text = DocumentedRules(mm);
    PipelineTimings timings;
    auto context = tracer_.Run("core.context.create", [&] {
      return std::make_unique<AnalysisContext>(&snapshot, registry, options, &timings);
    });
    tracer_.Run("core.context.rules", [&] { context->rules(); });
    tracer_.Run("core.context.member_access", [&] { context->member_access_index(); });
    tracer_.Run("core.context.postings", [&] { context->lock_postings(); });
    tracer_.Run("core.context.lock_order", [&] { context->lock_order_graph(); });
    mining_ = timings.mining;

    const std::string ref_dir = refs_ + "/" + input.name + "/";
    std::vector<std::pair<std::string, PassOutput>> outputs;
    for (const auto& pass : PassRegistry::Default().passes()) {
      const std::string name(pass->name());
      if (name == "diff") {
        continue;
      }
      PassOutput out;
      Status status = tracer_.Run("core.pass." + name, [&] { return pass->Run(*context, out); });
      checks_.Expect(status.ok(), "pass " + name);
      checks_.Expect(ReadIfExists(ref_dir + name + ".txt") == out.text,
                     "pass " + name + " text equals the CLI's");
      outputs.emplace_back(name, std::move(out));
    }
    for (const auto& [name, out] : outputs) {
      std::string json = tracer_.Run(
          "report.render_json", [&] { return RenderReportDocument(out.doc, ReportFormat::kJson); });
      std::string html = tracer_.Run(
          "report.render_html", [&] { return RenderReportDocument(out.doc, ReportFormat::kHtml); });
      if (auto ref = ReadIfExists(ref_dir + name + ".json")) {
        checks_.Expect(*ref == json, "pass " + name + " json equals the CLI's");
      }
      if (auto ref = ReadIfExists(ref_dir + name + ".html")) {
        checks_.Expect(*ref == html, "pass " + name + " html equals the CLI's");
      }
    }
    tracer_.Run("teardown", [&] {
      outputs.clear();
      context.reset();
      loaded.reset();
    });
  }

  // Payload bytes of the accesses table and of the observation groups: the
  // two sections that dominate the container.
  void MeasureSections(const AnalysisSnapshot& snapshot) {
    if (snapshot.backing == nullptr) {
      return;
    }
    auto sections = ScanSnapshotSections(snapshot.backing->bytes, SnapshotScanMode::kVerifyHeaders);
    if (!checks_.Expect(sections.ok(), "scan snapshot sections")) {
      return;
    }
    const std::vector<std::string> tables = snapshot.db.TableNames();
    size_t table_index = 0;
    for (const SnapshotSection& section : sections.value()) {
      if (section.type == kSnapshotSectionTable) {
        if (table_index < tables.size() && tables[table_index] == "accesses") {
          accesses_section_bytes_ = section.payload.size();
        }
        ++table_index;
      } else if (section.type == kSnapshotSectionGroups) {
        groups_section_bytes_ = section.payload.size();
      }
    }
  }

  std::string RefText(const std::string& snap) const {
    auto it = serve_inputs_.find(snap);
    std::string input = it == serve_inputs_.end() ? snap : it->second;
    return ReadIfExists(refs_ + "/" + input + "/check.txt").value_or("<missing reference>");
  }

  // The serve path in-process: ingest through a spool scan, warm requests
  // through the spool and the socket, cold requests that evict and reload.
  void Serve() {
    for (const std::string& item : SplitAndTrim(flags_.GetString("serve", ""), ',')) {
      std::vector<std::string> kv = SplitAndTrim(item, '=');
      if (checks_.Expect(kv.size() == 2 && Find(kv[1]) != nullptr, "serve mapping " + item)) {
        serve_inputs_[kv[0]] = kv[1];
      }
    }
    const std::vector<std::string> hot = SplitAndTrim(flags_.GetString("hot", ""), ',');
    const std::vector<std::string> cold = SplitAndTrim(flags_.GetString("cold", ""), ',');
    if (!checks_.Expect(!hot.empty() && cold.size() == 2, "--hot and two --cold snapshots")) {
      return;
    }
    const bool drop_lockdb = flags_.GetString("serve-drop", "trace") == "lockdb";

    SpoolLayout layout = MakeSpoolLayout(work_ + "/trace_spool", "");
    tracer_.Run("serve.drop", [&] {
      std::error_code ec;
      std::filesystem::create_directories(layout.spool_dir, ec);
      checks_.Expect(EnsureSpoolLayout(layout).ok(), "spool layout");
      for (const auto& [snap, input] : serve_inputs_) {
        std::string from = drop_lockdb ? LockdbPath(input) : TracePath(input);
        std::string to = layout.incoming_dir + "/" + snap + (drop_lockdb ? ".lockdb" : ".trace");
        std::filesystem::create_hard_link(from, to, ec);
        checks_.Expect(!ec, "drop " + to);
      }
    });

    ServeServiceOptions options;
    options.pipeline = pipeline_;
    options.documented_rules_text = VfsKernel::DocumentedRulesText();
    options.extended_documented_rules_text = DocumentedRules(true);
    options.workers = workers_;
    // One slot per hot snapshot plus one for whichever cold snapshot is
    // current, so every cold request evicts exactly the other cold one.
    options.max_resident = hot.size() + 1;
    auto service = std::make_unique<ServeService>(layout, base_registry_.get(), options,
                                                  mm_registry_.get());
    checks_.Expect(tracer_.Run("serve.recover", [&] { return service->Recover(); }).ok(),
                   "serve recover");
    auto ingested = tracer_.Run("serve.ingest", [&] { return service->ProcessOnce(); });
    checks_.Expect(ingested.ok() && ingested.value() == serve_inputs_.size(), "serve ingest");

    uint64_t request_id = 0;
    auto answer = [&](const std::string& span, const std::string& snap) {
      std::string id = "t" + std::to_string(request_id++);
      ServeService::ServeAnswer got = tracer_.Run(span, [&] {
        return service->AnswerFromText(id, "pass=check\ninput=" + snap + "\n");
      });
      checks_.Expect(got.meta.ok && got.text == RefText(snap), "serve answer " + snap);
    };
    // Fill the store: the first cold snapshot, then every hot one.
    answer("serve.first_load", cold[0]);
    for (const std::string& snap : hot) {
      answer("serve.first_load", snap);
    }

    const std::string warm = hot[0];
    const std::string request = "pass=check\ninput=" + warm + "\n";
    for (uint64_t i = 0; i < kWarmRepeats; ++i) {
      std::string id = "s" + std::to_string(i);
      std::string out;
      std::string meta;
      tracer_.Run("serve.spool_warm", [&] {
        checks_.Expect(WriteFileAtomic(layout.requests_dir + "/" + id + ".req", request).ok(),
                       "spool request write");
        auto handled = service->ProcessOnce();
        checks_.Expect(handled.ok() && handled.value() == 1, "spool scan answers one request");
        out = ReadIfExists(layout.responses_dir + "/" + id + ".out").value_or("");
        meta = ReadIfExists(layout.responses_dir + "/" + id + ".meta").value_or("");
        (void)RemoveFileIfExists(layout.responses_dir + "/" + id + ".out");
        (void)RemoveFileIfExists(layout.responses_dir + "/" + id + ".meta");
      });
      checks_.Expect(StartsWith(meta, "status=ok") && out == RefText(warm), "spool answer");
    }

    auto server = tracer_.Run("serve.socket_start", [&] {
      auto started = std::make_unique<ServeSocketServer>(service.get(), ServeSocketOptions{});
      checks_.Expect(started->Start().ok(), "socket start");
      return started;
    });
    auto connection = tracer_.Run("serve.socket_start",
                                  [&] { return ConnectTcp("127.0.0.1", server->port()); });
    if (checks_.Expect(connection.ok(), "socket connect")) {
      const int fd = connection.value().get();
      for (uint64_t i = 0; i < kWarmRepeats; ++i) {
        FrameRead meta;
        FrameRead out;
        tracer_.Run("serve.socket_warm", [&] {
          checks_.Expect(WriteFrame(fd, request).ok(), "socket write");
          meta = ReadFrame(fd, 60000, 60000, 0);
          out = ReadFrame(fd, 60000, 60000, 0);
        });
        checks_.Expect(meta.status == FrameStatus::kOk && StartsWith(meta.payload, "status=ok") &&
                           out.status == FrameStatus::kOk && out.payload == RefText(warm),
                       "socket answer");
      }
    }
    tracer_.Run("serve.socket_stop", [&] {
      if (connection.ok()) {
        connection.value().Reset();
      }
      server->Stop();
      server.reset();
    });

    // Each cold request names the cold snapshot that is not resident; the
    // hot ones are touched after it so the other cold one stays least
    // recently used and is the one evicted next time.
    for (uint64_t i = 0; i < kColdRepeats; ++i) {
      answer("serve.cold_reload", cold[(i + 1) % 2]);
      for (const std::string& snap : hot) {
        answer("serve.touch", snap);
      }
    }
    ServeStats stats = service->stats();
    checks_.Expect(stats.evictions == kColdRepeats, "serve evictions equal the cold requests");
    checks_.Expect(stats.answered_error == 0, "serve answers no request with an error");
    checks_.Expect(service->DrainZombies(1000), "serve drains");
    tracer_.Run("teardown", [&] { service.reset(); });
  }

  // Cost of one span, measured on empty bodies.
  static double SpanCost() {
    Tracer calibration;
    constexpr int kSpans = 100000;
    const std::string name = "calibrate";
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      calibration.Run(name, [] {});
    }
    return SecondsSince(start) / kSpans;
  }

  void Emit(double wall) {
    const double ms = 1000.0;
    const uint64_t lookups = mining_.enum_cache_hits + mining_.enum_cache_misses;
    std::vector<std::pair<std::string, double>> metrics = {
        {"workload.simulate_s", tracer_.Total("workload.simulate")},
        {"workload.events", static_cast<double>(events_)},
        {"trace.read_s", tracer_.Total("trace.read")},
        {"trace.write_s", tracer_.Total("trace.write")},
        {"trace.bytes", static_cast<double>(trace_bytes_)},
        {"db.import_s", import_phases_["database import"]},
        {"db.rows", static_cast<double>(db_rows_)},
        {"core.extract_s", import_phases_["observation extraction"]},
        {"core.accesses", static_cast<double>(accesses_)},
        {"core.snapshot_save_s", import_phases_["snapshot save"]},
        {"core.snapshot_peek_s", tracer_.Total("core.snapshot_peek")},
        {"core.snapshot_load_s", tracer_.Total("core.snapshot_load")},
        {"core.snapshot_bytes", static_cast<double>(snapshot_bytes_)},
        {"core.snapshot_bytes.accesses", static_cast<double>(accesses_section_bytes_)},
        {"core.snapshot_bytes.groups", static_cast<double>(groups_section_bytes_)},
        {"core.context.rules_s", tracer_.Total("core.context.rules")},
        {"core.mining.enum_cache_hit_ratio",
         lookups == 0 ? 0.0 : static_cast<double>(mining_.enum_cache_hits) / lookups},
        {"core.mining.candidates_scored", static_cast<double>(mining_.candidates_scored)},
        {"core.context.member_access_s", tracer_.Total("core.context.member_access")},
        {"core.context.postings_s", tracer_.Total("core.context.postings")},
        {"core.context.lock_order_s", tracer_.Total("core.context.lock_order")},
    };
    for (const auto& pass : PassRegistry::Default().passes()) {
      const std::string name(pass->name());
      if (name != "diff") {
        metrics.emplace_back("core.pass." + name + "_s", tracer_.Total("core.pass." + name));
      }
    }
    std::vector<std::pair<std::string, double>> tail = {
        {"report.render_json_s", tracer_.Total("report.render_json")},
        {"report.render_html_s", tracer_.Total("report.render_html")},
        {"serve.ingest_s", tracer_.Total("serve.ingest")},
        {"serve.spool_warm_ms", tracer_.Median("serve.spool_warm") * ms},
        {"serve.socket_warm_ms", tracer_.Median("serve.socket_warm") * ms},
        {"serve.cold_reload_ms", tracer_.Median("serve.cold_reload") * ms},
        {"unattributed_s", wall - tracer_.Sum()},
        {"tracing_overhead_s", SpanCost() * static_cast<double>(tracer_.count())},
        // The analysis-side spans of one `lockdoc analyze`, for the
        // analyze-vs-spans ratio computed against the CLI's wall time.
        {"analyze_spans_s",
         tracer_.Total("core.snapshot_peek") + tracer_.Total("core.snapshot_load") +
             tracer_.Total("core.context.create") + tracer_.Total("core.context.rules") +
             tracer_.Total("core.context.member_access") + tracer_.Total("core.context.postings") +
             tracer_.Total("core.context.lock_order") + PassSpans()},
        {"traced_wall_s", wall},
        {"span_count", static_cast<double>(tracer_.count())},
    };
    metrics.insert(metrics.end(), tail.begin(), tail.end());

    std::string json = "{\"attempted\": " + std::to_string(checks_.attempted) +
                       ", \"failed\": " + std::to_string(checks_.failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      json += StrFormat("%s\"%s\": %.9g", i == 0 ? "" : ", ", metrics[i].first.c_str(),
                        metrics[i].second);
    }
    json += "}}\n";
    std::fputs(json.c_str(), stdout);
  }

  double PassSpans() const {
    double sum = 0.0;
    for (const auto& pass : PassRegistry::Default().passes()) {
      sum += tracer_.Total("core.pass." + std::string(pass->name()));
    }
    return sum;
  }

  const FlagSet& flags_;
  std::vector<InputSpec> inputs_;
  std::string work_;
  std::string refs_;
  uint64_t jobs_;
  uint64_t workers_;
  Tracer tracer_;
  Checks checks_;
  VfsIds base_ids_;
  VfsIds mm_ids_;
  std::unique_ptr<TypeRegistry> base_registry_;
  std::unique_ptr<TypeRegistry> mm_registry_;
  PipelineOptions pipeline_;
  std::map<std::string, std::string> serve_inputs_;

  uint64_t events_ = 0;
  uint64_t trace_bytes_ = 0;
  uint64_t db_rows_ = 0;
  uint64_t accesses_ = 0;
  std::map<std::string, double> import_phases_;
  uint64_t snapshot_bytes_ = 0;
  uint64_t accesses_section_bytes_ = 0;
  uint64_t groups_section_bytes_ = 0;
  MiningStats mining_;
};

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  std::string error;
  std::vector<InputSpec> inputs;
  if (!flags.Parse(argc, argv, &error) || !flags.Has("work") || !flags.Has("refs") ||
      !ParseInputs(flags.GetString("inputs", ""), &inputs)) {
    std::fprintf(stderr,
                 "usage: lockdoc_trace_run --work DIR --refs DIR --inputs NAME:KIND:OPS:SEED,... "
                 "--analyze NAME --serve SNAP=INPUT,... --hot SNAP,... --cold SNAP,SNAP "
                 "[--serve-drop trace|lockdb] [--jobs N] [--workers N] %s\n",
                 error.c_str());
    return 64;
  }
  Runner runner(flags, std::move(inputs));
  return runner.Main();
}
