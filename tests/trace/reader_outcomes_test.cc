// Pins the outcome of every trace read the corruption suite makes, in both
// modes, against a golden file: the strict read's error message or a digest
// of the trace it returned, and the salvage read's error message or its
// damage report plus the digest. The cases are the corruption suite's 300
// (six kinds x 40 v2 seeds + 10 v1 seeds), every kind applied to a trace of
// at least 16 event frames, and hand-made damage that passes the CRCs:
// lying counts, dangling references, reordered, unknown and malformed
// frames.
//
// The digest resolves every string id to its string, so renumbering the
// placeholder pool of a lost string table does not move it; the pool itself
// is digested only when the string table survived.
//
// Every line must come out the same at pools of 1, 2 and 8 threads. After an
// intended change of outcome, regenerate the golden file by running this
// binary with LOCKDOC_REGEN_GOLDEN=1 from the source tree.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/corruptor.h"
#include "src/trace/trace_io.h"
#include "src/util/crc32.h"
#include "src/util/thread_pool.h"
#include "src/util/varint.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

std::string GoldenPath() {
  return std::string(LOCKDOC_TESTDATA_DIR) + "/reader_outcomes.golden";
}

// FNV-1a, 64 bit.
class Digest {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  void U64(uint64_t value) { Bytes(&value, sizeof(value)); }
  void Str(const std::string& text) {
    U64(text.size());
    Bytes(text.data(), text.size());
  }
  std::string Hex() const {
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx", static_cast<unsigned long long>(hash_));
    return out;
  }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

std::string TraceDigest(const Trace& trace, bool with_pool) {
  Digest d;
  d.U64(trace.stack_count());
  for (const CallStack& stack : trace.stacks()) {
    d.U64(stack.frames.size());
    for (StringId frame : stack.frames) {
      d.Str(trace.String(frame));
    }
  }
  d.U64(trace.size());
  for (const TraceEvent& e : trace.events()) {
    d.U64(static_cast<uint64_t>(e.kind));
    d.U64(static_cast<uint64_t>(e.context));
    d.U64(e.seq);
    d.U64(e.task_id);
    d.U64(e.addr);
    d.U64(e.size);
    d.U64(e.type);
    d.U64(e.subclass);
    d.U64(static_cast<uint64_t>(e.lock_type));
    d.U64(static_cast<uint64_t>(e.mode));
    d.Str(trace.String(e.name));
    d.Str(trace.String(e.loc.file));
    d.U64(e.loc.line);
    d.U64(e.stack);
    d.U64(e.has_range ? 1 : 0);
    d.U64(e.range_start);
    d.U64(e.range_end);
  }
  if (with_pool) {
    d.U64(trace.string_pool().size());
    for (const std::string& s : trace.string_pool().strings()) {
      d.Str(s);
    }
  }
  return d.Hex();
}

std::string OneLine(std::string text) {
  while (!text.empty() && text.back() == '\n') {
    text.pop_back();
  }
  std::string out;
  for (char c : text) {
    if (c == '\n') {
      out += " | ";
    } else {
      out += c;
    }
  }
  return out;
}

// "<case> strict ..." and "<case> salvage ..." for one input.
std::string Outcomes(const std::string& name, const std::string& bytes, ThreadPool* pool) {
  std::string lines;
  for (bool salvage : {false, true}) {
    TraceReadOptions options;
    options.salvage = salvage;
    options.pool = pool;
    TraceReadReport report;
    auto read = ReadTraceFromBytes(bytes, options, &report);
    lines += name + (salvage ? " salvage " : " strict ");
    if (!read.ok()) {
      lines += "error: " + read.status().message();
    } else {
      lines += "ok: digest " + TraceDigest(read.value(), !report.string_table_lost) +
               " | " + OneLine(report.ToString());
    }
    lines += '\n';
  }
  return lines;
}

std::string Serialize(const Trace& trace, TraceFormat format) {
  std::ostringstream out;
  WriteTrace(trace, out, format);
  return std::move(out).str();
}

// One v2 frame, split out of a written trace so a case can edit it; Join
// re-seals every CRC, so only the edit itself is damage.
struct RawFrame {
  uint8_t type = 0;
  uint32_t seq = 0;
  std::string payload;
};

constexpr uint8_t kStringsFrame = 1;
constexpr uint8_t kStacksFrame = 2;
constexpr uint8_t kEndFrame = 4;

std::vector<RawFrame> SplitFrames(const std::string& bytes) {
  std::vector<RawFrame> frames;
  size_t pos = 8;  // After the magic.
  while (pos + kTraceFrameHeaderSize + kTraceFrameTrailerSize <= bytes.size()) {
    RawFrame frame;
    frame.type = static_cast<uint8_t>(bytes[pos + 4]);
    frame.seq = LoadUint32LE(bytes.data() + pos + 5);
    const size_t length = LoadUint32LE(bytes.data() + pos + 9);
    frame.payload = bytes.substr(pos + kTraceFrameHeaderSize, length);
    frames.push_back(std::move(frame));
    pos += kTraceFrameHeaderSize + length + kTraceFrameTrailerSize;
  }
  EXPECT_EQ(pos, bytes.size());
  return frames;
}

std::string JoinFrames(const std::vector<RawFrame>& frames) {
  std::string out = "LDTRACE2";
  for (const RawFrame& frame : frames) {
    std::string header(reinterpret_cast<const char*>(kTraceFrameMarker),
                       sizeof(kTraceFrameMarker));
    header.push_back(static_cast<char>(frame.type));
    AppendUint32LE(header, frame.seq);
    AppendUint32LE(header, static_cast<uint32_t>(frame.payload.size()));
    uint32_t crc = Crc32Update(0, header.data() + sizeof(kTraceFrameMarker),
                               header.size() - sizeof(kTraceFrameMarker));
    crc = Crc32Update(crc, frame.payload.data(), frame.payload.size());
    out += header;
    out += frame.payload;
    AppendUint32LE(out, crc);
  }
  return out;
}

std::string EditFrames(const std::string& bytes,
                       const std::function<void(std::vector<RawFrame>&)>& edit) {
  std::vector<RawFrame> frames = SplitFrames(bytes);
  edit(frames);
  return JoinFrames(frames);
}

std::string VarintBytes(uint64_t value) {
  std::string out;
  PutVarint(out, value);
  return out;
}

// (case name, bytes) in golden-file order.
using Corpus = std::vector<std::pair<std::string, std::string>>;

void AddCorruptions(Corpus& corpus, const std::string& label, const std::string& clean,
                    uint64_t seeds) {
  for (CorruptionKind kind : kAllCorruptionKinds) {
    for (uint64_t seed = 0; seed < seeds; ++seed) {
      corpus.emplace_back(label + " " + CorruptionKindName(kind) + " seed " + std::to_string(seed),
                          CorruptTraceBytes(clean, kind, seed));
    }
  }
}

// Damage that passes every CRC, on a trace of many event frames.
void AddCraftedCases(Corpus& corpus, const Trace& trace) {
  const std::string clean = Serialize(trace, TraceFormat::kV2);
  auto add = [&](const std::string& name, std::string bytes) {
    corpus.emplace_back("crafted " + name, std::move(bytes));
  };
  // The event count of the frame at seq 5 claims one event more.
  add("count-overstated", EditFrames(clean, [](std::vector<RawFrame>& f) {
        ByteCursor in{f[5].payload.data(), f[5].payload.size(), 0};
        uint64_t count = 0;
        EXPECT_TRUE(GetVarint(in, &count));
        f[5].payload.replace(0, in.pos, VarintBytes(count + 1));
      }));
  // An event frame cut in half: its first events decode, the rest do not.
  add("frame-halved", EditFrames(clean, [](std::vector<RawFrame>& f) {
        f[7].payload.resize(f[7].payload.size() / 2);
      }));
  // A count larger than the frame's bytes.
  add("count-beyond-length", EditFrames(clean, [](std::vector<RawFrame>& f) {
        f[4].payload = VarintBytes(f[4].payload.size() + 16) + f[4].payload;
      }));
  // Dangling references in CRC-intact event frames.
  {
    Trace edited;
    edited.mutable_string_pool().Reset(trace.string_pool().strings());
    edited.ResetStacks(trace.stacks());
    for (const TraceEvent& e : trace.events()) {
      edited.Append(e);
    }
    std::vector<TraceEvent>& events = edited.mutable_events();
    events[5].name = 1000000;
    events[events.size() - 3].loc.file = 999999;
    add("dangling-names", Serialize(edited, TraceFormat::kV2));
    events[5].name = trace.events()[5].name;
    events[events.size() - 3].loc.file = trace.events()[events.size() - 3].loc.file;
    events[10].stack = 999999;
    events[20000].stack = static_cast<StackId>(edited.stack_count());
    add("dangling-stack-refs", Serialize(edited, TraceFormat::kV2));
    events[10].stack = trace.events()[10].stack;
    events[20000].stack = trace.events()[20000].stack;
    // A stack whose frame names a string the table does not have; two
    // events point at it.
    CallStack bad;
    bad.frames = {1, 123456};
    const StackId bad_id = edited.InternStack(bad);
    events[30].stack = bad_id;
    events[40000].stack = bad_id;
    add("stack-frame-dangling-string", Serialize(edited, TraceFormat::kV2));
  }
  // Two event frames stored out of order.
  add("event-frames-swapped", EditFrames(clean, [](std::vector<RawFrame>& f) {
        std::swap(f[4], f[9]);
      }));
  // An event frame repeated after the end frame.
  add("event-frame-repeated-after-end", EditFrames(clean, [](std::vector<RawFrame>& f) {
        f.push_back(f[6]);
      }));
  // A frame of an unknown type among the event frames.
  add("unknown-frame-type", EditFrames(clean, [](std::vector<RawFrame>& f) {
        RawFrame unknown;
        unknown.type = 9;
        unknown.seq = 6;
        unknown.payload = "future";
        for (size_t i = 6; i < f.size(); ++i) {
          ++f[i].seq;
        }
        f.insert(f.begin() + 6, unknown);
      }));
  add("end-frame-empty", EditFrames(clean, [](std::vector<RawFrame>& f) {
        ASSERT_EQ(f.back().type, kEndFrame);
        f.back().payload.clear();
      }));
  add("end-count-overstated", EditFrames(clean, [&](std::vector<RawFrame>& f) {
        f.back().payload = VarintBytes(trace.size() + 5);
      }));
  add("end-count-understated", EditFrames(clean, [&](std::vector<RawFrame>& f) {
        f.back().payload = VarintBytes(trace.size() - 5);
      }));
  add("string-table-malformed", EditFrames(clean, [](std::vector<RawFrame>& f) {
        ASSERT_EQ(f[0].type, kStringsFrame);
        f[0].payload = VarintBytes(1) + VarintBytes(1) + "x";
      }));
  add("stack-table-malformed", EditFrames(clean, [](std::vector<RawFrame>& f) {
        ASSERT_EQ(f[1].type, kStacksFrame);
        f[1].payload = VarintBytes(1) + VarintBytes(5000);
      }));
  add("string-and-stack-frames-dropped", EditFrames(clean, [](std::vector<RawFrame>& f) {
        f.erase(f.begin(), f.begin() + 2);
      }));
  add("trailing-garbage", clean + "garbage after the end frame");
  // Cut inside the end frame's header.
  {
    const size_t end_frame = clean.size() - kTraceFrameTrailerSize -
                             SplitFrames(clean).back().payload.size() - kTraceFrameHeaderSize;
    add("cut-in-end-frame-header", clean.substr(0, end_frame + 6));
  }
  // A CRC failure in one frame and a lying length in a later one.
  {
    std::string bytes = clean;
    std::vector<RawFrame> frames = SplitFrames(clean);
    size_t pos = 8;
    std::vector<size_t> starts;
    for (const RawFrame& frame : frames) {
      starts.push_back(pos);
      pos += kTraceFrameHeaderSize + frame.payload.size() + kTraceFrameTrailerSize;
    }
    bytes[starts[3] + kTraceFrameHeaderSize + 40] ^= 0x10;
    bytes[starts[8] + 9] ^= 0x04;
    add("crc-then-length", std::move(bytes));
  }
}

const Corpus& GetCorpus() {
  static const Corpus* corpus = [] {
    auto* c = new Corpus;
    // The corruption suite's fixture.
    MixOptions small;
    small.ops = 150;
    small.seed = 11;
    SimulationResult small_sim = SimulateKernelRun(small, FaultPlan::Clean());
    const std::string small_v2 = Serialize(small_sim.trace, TraceFormat::kV2);
    const std::string small_v1 = Serialize(small_sim.trace, TraceFormat::kV1);
    c->emplace_back("v2 clean", small_v2);
    c->emplace_back("v1 clean", small_v1);
    AddCorruptions(*c, "v2", small_v2, 40);
    AddCorruptions(*c, "v1", small_v1, 10);

    MixOptions large;
    large.ops = 1800;
    large.seed = 5;
    SimulationResult large_sim = SimulateKernelRun(large, FaultPlan::Clean());
    const std::string large_v2 = Serialize(large_sim.trace, TraceFormat::kV2);
    const size_t event_frames =
        (large_sim.trace.size() + kTraceEventsPerFrame - 1) / kTraceEventsPerFrame;
    EXPECT_GE(event_frames, 16u);
    c->emplace_back("v2-large clean", large_v2);
    AddCorruptions(*c, "v2-large", large_v2, 4);
    AddCraftedCases(*c, large_sim.trace);
    return c;
  }();
  return *corpus;
}

std::string AllOutcomes(ThreadPool* pool) {
  std::string out;
  for (const auto& [name, bytes] : GetCorpus()) {
    out += Outcomes(name, bytes, pool);
  }
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

class ReaderOutcomesTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ReaderOutcomesTest, MatchGolden) {
  ThreadPool pool(GetParam());
  const std::string outcomes = AllOutcomes(&pool);
  if (std::getenv("LOCKDOC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << outcomes;
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden " << GoldenPath();
  std::ostringstream golden;
  golden << in.rdbuf();
  const std::vector<std::string> want = Lines(golden.str());
  const std::vector<std::string> got = Lines(outcomes);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "line " << i + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, ReaderOutcomesTest, ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace lockdoc
