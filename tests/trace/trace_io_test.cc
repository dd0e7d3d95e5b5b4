#include "src/trace/trace_io.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/core/clock_example.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/varint.h"

namespace lockdoc {
namespace {

Trace MakeSmallTrace() {
  Trace trace;
  TraceEvent alloc;
  alloc.kind = EventKind::kAlloc;
  alloc.addr = 0x1000;
  alloc.size = 64;
  alloc.type = 3;
  alloc.subclass = 2;
  alloc.task_id = 7;
  trace.Append(alloc);

  CallStack stack;
  stack.frames = {trace.InternString("f1"), trace.InternString("f2")};
  StackId stack_id = trace.InternStack(stack);

  TraceEvent lock;
  lock.kind = EventKind::kLockAcquire;
  lock.addr = 0x1008;
  lock.lock_type = LockType::kMutex;
  lock.mode = AcquireMode::kShared;
  lock.context = ContextKind::kSoftirq;
  lock.loc.file = trace.InternString("fs/x.c");
  lock.loc.line = 99;
  lock.stack = stack_id;
  trace.Append(lock);

  TraceEvent write;
  write.kind = EventKind::kMemWrite;
  write.addr = 0x1010;
  write.size = 8;
  write.stack = stack_id;
  trace.Append(write);
  return trace;
}

void ExpectTracesEqual(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const TraceEvent& x = a.event(i);
    const TraceEvent& y = b.event(i);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.context, y.context);
    EXPECT_EQ(x.task_id, y.task_id);
    EXPECT_EQ(x.addr, y.addr);
    EXPECT_EQ(x.size, y.size);
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.subclass, y.subclass);
    EXPECT_EQ(x.lock_type, y.lock_type);
    EXPECT_EQ(x.mode, y.mode);
    EXPECT_EQ(x.has_range, y.has_range);
    EXPECT_EQ(x.range_start, y.range_start);
    EXPECT_EQ(x.range_end, y.range_end);
    EXPECT_EQ(x.loc.line, y.loc.line);
    // Interned strings must resolve identically.
    EXPECT_EQ(a.String(x.loc.file), b.String(y.loc.file));
    if (x.stack != kInvalidStack) {
      EXPECT_EQ(a.FormatStack(x.stack), b.FormatStack(y.stack));
    } else {
      EXPECT_EQ(y.stack, kInvalidStack);
    }
  }
}

Trace MakeRangedTrace() {
  Trace trace;
  TraceEvent alloc;
  alloc.kind = EventKind::kAlloc;
  alloc.addr = 0x2000;
  alloc.size = 128;
  alloc.type = 11;
  alloc.has_range = true;  // Ground-truth resource span.
  alloc.range_start = 0x7f0000000000;
  alloc.range_end = 0x7f0000004000;
  trace.Append(alloc);

  TraceEvent acquire;
  acquire.kind = EventKind::kLockAcquire;
  acquire.addr = 0x2008;
  acquire.lock_type = LockType::kRangeLock;
  acquire.mode = AcquireMode::kShared;
  acquire.has_range = true;
  acquire.range_start = 0x7f0000001000;
  acquire.range_end = 0x7f0000002000;
  trace.Append(acquire);

  TraceEvent release = acquire;
  release.kind = EventKind::kLockRelease;
  trace.Append(release);
  return trace;
}

TEST(TraceIoTest, RangedEventsRoundTripV2) {
  Trace original = MakeRangedTrace();
  std::ostringstream out;
  WriteTrace(original, out);
  std::istringstream in(out.str());
  auto restored = ReadTrace(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectTracesEqual(original, restored.value());
}

TEST(TraceIoTest, RangedEventsRoundTripV1) {
  // The range flag lives in the per-event kind varint, shared by both
  // container formats.
  Trace original = MakeRangedTrace();
  std::ostringstream out;
  WriteTrace(original, out, TraceFormat::kV1);
  std::istringstream in(out.str());
  auto restored = ReadTrace(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectTracesEqual(original, restored.value());
}

TEST(TraceIoTest, ZeroRangeTraceEncodesAsLegacy) {
  // Differential: events without ranges must serialize to exactly the
  // bytes the pre-range writer produced — the flag bit costs nothing
  // unless set. Clearing has_range on an already-flagless trace is a
  // no-op at the byte level.
  Trace original = MakeSmallTrace();
  std::ostringstream before;
  WriteTrace(original, before);
  Trace scrubbed = MakeSmallTrace();
  for (size_t i = 0; i < scrubbed.size(); ++i) {
    ASSERT_FALSE(scrubbed.event(i).has_range);
  }
  std::ostringstream after;
  WriteTrace(scrubbed, after);
  EXPECT_EQ(before.str(), after.str());
}

TEST(TraceIoTest, RoundTripSmallTrace) {
  Trace original = MakeSmallTrace();
  std::ostringstream out;
  WriteTrace(original, out);
  std::istringstream in(out.str());
  auto restored = ReadTrace(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectTracesEqual(original, restored.value());
}

TEST(TraceIoTest, RoundTripRealisticTrace) {
  ClockExample example = BuildClockExample();
  std::ostringstream out;
  WriteTrace(example.trace, out);
  std::istringstream in(out.str());
  auto restored = ReadTrace(in);
  ASSERT_TRUE(restored.ok());
  ExpectTracesEqual(example.trace, restored.value());
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  Trace empty;
  std::ostringstream out;
  WriteTrace(empty, out);
  std::istringstream in(out.str());
  auto restored = ReadTrace(in);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().size(), 0u);
}

TEST(TraceIoTest, RejectsBadMagic) {
  std::istringstream in("NOTATRACE");
  EXPECT_FALSE(ReadTrace(in).ok());
}

TEST(TraceIoTest, RejectsTruncatedInput) {
  Trace original = MakeSmallTrace();
  std::ostringstream out;
  WriteTrace(original, out);
  std::string bytes = out.str();
  // Truncation anywhere after the magic must be detected, never crash.
  Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    size_t cut = 8 + rng.Below(bytes.size() - 8);
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_FALSE(ReadTrace(in).ok()) << "cut at " << cut;
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  Trace original = MakeSmallTrace();
  std::string path = ::testing::TempDir() + "/lockdoc_trace_test.bin";
  ASSERT_TRUE(WriteTraceToFile(original, path).ok());
  auto restored = ReadTraceFromFile(path);
  ASSERT_TRUE(restored.ok());
  ExpectTracesEqual(original, restored.value());
}

TEST(TraceIoTest, MissingFileFails) {
  EXPECT_FALSE(ReadTraceFromFile("/nonexistent/path/trace.bin").ok());
}

TEST(TraceIoTest, RoundTripExplicitV1) {
  Trace original = MakeSmallTrace();
  std::ostringstream out;
  WriteTrace(original, out, TraceFormat::kV1);
  std::istringstream in(out.str());
  TraceReadReport report;
  auto restored = ReadTrace(in, {}, &report);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(report.format_version, 1u);
  ExpectTracesEqual(original, restored.value());
}

TEST(TraceIoTest, V2ReportsCleanOnIntactInput) {
  Trace original = MakeSmallTrace();
  std::ostringstream out;
  WriteTrace(original, out);
  std::istringstream in(out.str());
  TraceReadReport report;
  auto restored = ReadTrace(in, {}, &report);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(report.format_version, 2u);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.events_salvaged, original.size());
  EXPECT_EQ(report.events_dropped, 0u);
}

TEST(TraceIoTest, ErrorsIncludeByteOffset) {
  Trace original = MakeSmallTrace();
  std::ostringstream out;
  WriteTrace(original, out);
  std::string bytes = out.str();
  std::istringstream in(bytes.substr(0, bytes.size() - 7));
  auto result = ReadTrace(in);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("offset 0x"), std::string::npos)
      << result.status().message();
}

TEST(TraceIoTest, RejectsNonCanonicalVarint) {
  // v1 stream whose string-table count is 1 encoded in two bytes (0x81 0x00):
  // a shorter encoding exists, so the reader must reject it.
  std::string bytes = "LDTRACE1";
  bytes += '\x81';
  bytes += '\x00';
  std::istringstream in(bytes);
  auto result = ReadTrace(in);
  ASSERT_FALSE(result.ok());
}

TEST(TraceIoTest, RejectsOverflowingVarint) {
  // Eleven continuation bytes encode more than 64 bits.
  std::string bytes = "LDTRACE1";
  for (int i = 0; i < 11; ++i) {
    bytes += '\xff';
  }
  std::istringstream in(bytes);
  EXPECT_FALSE(ReadTrace(in).ok());
}

TEST(TraceIoTest, RejectsStringLengthBeyondInput) {
  // String table declares one entry of 100000 bytes but the input ends
  // immediately: the reader must fail before allocating the 100000 bytes.
  std::string bytes = "LDTRACE1";
  bytes += '\x01';  // one string
  bytes += '\xa0';  // varint 100000 = 0xa0 0x8d 0x06
  bytes += '\x8d';
  bytes += '\x06';
  std::istringstream in(bytes);
  EXPECT_FALSE(ReadTrace(in).ok());
}

Trace MakeLargerTrace(uint64_t seed) {
  Rng rng(seed);
  Trace trace;
  std::vector<StringId> sids;
  for (int i = 0; i < 16; ++i) {
    sids.push_back(trace.InternString("name" + std::to_string(i)));
  }
  std::vector<StackId> stacks;
  for (int i = 0; i < 4; ++i) {
    CallStack stack;
    for (uint64_t f = 0; f < rng.Range(1, 5); ++f) {
      stack.frames.push_back(sids[rng.Below(sids.size())]);
    }
    stacks.push_back(trace.InternStack(stack));
  }
  // Enough events to span several v2 event frames (4096 events each), so
  // frame-granular salvage has interior boundaries to recover at.
  for (int i = 0; i < 12000; ++i) {
    TraceEvent e;
    e.kind = static_cast<EventKind>(rng.Below(static_cast<uint64_t>(EventKind::kStaticLockDef) + 1));
    e.context = static_cast<ContextKind>(rng.Below(3));
    e.task_id = static_cast<uint32_t>(rng.Below(8));
    e.addr = rng.Next() & 0xffffffffffull;
    e.size = static_cast<uint32_t>(rng.Range(1, 64));
    e.type = rng.Chance(0.5) ? kInvalidTypeId : static_cast<TypeId>(rng.Below(20));
    e.subclass = static_cast<SubclassId>(rng.Below(4));
    e.lock_type = static_cast<LockType>(rng.Below(kNumLockTypes));
    e.mode = static_cast<AcquireMode>(rng.Below(2));
    e.name = sids[rng.Below(sids.size())];
    e.loc.file = sids[rng.Below(sids.size())];
    e.loc.line = static_cast<uint32_t>(rng.Below(10000));
    e.stack = rng.Chance(0.3) ? kInvalidStack : stacks[rng.Below(stacks.size())];
    trace.Append(e);
  }
  return trace;
}

TEST(TraceIoTest, RoundTripPropertyBothFormats) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Trace original = MakeLargerTrace(seed);
    for (TraceFormat format : {TraceFormat::kV1, TraceFormat::kV2}) {
      std::ostringstream out;
      WriteTrace(original, out, format);
      std::istringstream in(out.str());
      TraceReadReport report;
      auto restored = ReadTrace(in, {}, &report);
      ASSERT_TRUE(restored.ok()) << "seed " << seed << ": " << restored.status().ToString();
      EXPECT_TRUE(report.clean());
      ExpectTracesEqual(original, restored.value());
    }
  }
}

TEST(TraceIoTest, SalvageRecoversPrefixOfTruncatedV2) {
  Trace original = MakeLargerTrace(3);
  std::ostringstream out;
  WriteTrace(original, out);
  std::string bytes = out.str();

  std::istringstream in(bytes.substr(0, bytes.size() * 3 / 4));
  TraceReadOptions options;
  options.salvage = true;
  TraceReadReport report;
  auto salvaged = ReadTrace(in, options, &report);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_TRUE(report.truncated);
  EXPECT_FALSE(report.clean());
  ASSERT_GT(salvaged.value().size(), 0u);
  ASSERT_LT(salvaged.value().size(), original.size());
  // Whatever survived is a bit-exact prefix.
  for (size_t i = 0; i < salvaged.value().size(); ++i) {
    EXPECT_EQ(salvaged.value().event(i).addr, original.event(i).addr);
    EXPECT_EQ(salvaged.value().event(i).kind, original.event(i).kind);
  }
}

TEST(TraceIoTest, SalvageSurvivesStringTableLoss) {
  Trace original = MakeLargerTrace(5);
  std::ostringstream out;
  WriteTrace(original, out);
  std::string bytes = out.str();
  // Corrupt one byte inside the first frame's payload (the string table).
  bytes[8 + kTraceFrameHeaderSize + 3] ^= 0x01;

  std::istringstream in(bytes);
  EXPECT_FALSE(ReadTrace(in).ok());  // Strict: CRC mismatch.

  std::istringstream again(bytes);
  TraceReadOptions options;
  options.salvage = true;
  TraceReadReport report;
  auto salvaged = ReadTrace(again, options, &report);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_TRUE(report.string_table_lost);
  EXPECT_EQ(report.frames_bad_crc, 1u);
  // All events survive; their names resolve to placeholders.
  EXPECT_EQ(salvaged.value().size(), original.size());
  const TraceEvent& e = salvaged.value().event(0);
  EXPECT_NO_FATAL_FAILURE((void)salvaged.value().String(e.name));
}

// The strict v2 reader decodes every event frame straight into its slice of
// the trace's event array; at any thread count the trace is the serial one,
// seq numbers included.
TEST(TraceIoTest, ParallelInPlaceDecodeMatchesSerial) {
  Trace original = MakeLargerTrace(4);
  std::ostringstream out;
  WriteTrace(original, out);
  const std::string bytes = out.str();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    TraceReadOptions options;
    options.pool = &pool;
    TraceReadReport report;
    auto restored = ReadTraceFromBytes(bytes, options, &report);
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    EXPECT_TRUE(report.clean());
    ExpectTracesEqual(original, restored.value());
    for (size_t i = 0; i < restored.value().size(); ++i) {
      ASSERT_EQ(restored.value().event(i).seq, i) << "threads=" << threads;
    }
  }
}

// Raises the leading event count of the `index`-th event frame of a v2
// trace by one (same varint width) and re-seals the frame's CRC, so only
// the count lies. Returns the offset just past that frame's payload.
size_t OverstateEventFrameCount(std::string& bytes, size_t index) {
  constexpr uint8_t kEventsFrame = 3;
  size_t pos = 8;  // After the magic.
  size_t seen = 0;
  while (pos + kTraceFrameHeaderSize <= bytes.size()) {
    const uint8_t type = static_cast<uint8_t>(bytes[pos + 4]);
    const size_t length = LoadUint32LE(bytes.data() + pos + 9);
    const size_t payload = pos + kTraceFrameHeaderSize;
    if (type == kEventsFrame && seen++ == index) {
      ByteCursor in{bytes.data(), payload + length, payload};
      uint64_t old_count = 0;
      EXPECT_TRUE(GetVarint(in, &old_count));
      std::string encoded;
      PutVarint(encoded, old_count + 1);
      EXPECT_EQ(encoded.size(), in.pos - payload) << "count must keep its varint width";
      bytes.replace(payload, encoded.size(), encoded);
      std::string crc;
      AppendUint32LE(crc, Crc32(bytes.data() + pos + sizeof(kTraceFrameMarker),
                                kTraceFrameHeaderSize - sizeof(kTraceFrameMarker) + length));
      bytes.replace(payload + length, crc.size(), crc);
      return payload + length;
    }
    pos = payload + length + kTraceFrameTrailerSize;
  }
  ADD_FAILURE() << "no event frame " << index;
  return 0;
}

std::string OffsetMessage(size_t offset, const char* what) {
  std::ostringstream out;
  out << "ReadTrace: offset 0x" << std::hex << offset << ": " << what;
  return out.str();
}

// A frame whose leading count claims one event more than it holds fails at
// the end of its payload, where the missing event would start — the count
// sizes the frame's slice of the event array but is never trusted past the
// bytes that are there.
TEST(TraceIoTest, StrictRejectsEventCountBeyondFrame) {
  Trace original = MakeLargerTrace(5);
  std::ostringstream out;
  WriteTrace(original, out);
  std::string bytes = out.str();
  const size_t frame_end = OverstateEventFrameCount(bytes, 1);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    TraceReadOptions options;
    options.pool = &pool;
    auto result = ReadTraceFromBytes(bytes, options, nullptr);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(), OffsetMessage(frame_end, "truncated or malformed event"))
        << "threads=" << threads;
  }
}

// Decode errors outrank reference errors, whatever their frames: a dangling
// string reference in the first event frame loses to a malformed count in a
// later one, exactly as the serial reader ordered them.
TEST(TraceIoTest, StrictDecodeErrorOutranksEarlierBadReference) {
  Trace original = MakeLargerTrace(6);
  original.mutable_events()[5].name = 1000000;  // No such string.
  std::ostringstream out;
  WriteTrace(original, out);
  std::string bytes = out.str();
  {
    auto reference_only = ReadTraceFromBytes(bytes, {}, nullptr);
    ASSERT_FALSE(reference_only.ok());
    EXPECT_NE(reference_only.status().message().find("event references unknown string"),
              std::string::npos)
        << reference_only.status().message();
  }
  const size_t frame_end = OverstateEventFrameCount(bytes, 2);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    TraceReadOptions options;
    options.pool = &pool;
    auto result = ReadTraceFromBytes(bytes, options, nullptr);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(), OffsetMessage(frame_end, "truncated or malformed event"))
        << "threads=" << threads;
  }
}

TEST(TraceIoTest, StrictRejectsTrailingGarbage) {
  Trace original = MakeSmallTrace();
  std::ostringstream out;
  WriteTrace(original, out);
  std::string bytes = out.str() + "garbage after the end frame";
  std::istringstream in(bytes);
  EXPECT_FALSE(ReadTrace(in).ok());
}

}  // namespace
}  // namespace lockdoc
