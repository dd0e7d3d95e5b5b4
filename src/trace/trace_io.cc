#include "src/trace/trace_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/file_io.h"
#include "src/util/string_util.h"
#include "src/util/varint.h"

namespace lockdoc {
namespace {

constexpr char kMagicV1[8] = {'L', 'D', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr char kMagicV2[8] = {'L', 'D', 'T', 'R', 'A', 'C', 'E', '2'};

enum FrameType : uint8_t {
  kFrameStrings = 1,
  kFrameStacks = 2,
  kFrameEvents = 3,
  kFrameEnd = 4,
};

// Sanity bound on a single frame payload: an event frame is ~100 KiB, and
// even the string table of a huge trace stays far below this.
constexpr uint64_t kMaxFramePayload = 1ull << 30;
// Defensive cap: no interned string in a sane trace exceeds this.
constexpr uint64_t kMaxStringSize = 1u << 20;
constexpr uint64_t kMaxStackFrames = 4096;

// The whole stream is buffered before parsing (ByteCursor over the bytes):
// salvage needs random access for resynchronization, and absolute byte
// offsets make every error message actionable. The varint/string decoders
// live in src/util/varint.h, shared with the .lockdb snapshot reader.

void PutString(std::string& out, const std::string& text) {
  PutLengthPrefixed(out, text);
}

bool GetString(ByteCursor& in, std::string* text) {
  return GetLengthPrefixed(in, text, kMaxStringSize);
}

// Bit 8 of the kind varint flags an event that carries a [start, end) range
// (kinds occupy bits 0..2). Rangeless events — which includes every event of
// a pre-range trace — serialize bit-identically to the original layout, so
// old readers and writers interoperate on rangeless traces and old traces
// decode unchanged.
constexpr uint64_t kEventRangeFlag = 8;

void PutEvent(std::string& out, const TraceEvent& e) {
  PutVarint(out, static_cast<uint64_t>(e.kind) | (e.has_range ? kEventRangeFlag : 0));
  PutVarint(out, static_cast<uint64_t>(e.context));
  PutVarint(out, e.task_id);
  PutVarint(out, e.addr);
  PutVarint(out, e.size);
  PutVarint(out, e.type == kInvalidTypeId ? 0 : static_cast<uint64_t>(e.type) + 1);
  PutVarint(out, e.subclass);
  PutVarint(out, static_cast<uint64_t>(e.lock_type));
  PutVarint(out, static_cast<uint64_t>(e.mode));
  PutVarint(out, e.name);
  PutVarint(out, e.loc.file);
  PutVarint(out, e.loc.line);
  PutVarint(out, e.stack == kInvalidStack ? 0 : static_cast<uint64_t>(e.stack) + 1);
  if (e.has_range) {
    PutVarint(out, e.range_start);
    PutVarint(out, e.range_end);
  }
}

// Decodes one event and validates every field that can be checked without
// the side tables (enum ranges, id-width bounds). String/stack references
// are validated by the caller once the tables are known.
bool GetEvent(ByteCursor& in, TraceEvent* e) {
  uint64_t kind = 0;
  uint64_t context = 0;
  uint64_t task_id = 0;
  uint64_t addr = 0;
  uint64_t size = 0;
  uint64_t type = 0;
  uint64_t subclass = 0;
  uint64_t lock_type = 0;
  uint64_t mode = 0;
  uint64_t name = 0;
  uint64_t file = 0;
  uint64_t line = 0;
  uint64_t stack = 0;
  if (!GetVarint(in, &kind) || !GetVarint(in, &context) || !GetVarint(in, &task_id) ||
      !GetVarint(in, &addr) || !GetVarint(in, &size) || !GetVarint(in, &type) ||
      !GetVarint(in, &subclass) || !GetVarint(in, &lock_type) || !GetVarint(in, &mode) ||
      !GetVarint(in, &name) || !GetVarint(in, &file) || !GetVarint(in, &line) ||
      !GetVarint(in, &stack)) {
    return false;
  }
  const bool has_range = (kind & kEventRangeFlag) != 0;
  kind &= ~kEventRangeFlag;
  uint64_t range_start = 0;
  uint64_t range_end = 0;
  if (has_range && (!GetVarint(in, &range_start) || !GetVarint(in, &range_end))) {
    return false;
  }
  if (kind > static_cast<uint64_t>(EventKind::kStaticLockDef) || context > 2 ||
      lock_type >= kNumLockTypes || mode > 1) {
    return false;
  }
  if (task_id > UINT32_MAX || size > UINT32_MAX || type > UINT32_MAX ||
      subclass > UINT32_MAX || name >= UINT32_MAX || file >= UINT32_MAX ||
      line > UINT32_MAX || stack > UINT32_MAX) {
    return false;
  }
  e->kind = static_cast<EventKind>(kind);
  e->context = static_cast<ContextKind>(context);
  e->task_id = static_cast<uint32_t>(task_id);
  e->addr = addr;
  e->size = static_cast<uint32_t>(size);
  e->type = type == 0 ? kInvalidTypeId : static_cast<TypeId>(type - 1);
  e->subclass = static_cast<SubclassId>(subclass);
  e->lock_type = static_cast<LockType>(lock_type);
  e->mode = static_cast<AcquireMode>(mode);
  e->name = static_cast<StringId>(name);
  e->loc.file = static_cast<StringId>(file);
  e->loc.line = static_cast<uint32_t>(line);
  e->stack = stack == 0 ? kInvalidStack : static_cast<StackId>(stack - 1);
  e->has_range = has_range;
  e->range_start = range_start;
  e->range_end = range_end;
  return true;
}

// ---------------------------------------------------------------------------
// Writers.
// ---------------------------------------------------------------------------

std::string EncodeStringsPayload(const Trace& trace) {
  std::string payload;
  const auto& strings = trace.string_pool().strings();
  PutVarint(payload, strings.size());
  for (const std::string& s : strings) {
    PutString(payload, s);
  }
  return payload;
}

std::string EncodeStacksPayload(const Trace& trace) {
  std::string payload;
  const auto& stacks = trace.stacks();
  PutVarint(payload, stacks.size());
  for (const CallStack& stack : stacks) {
    PutVarint(payload, stack.frames.size());
    for (StringId frame : stack.frames) {
      PutVarint(payload, frame);
    }
  }
  return payload;
}

void WriteTraceV1(const Trace& trace, std::ostream& out) {
  out.write(kMagicV1, sizeof(kMagicV1));
  std::string body = EncodeStringsPayload(trace);
  body += EncodeStacksPayload(trace);
  PutVarint(body, trace.size());
  for (const TraceEvent& e : trace.events()) {
    PutEvent(body, e);
  }
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

void WriteFrame(std::ostream& out, uint8_t type, uint32_t seq, const std::string& payload) {
  std::string header;
  header.reserve(kTraceFrameHeaderSize);
  header.append(reinterpret_cast<const char*>(kTraceFrameMarker), sizeof(kTraceFrameMarker));
  header.push_back(static_cast<char>(type));
  AppendUint32LE(header, seq);
  AppendUint32LE(header, static_cast<uint32_t>(payload.size()));
  // The CRC covers everything after the marker: type, seq, length, payload.
  uint32_t crc = Crc32Update(0, header.data() + sizeof(kTraceFrameMarker),
                             header.size() - sizeof(kTraceFrameMarker));
  crc = Crc32Update(crc, payload.data(), payload.size());
  std::string trailer;
  AppendUint32LE(trailer, crc);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
}

void WriteTraceV2(const Trace& trace, std::ostream& out) {
  out.write(kMagicV2, sizeof(kMagicV2));
  uint32_t seq = 0;
  WriteFrame(out, kFrameStrings, seq++, EncodeStringsPayload(trace));
  WriteFrame(out, kFrameStacks, seq++, EncodeStacksPayload(trace));
  const auto& events = trace.events();
  for (size_t start = 0; start < events.size(); start += kTraceEventsPerFrame) {
    size_t count = std::min(kTraceEventsPerFrame, events.size() - start);
    std::string payload;
    PutVarint(payload, count);
    for (size_t i = 0; i < count; ++i) {
      PutEvent(payload, events[start + i]);
    }
    WriteFrame(out, kFrameEvents, seq++, payload);
  }
  std::string end_payload;
  PutVarint(end_payload, events.size());
  WriteFrame(out, kFrameEnd, seq++, end_payload);
}

// ---------------------------------------------------------------------------
// Readers.
// ---------------------------------------------------------------------------

Status OffsetError(size_t offset, const std::string& what) {
  return Status::Error(StrFormat("ReadTrace: offset 0x%llx: %s",
                                 static_cast<unsigned long long>(offset), what.c_str()));
}

// Validates the string/stack references of `e` against the final tables:
// ids below `string_limit` name a string, and a stack id must name a valid
// stack. Returns false if the event must be dropped (in strict mode, if the
// read must fail). In salvage mode a dangling stack reference is cleared in
// place instead, and counted in `*stack_refs_cleared`.
bool FixupEventRefs(TraceEvent* e, uint64_t string_limit, const std::vector<bool>& stack_valid,
                    bool salvage, uint64_t* stack_refs_cleared) {
  if (e->name >= string_limit || e->loc.file >= string_limit) {
    return false;
  }
  if (e->stack != kInvalidStack &&
      (e->stack >= stack_valid.size() || !stack_valid[e->stack])) {
    if (!salvage) {
      return false;
    }
    e->stack = kInvalidStack;
    ++*stack_refs_cleared;
  }
  return true;
}

// --- v1: bare record stream. Strict mode fails at the first bad byte; in
// salvage mode everything before that byte survives (prefix truncation is
// the only recovery v1 admits — there is no framing to resynchronize on).
Result<Trace> ReadTraceV1(std::string_view bytes, const TraceReadOptions& options,
                          TraceReadReport& report) {
  report.format_version = 1;
  const bool salvage = options.salvage;
  ByteCursor in{bytes.data(), bytes.size(), sizeof(kMagicV1)};
  Trace trace;

  // String table: without it nothing downstream is interpretable, so a
  // damaged one is unrecoverable even in salvage mode.
  uint64_t string_count = 0;
  if (!GetVarint(in, &string_count) || string_count > in.remaining() + 1) {
    return OffsetError(in.pos, "truncated string table");
  }
  std::vector<std::string> strings;
  strings.reserve(string_count);
  for (uint64_t i = 0; i < string_count; ++i) {
    std::string s;
    if (!GetString(in, &s)) {
      return OffsetError(in.pos, "truncated string entry");
    }
    strings.push_back(std::move(s));
  }
  if (strings.empty() || !strings[0].empty()) {
    return OffsetError(in.pos, "string table must start with the empty string");
  }
  trace.mutable_string_pool().Reset(std::move(strings));
  const size_t pool_size = trace.string_pool().size();

  auto partial = [&](size_t offset) -> Result<Trace> {
    report.truncated = true;
    report.truncation_offset = offset;
    report.events_salvaged = trace.size();
    return std::move(trace);
  };

  // Stack table.
  uint64_t stack_count = 0;
  size_t section_start = in.pos;
  if (!GetVarint(in, &stack_count) || stack_count > in.remaining() + 1) {
    if (salvage) {
      report.stack_table_lost = true;
      return partial(section_start);
    }
    return OffsetError(in.pos, "truncated stack table");
  }
  std::vector<CallStack> stacks;
  stacks.reserve(stack_count);
  for (uint64_t i = 0; i < stack_count; ++i) {
    size_t entry_start = in.pos;
    uint64_t frame_count = 0;
    if (!GetVarint(in, &frame_count) || frame_count > kMaxStackFrames) {
      if (salvage) {
        report.stack_table_lost = true;
        return partial(entry_start);
      }
      return OffsetError(entry_start, "bad stack entry");
    }
    CallStack stack;
    stack.frames.reserve(frame_count);
    bool ok = true;
    for (uint64_t f = 0; f < frame_count; ++f) {
      uint64_t frame = 0;
      if (!GetVarint(in, &frame) || frame >= pool_size) {
        ok = false;
        break;
      }
      stack.frames.push_back(static_cast<StringId>(frame));
    }
    if (!ok) {
      if (salvage) {
        report.stack_table_lost = true;
        return partial(entry_start);
      }
      return OffsetError(entry_start, "bad stack frame");
    }
    stacks.push_back(std::move(stack));
  }
  trace.ResetStacks(std::move(stacks));

  // Events.
  uint64_t event_count = 0;
  section_start = in.pos;
  if (!GetVarint(in, &event_count)) {
    if (salvage) {
      return partial(section_start);
    }
    return OffsetError(in.pos, "truncated event count");
  }
  std::vector<bool> stack_valid(trace.stack_count(), true);
  trace.mutable_events().reserve(
      std::min<uint64_t>(event_count, in.remaining() / 13 + 1));
  for (uint64_t i = 0; i < event_count; ++i) {
    size_t record_start = in.pos;
    TraceEvent e;
    if (!GetEvent(in, &e) ||
        !FixupEventRefs(&e, pool_size, stack_valid, salvage, &report.stack_refs_cleared)) {
      if (salvage) {
        report.events_dropped = event_count - i;
        return partial(record_start);
      }
      return OffsetError(record_start, "truncated or malformed event");
    }
    trace.Append(e);
  }
  report.events_salvaged = trace.size();
  return std::move(trace);
}

// The string table payload at [off, off + len). False if it is malformed;
// a well-formed table starts with the empty string.
bool DecodeStringTable(std::string_view bytes, size_t off, size_t len,
                       std::vector<std::string>* strings) {
  ByteCursor c{bytes.data(), off + len, off};
  uint64_t count = 0;
  if (!GetVarint(c, &count) || count > len) {
    return false;
  }
  strings->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string s;
    if (!GetString(c, &s)) {
      return false;
    }
    strings->push_back(std::move(s));
  }
  return !strings->empty() && (*strings)[0].empty();
}

// The stack table payload at [off, off + len). False if it is malformed.
// Frame string references are checked by the caller against the final pool.
bool DecodeStackTable(std::string_view bytes, size_t off, size_t len,
                      std::vector<CallStack>* stacks) {
  ByteCursor c{bytes.data(), off + len, off};
  uint64_t count = 0;
  if (!GetVarint(c, &count) || count > len) {
    return false;
  }
  stacks->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t frame_count = 0;
    if (!GetVarint(c, &frame_count) || frame_count > kMaxStackFrames) {
      return false;
    }
    CallStack stack;
    stack.frames.reserve(frame_count);
    for (uint64_t f = 0; f < frame_count; ++f) {
      uint64_t frame = 0;
      if (!GetVarint(c, &frame) || frame >= UINT32_MAX) {
        return false;
      }
      stack.frames.push_back(static_cast<StringId>(frame));
    }
    stacks->push_back(std::move(stack));
  }
  return true;
}

// A lost string table leaves the ids in CRC-intact frames genuine but
// unnamed. Gives each distinct id that a surviving event (name, file) or
// stack frame still references one placeholder, "lost#<id>" (id 0 stays the
// empty string), and renumbers the references densely in ascending id
// order. The mapping is monotone, so every id comparison keeps its result,
// and the pool is no larger than the references that need it.
std::vector<std::string> PlaceholderPool(std::vector<CallStack>& stacks,
                                         std::vector<TraceEvent>& events) {
  std::vector<StringId> ids = {0};
  for (const CallStack& stack : stacks) {
    ids.insert(ids.end(), stack.frames.begin(), stack.frames.end());
  }
  for (const TraceEvent& e : events) {
    ids.push_back(e.name);
    ids.push_back(e.loc.file);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  auto dense = [&ids](StringId id) {
    return static_cast<StringId>(std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  };
  for (CallStack& stack : stacks) {
    for (StringId& frame : stack.frames) {
      frame = dense(frame);
    }
  }
  for (TraceEvent& e : events) {
    e.name = dense(e.name);
    e.loc.file = dense(e.loc.file);
  }
  std::vector<std::string> strings;
  strings.reserve(ids.size());
  for (StringId id : ids) {
    strings.push_back(id == 0 ? std::string()
                              : StrFormat("lost#%llu", static_cast<unsigned long long>(id)));
  }
  return strings;
}

// --- v2: one reader for both modes, in three steps.
//
// 1. A serial frame walk checks every frame's marker, length and CRC. In
//    strict mode a fault ends the read, and which fault is reported follows
//    one priority: a bad marker, a truncated frame or a lying length fails
//    at once; a bad CRC fails once the walk is over (the first such frame);
//    a frame out of sequence, after the end frame, of an unexpected type or
//    a malformed end frame stops the walk and fails if no CRC did; then a
//    missing end frame. In salvage mode the walk instead resynchronizes to
//    the next frame marker past any bad frame, skips duplicated seqs and
//    unknown frame types, and counts all of it in the report.
// 2. The string and stack tables decode once. Strict mode fails on a
//    missing or malformed table, then on a stack frame naming an unknown
//    string; salvage marks the table lost (a lost string table gets a
//    placeholder pool) or the stack invalid.
// 3. The event frames, in seq order, decode in parallel on the pool. Their
//    leading counts, bounded by each frame's length, give every frame its
//    slice of the trace's one event array by prefix sums, so each event is
//    written straight into its final slot. Strict mode fails on the first
//    frame that does not decode, then on any event reference to an unknown
//    string or stack, then on an event count other than the end frame's.
//    Salvage keeps every event that decoded and names known strings (it
//    clears an unknown stack reference); only when something was dropped
//    does it close the gaps and renumber seq. Results are identical at any
//    pool size.
Result<Trace> ReadTraceV2(std::string_view bytes, const TraceReadOptions& options,
                          TraceReadReport& report) {
  report.format_version = 2;
  const bool salvage = options.salvage;
  const size_t kHeader = kTraceFrameHeaderSize;
  const size_t kTrailer = kTraceFrameTrailerSize;
  const char* marker = reinterpret_cast<const char*>(kTraceFrameMarker);

  struct FrameRef {
    uint32_t seq = 0;
    size_t off = 0;  // Payload offset.
    size_t len = 0;
  };
  std::optional<FrameRef> strings_frame;
  std::optional<FrameRef> stacks_frame;
  std::vector<FrameRef> event_frames;
  std::optional<uint64_t> declared_total;
  std::optional<Status> crc_fault;    // Strict: the first frame with a bad CRC.
  std::optional<Status> order_fault;  // Strict: the fault that stopped the walk.
  std::set<uint32_t> seen_seqs;       // Salvage: the seqs of the intact frames.
  uint32_t expected_seq = 0;
  size_t pos = sizeof(kMagicV2);
  size_t parse_end = pos;

  // --- Step 1: the frame walk. ---
  while (pos < bytes.size()) {
    size_t marker_pos = pos;
    if (bytes.compare(pos, sizeof(kTraceFrameMarker), marker, sizeof(kTraceFrameMarker)) !=
        0) {
      if (!salvage) {
        return OffsetError(pos, "bad frame marker");
      }
      marker_pos = bytes.find(marker, pos, sizeof(kTraceFrameMarker));
      if (marker_pos == std::string_view::npos) {
        report.bytes_skipped += bytes.size() - pos;
        break;
      }
      report.bytes_skipped += marker_pos - pos;
    }
    if (marker_pos + kHeader + kTrailer > bytes.size()) {
      // Not even a complete header + CRC left: cut mid-frame.
      if (!salvage) {
        return OffsetError(marker_pos, "truncated frame");
      }
      report.truncated = true;
      report.truncation_offset = marker_pos;
      report.bytes_skipped += bytes.size() - marker_pos;
      break;
    }
    const uint8_t type = static_cast<uint8_t>(bytes[marker_pos + 4]);
    const uint32_t seq = LoadUint32LE(bytes.data() + marker_pos + 5);
    const uint64_t length = LoadUint32LE(bytes.data() + marker_pos + 9);
    if (length > kMaxFramePayload || marker_pos + kHeader + length + kTrailer > bytes.size()) {
      if (!salvage) {
        return OffsetError(marker_pos, StrFormat("frame length %llu exceeds remaining bytes",
                                                 static_cast<unsigned long long>(length)));
      }
      // A lying length field (or genuine truncation). Rescan just past this
      // marker: if the rest of the frame is intact, the next marker is real.
      ++report.frames_bad_length;
      pos = marker_pos + sizeof(kTraceFrameMarker);
      continue;
    }
    const size_t payload_off = marker_pos + kHeader;
    const size_t frame_end = payload_off + length + kTrailer;
    // Once a strict walk has a CRC fault, only a later marker, truncation
    // or length fault can outrank it, so later CRCs go unchecked.
    if (!crc_fault.has_value()) {
      const uint32_t crc = Crc32(bytes.data() + marker_pos + sizeof(kTraceFrameMarker),
                                 kHeader - sizeof(kTraceFrameMarker) + length);
      if (crc != LoadUint32LE(bytes.data() + payload_off + length)) {
        if (!salvage) {
          crc_fault = OffsetError(marker_pos, "frame CRC mismatch");
        } else {
          ++report.frames_bad_crc;
          pos = marker_pos + sizeof(kTraceFrameMarker);
          continue;
        }
      }
    }
    if (salvage) {
      if (!seen_seqs.insert(seq).second) {
        ++report.frames_duplicate;
        pos = frame_end;
        continue;
      }
    } else {
      // The writer emits strings, stacks, events*, end — strictly in order.
      if (seq != expected_seq) {
        order_fault = OffsetError(marker_pos, "frame out of sequence");
        break;
      }
      ++expected_seq;
      if (declared_total.has_value()) {
        order_fault = OffsetError(marker_pos, "frame after end frame");
        break;
      }
      if ((seq == 0 && type != kFrameStrings) || (seq == 1 && type != kFrameStacks) ||
          (seq >= 2 && type != kFrameEvents && type != kFrameEnd)) {
        order_fault = OffsetError(marker_pos, "unexpected frame type");
        break;
      }
    }
    ++report.frames_ok;
    switch (type) {
      case kFrameStrings:
        if (!strings_frame.has_value()) {
          strings_frame = FrameRef{seq, payload_off, length};
        }
        break;
      case kFrameStacks:
        if (!stacks_frame.has_value()) {
          stacks_frame = FrameRef{seq, payload_off, length};
        }
        break;
      case kFrameEvents:
        event_frames.push_back({seq, payload_off, length});
        break;
      case kFrameEnd: {
        ByteCursor c{bytes.data(), payload_off + length, payload_off};
        uint64_t total = 0;
        if (GetVarint(c, &total)) {
          declared_total = total;
        } else if (!salvage) {
          order_fault = OffsetError(payload_off, "malformed end frame");
        }
        break;
      }
      default:
        break;  // Salvage: intact but unknown (forward compatibility).
    }
    if (order_fault.has_value()) {
      break;
    }
    pos = frame_end;
    parse_end = frame_end;
  }
  if (crc_fault.has_value()) {
    return *crc_fault;
  }
  if (order_fault.has_value()) {
    return *order_fault;
  }
  if (!declared_total.has_value()) {
    if (!salvage) {
      return OffsetError(parse_end, "missing end frame (truncated trace)");
    }
    report.truncated = true;
    if (report.truncation_offset == 0) {
      report.truncation_offset = parse_end;
    }
  }
  if (report.frames_ok == 0) {
    return OffsetError(sizeof(kMagicV2), "no intact frames");
  }

  // --- Step 2: the string and stack tables. ---
  std::vector<std::string> strings;
  if (!strings_frame.has_value()) {
    if (!salvage) {
      return OffsetError(parse_end, "missing string table");
    }
  } else if (!DecodeStringTable(bytes, strings_frame->off, strings_frame->len, &strings)) {
    if (!salvage) {
      return OffsetError(strings_frame->off, "malformed string table");
    }
    strings.clear();
  }
  report.string_table_lost = strings.empty();

  std::vector<CallStack> stacks;
  if (!stacks_frame.has_value()) {
    if (!salvage) {
      return OffsetError(parse_end, "missing stack table");
    }
    report.stack_table_lost = true;
  } else if (!DecodeStackTable(bytes, stacks_frame->off, stacks_frame->len, &stacks)) {
    if (!salvage) {
      return OffsetError(stacks_frame->off, "malformed stack table");
    }
    stacks.clear();
    report.stack_table_lost = true;
  }

  // Every string id in surviving frames gets a placeholder when the table
  // was lost, so then no reference dangles. A stack naming an unknown
  // string is invalid: its frames are dropped and its references cleared.
  const uint64_t string_limit = report.string_table_lost ? UINT64_MAX : strings.size();
  std::vector<bool> stack_valid(stacks.size(), true);
  for (size_t i = 0; i < stacks.size(); ++i) {
    for (StringId frame : stacks[i].frames) {
      if (frame >= string_limit) {
        if (!salvage) {
          return OffsetError(stacks_frame->off, "stack frame references unknown string");
        }
        stack_valid[i] = false;
        stacks[i].frames.clear();
        break;
      }
    }
  }

  // --- Step 3: the events. ---
  std::sort(event_frames.begin(), event_frames.end(),
            [](const FrameRef& a, const FrameRef& b) { return a.seq < b.seq; });
  // Marks an event that does not survive a salvage read.
  constexpr uint64_t kDropped = UINT64_MAX;
  struct FrameDecode {
    size_t first_event = 0;  // Index of the frame's first event in the trace.
    uint64_t count = 0;
    size_t body_off = 0;  // First record, just past the count.
    size_t error_offset = 0;
    const char* error = nullptr;
    // Events of the slice marked kDropped: they did not decode, or name an
    // unknown string (strict: or stack). A strict read fails on a decode
    // error first, whatever its frame, then on a reference.
    uint64_t dropped = 0;
    // Salvage counts: bad records (a malformed frame counts once) and
    // stack references cleared.
    uint64_t bad_records = 0;
    uint64_t stack_refs_cleared = 0;
  };
  std::vector<FrameDecode> slots(event_frames.size());
  size_t total_events = 0;
  for (size_t j = 0; j < slots.size(); ++j) {
    const FrameRef& frame = event_frames[j];
    FrameDecode& slot = slots[j];
    ByteCursor c{bytes.data(), frame.off + frame.len, frame.off};
    if (!GetVarint(c, &slot.count) || slot.count > frame.len) {
      slot.count = 0;
      slot.error_offset = frame.off;
      slot.error = "malformed event frame";
      slot.bad_records = 1;
    }
    slot.first_event = total_events;
    slot.body_off = c.pos;
    total_events += slot.count;
  }

  Trace trace;
  std::vector<TraceEvent>& events = trace.mutable_events();
  events.resize(total_events);
  auto decode_body = [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      FrameDecode& slot = slots[j];
      if (slot.error != nullptr) {
        continue;
      }
      const FrameRef& frame = event_frames[j];
      ByteCursor c{bytes.data(), frame.off + frame.len, slot.body_off};
      for (uint64_t i = 0; i < slot.count; ++i) {
        size_t record_start = c.pos;
        TraceEvent& e = events[slot.first_event + i];
        if (!GetEvent(c, &e)) {
          slot.error_offset = record_start;
          slot.error = "truncated or malformed event";
          slot.bad_records += slot.count - i;
          slot.dropped += slot.count - i;
          for (uint64_t k = i; k < slot.count; ++k) {
            events[slot.first_event + k].seq = kDropped;
          }
          break;
        }
        // Append() would have numbered each event as it landed; do the same.
        e.seq = slot.first_event + i;
        if (!FixupEventRefs(&e, string_limit, stack_valid, salvage,
                            &slot.stack_refs_cleared)) {
          ++slot.bad_records;
          ++slot.dropped;
          e.seq = kDropped;
        }
      }
    }
  };
  if (options.pool != nullptr) {
    options.pool->ParallelFor(slots.size(), decode_body);
  } else {
    decode_body(0, slots.size());
  }
  uint64_t dropped = 0;
  for (const FrameDecode& slot : slots) {
    if (!salvage && slot.error != nullptr) {
      return OffsetError(slot.error_offset, slot.error);
    }
    dropped += slot.dropped;
    report.bad_event_records += slot.bad_records;
    report.stack_refs_cleared += slot.stack_refs_cleared;
  }
  if (!salvage && dropped > 0) {
    return OffsetError(parse_end, "event references unknown string");
  }
  if (dropped > 0) {
    std::erase_if(events, [](const TraceEvent& e) { return e.seq == kDropped; });
    for (size_t i = 0; i < events.size(); ++i) {
      events[i].seq = i;
    }
  }
  if (report.string_table_lost) {
    strings = PlaceholderPool(stacks, events);
  }
  trace.mutable_string_pool().Reset(std::move(strings));
  trace.ResetStacks(std::move(stacks));

  report.events_salvaged = trace.size();
  if (!salvage && *declared_total != report.events_salvaged) {
    return OffsetError(parse_end,
                       StrFormat("event count mismatch: declared %llu, read %llu",
                                 static_cast<unsigned long long>(*declared_total),
                                 static_cast<unsigned long long>(report.events_salvaged)));
  }
  if (declared_total.has_value() && *declared_total > report.events_salvaged) {
    report.events_dropped = *declared_total - report.events_salvaged;
  } else {
    report.events_dropped = report.bad_event_records;
  }
  return trace;
}

}  // namespace

bool TraceReadReport::clean() const {
  return frames_bad_crc == 0 && frames_bad_length == 0 && frames_duplicate == 0 &&
         bytes_skipped == 0 && events_dropped == 0 && bad_event_records == 0 &&
         stack_refs_cleared == 0 && !string_table_lost && !stack_table_lost && !truncated;
}

std::string TraceReadReport::ToString() const {
  std::string out;
  out += StrFormat("format:            v%u\n", format_version);
  out += StrFormat("file size:         %s bytes\n", FormatWithCommas(file_size).c_str());
  out += StrFormat("events salvaged:   %s\n", FormatWithCommas(events_salvaged).c_str());
  out += StrFormat("events dropped:    %s\n", FormatWithCommas(events_dropped).c_str());
  if (format_version >= 2) {
    out += StrFormat("frames ok:         %s\n", FormatWithCommas(frames_ok).c_str());
    out += StrFormat("frames bad CRC:    %s\n", FormatWithCommas(frames_bad_crc).c_str());
    out += StrFormat("frames bad length: %s\n", FormatWithCommas(frames_bad_length).c_str());
    out += StrFormat("frames duplicate:  %s\n", FormatWithCommas(frames_duplicate).c_str());
    out += StrFormat("bytes skipped:     %s\n", FormatWithCommas(bytes_skipped).c_str());
  }
  out += StrFormat("bad event records: %s\n", FormatWithCommas(bad_event_records).c_str());
  out += StrFormat("stack refs lost:   %s\n", FormatWithCommas(stack_refs_cleared).c_str());
  if (string_table_lost) {
    out += "string table:      LOST (placeholder names substituted)\n";
  }
  if (stack_table_lost) {
    out += "stack table:       LOST (stack references cleared)\n";
  }
  if (truncated) {
    out += StrFormat("truncated at:      offset 0x%llx\n",
                     static_cast<unsigned long long>(truncation_offset));
  }
  return out;
}

void WriteTrace(const Trace& trace, std::ostream& out, TraceFormat format) {
  if (format == TraceFormat::kV1) {
    WriteTraceV1(trace, out);
  } else {
    WriteTraceV2(trace, out);
  }
}

Result<Trace> ReadTrace(std::istream& in) { return ReadTrace(in, {}, nullptr); }

Result<Trace> ReadTrace(std::istream& in, const TraceReadOptions& options,
                        TraceReadReport* report) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = std::move(buffer).str();
  if (in.bad()) {
    return Status::Error("ReadTrace: I/O error while reading stream");
  }
  return ReadTraceFromBytes(bytes, options, report);
}

Result<Trace> ReadTraceFromBytes(std::string_view bytes, const TraceReadOptions& options,
                                 TraceReadReport* report) {
  TraceReadReport local;
  TraceReadReport& rep = report != nullptr ? *report : local;
  rep = TraceReadReport{};
  rep.file_size = bytes.size();

  if (bytes.size() < sizeof(kMagicV1)) {
    return Status::Error("ReadTrace: offset 0x0: input shorter than magic");
  }
  if (std::memcmp(bytes.data(), kMagicV2, sizeof(kMagicV2)) == 0) {
    return ReadTraceV2(bytes, options, rep);
  }
  if (std::memcmp(bytes.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    return ReadTraceV1(bytes, options, rep);
  }
  return Status::Error("ReadTrace: offset 0x0: bad magic");
}

Status WriteTraceToFile(const Trace& trace, const std::string& path, TraceFormat format) {
  // Serialize in memory, then land on disk atomically (temp + fsync +
  // rename): a crash mid-write leaves the old file or no file, never a torn
  // trace that would need salvaging.
  std::ostringstream out;
  WriteTrace(trace, out, format);
  if (!out) {
    return Status::Error("WriteTraceToFile: serialization failed for " + path);
  }
  Status written = WriteFileAtomic(path, out.str());
  if (!written.ok()) {
    return Status::Error("WriteTraceToFile: " + written.message());
  }
  return Status::Ok();
}

Result<Trace> ReadTraceFromFile(const std::string& path) {
  return ReadTraceFromFile(path, {}, nullptr);
}

Result<Trace> ReadTraceFromFile(const std::string& path, const TraceReadOptions& options,
                                TraceReadReport* report) {
  // Hardened slurp (EINTR + short-read loops) so pipes and pseudo-files
  // deliver the same bytes a regular file would.
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) {
    return Status::Error("ReadTraceFromFile: " + bytes.status().message());
  }
  return ReadTraceFromBytes(bytes.value(), options, report);
}

}  // namespace lockdoc
