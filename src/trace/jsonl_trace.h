// JSONL trace export + import: the replay-verification interchange format.
//
// One JSON object per line. The first line is a header carrying everything
// an offline checker needs to re-verify the run without the live process:
// the full machine config (Fig. 4 syntax, round-trips through ParseConfig),
// the scheduler's σ/µ parameters, and the clock domain. Every following
// line is one event, worker-tagged, in per-worker timestamp order.
//
//   {"schema":2,"type":"header","engine":"sim","scheduler":"SB", ...}
//   {"type":"event","w":0,"k":"anchor","ts":123,"dur":65536,"a":2,"b":5,"c":0}
#pragma once

#include <string>
#include <vector>

#include "trace/chrome_trace.h"  // TraceInfo
#include "trace/recorder.h"

namespace sbs::trace {

/// The schema version the writer emits and the reader accepts.
inline constexpr int kJsonlTraceSchema = 2;

/// Scheduler parameters embedded in the header for offline re-verification.
/// Schedulers without space-bounded admission leave sigma/mu at 0.
struct JsonlTraceParams {
  double sigma = 0.0;
  double mu = 0.0;
  /// Machine config rendered with machine::ToConfigText; empty = unknown.
  std::string config_text;
};

/// Write the recorder's surviving events to `path` (schema 2). Returns
/// false if the file could not be written.
bool WriteJsonlTrace(const Recorder& recorder, const std::string& path,
                     const TraceInfo& info = TraceInfo(),
                     const JsonlTraceParams& params = JsonlTraceParams());

/// A parsed JSONL trace: header fields plus events in file order.
struct JsonlTrace {
  std::string engine;
  std::string scheduler;
  std::string machine;
  std::string label;
  bool virtual_time = false;
  double ticks_per_second = 1e9;
  int workers = 0;
  std::uint64_t dropped_events = 0;
  JsonlTraceParams params;

  struct Record {
    int worker = 0;
    Event event;
  };
  std::vector<Record> records;
};

/// Parse a JSONL trace file (schema 2 only). Returns false with a brief
/// message in `error` (if non-null) on the first malformed line; a line
/// with an unknown event kind also fails — the checker must not silently
/// skip evidence.
bool ReadJsonlTrace(const std::string& path, JsonlTrace* out,
                    std::string* error = nullptr);

}  // namespace sbs::trace
