// Trace event vocabulary for the execution-tracing subsystem.
//
// Events are fixed-size PODs recorded into per-worker ring buffers (see
// recorder.h). Timestamps are ticks since the start of the run: nanoseconds
// on the real thread-pool engine, virtual cycles on the PMH simulator — the
// Recorder knows which and exporters convert.
//
// Three shapes share one struct:
//   complete   [ts, ts+dur): kStrand, kAdd, kDone, kEmpty
//   paired     kGetBegin / kGetEnd — get() is split so that events emitted
//              *inside* the callback (steals, anchors) nest between the two
//              and every worker's ring stays timestamp-ordered
//   instant    a point with payload: forks, joins, steals, anchors, stalls
#pragma once

#include <cstdint>
#include <string>

namespace sbs::trace {

enum class EventKind : std::uint16_t {
  // --- complete events (ts + dur) ---
  kStrand = 0,  ///< one strand executed; dur = active time
  kAdd,         ///< Scheduler::add calls after one settle; dur = callback time
  kDone,        ///< Scheduler::done; dur = callback time
  kEmpty,       ///< get() returned nullptr; dur = stall until the next get
  // --- paired events ---
  kGetBegin,  ///< Scheduler::get entry
  kGetEnd,    ///< Scheduler::get exit; a = 1 if a job was returned
  // --- instant events ---
  kFork,          ///< strand ended in a fork; a = number of children
  kJoin,          ///< task completion released the enclosing continuation
  kStealAttempt,  ///< a = victim worker probed
  kStealSuccess,  ///< a = victim worker robbed
  kAnchor,  ///< SB anchored a maximal task; a = befitting cache tree depth,
            ///< b = cache node id, dur = task size S(t;B) in bytes,
            ///< c = ceiling depth (the parent task's anchor depth — the
            ///< skip-level charge stops there, exclusive)
  kAdmissionFail,  ///< SB bounded-occupancy admission failed; a = befitting
                   ///< depth, b = node whose bucket held the task
  kRelease,  ///< SB released an anchored task at completion; payload mirrors
             ///< kAnchor (a = depth, b = node, dur = bytes, c = ceiling) so
             ///< replay checkers can balance charges offline
  kNumKinds,
};

struct Event {
  std::uint64_t ts = 0;   ///< ticks since run start (ns real / cycles virtual)
  std::uint64_t dur = 0;  ///< complete events; kAnchor reuses it for bytes
  std::uint64_t a = 0;    ///< payload (see EventKind)
  std::uint64_t b = 0;
  std::uint64_t c = 0;    ///< second payload slot (kAnchor/kRelease: ceiling)
  EventKind kind = EventKind::kStrand;
};

/// Stable lower-case name ("strand", "steal_attempt", ...) used by both
/// exporters, so trace consumers can key on it.
const char* KindName(EventKind kind);

/// Inverse of KindName for the JSONL trace reader. "get" (the shared Chrome
/// name) is not accepted here — the JSONL exporter writes the unambiguous
/// "get_begin"/"get_end". Returns kNumKinds for unknown names.
EventKind EventKindFromName(const std::string& name);

/// JSONL trace name: KindName except for the get pair, which must stay
/// distinguishable without Chrome's B/E phase field.
const char* JsonlKindName(EventKind kind);

}  // namespace sbs::trace
