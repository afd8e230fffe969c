// Stackful fibers for the PMH simulator.
//
// Each virtual core executes its current strand inside a fiber so that the
// instrumented memory hooks can suspend the strand mid-execution whenever
// its virtual clock runs ahead of the other cores (bounded-skew
// interleaving), without materializing access traces.
//
// Two implementations: a ~20ns hand-rolled x86-64 context switch
// (SBS_ASM_FIBERS=1, the default on x86-64) and a portable ucontext
// fallback. Both are single-threaded by design — the simulator owns all
// fibers from one host thread; resume/yield never cross threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace sbs::sim {

class Fiber {
 public:
  /// Create a suspended fiber that will run `fn` on first resume.
  explicit Fiber(std::function<void()> fn,
                 std::size_t stack_bytes = 512 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run/continue the fiber until it yields or its function returns.
  /// Must be called from the host context, not from inside a fiber.
  void resume();

  /// Suspend the currently running fiber and return control to its resumer.
  /// Must be called from inside a fiber.
  static void yield();

  /// The fiber currently executing on this thread, or nullptr.
  static Fiber* current();

  /// True once fn has returned; resume() must not be called again.
  bool finished() const { return finished_; }

  /// Number of resume() calls so far. Each resume is one host context
  /// switch in and one out; the engine aggregates these into the
  /// `fiber_switches` overhead counter, summed over its per-core fibers.
  std::uint64_t resumes() const { return resumes_; }

  /// Mark a suspended fiber as abandoned so it can be destroyed without
  /// resuming (used for per-core fibers that loop forever by design; their
  /// stacks hold nothing that needs unwinding at teardown).
  void abandon() { finished_ = true; }

 private:
  static void entry(void* self);
  void init_stack();

  std::function<void()> fn_;
  std::size_t stack_bytes_;
  void* stack_base_ = nullptr;  // mmap'd, with a low guard page
  void* fiber_sp_ = nullptr;
  void* main_sp_ = nullptr;
  bool finished_ = false;
  bool started_ = false;
  std::uint64_t resumes_ = 0;
#if !SBS_ASM_FIBERS
  static void entry_thunk();      // reads the fiber from thread-local state
  void* context_ = nullptr;       // ucontext_t of the fiber
  void* main_context_ = nullptr;  // ucontext_t of the resumer
#endif
};

}  // namespace sbs::sim
