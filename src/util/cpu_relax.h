// Portable spin-wait hint. On x86-64 this is the `pause` instruction
// (de-pipelines the spin loop, frees the sibling hyperthread, and avoids
// the memory-order mis-speculation flush on lock release); on AArch64 the
// `yield` hint; elsewhere a no-op. Spelled in inline asm rather than
// _mm_pause so no intrinsic header enters the repo (the raw-simd lint
// rule) and the util layer stays dependency-free.
#pragma once

namespace sbs::util {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __asm__ __volatile__("pause");
#elif defined(__aarch64__) || defined(__arm__)
  __asm__ __volatile__("yield");
#endif
}

}  // namespace sbs::util
