#!/usr/bin/env python3
"""Repo-specific lint pass (runs in CI next to format/tidy).

Rules:
  std-mutex   Scheduler hot paths (src/sched/) must not take a std::mutex:
              add/get/done are called on every fork/steal and a futex-backed
              mutex there serializes workers. Use sched::Spinlock, or
              util::Mutex off the hot path with a waiver.
  std-deque   std::deque in src/sched/ is allowed only behind a lock as a
              cold container, never as the hot-path interface; every use
              must carry an explicit waiver explaining itself.
  assert-se   SBS_ASSERT compiles out under NDEBUG, so its argument must
              not have side effects (++/--/assignment/mutating calls) —
              otherwise release builds change behavior.
  blocking-call
              The service layer (src/service/) promises a non-blocking
              submit path: Runtime::submit and the admission controller
              must never sleep, join, or wait on a condition variable
              (client threads call them at arrival rate). Every blocking
              primitive in src/service/ therefore needs a waiver naming
              why it is off the submit path (idle backoff, waiters,
              teardown). A blocking call that sneaks into submit/admission
              code has no such justification and fails review by rule.
  wallclock-seed
              All randomness flows through sbs::Rng with explicit seeds
              (determinism contract, see service/arrivals.h). Seeding from
              std::random_device, srand(), or time() makes runs
              irreproducible and is banned repo-wide.
  sim-unordered-map
              std::unordered_map in src/sim/ is banned: the simulator's
              per-access structures (directory, holder sets) are the
              hottest data in the repo, and node-per-entry hashing there
              cost ~10x vs the open-addressing sim::FlatMap that replaced
              it (see src/sim/flat_map.h). Cold, setup-only maps may carry
              a waiver.
  raw-simd    Raw x86 intrinsics (_mm*/__m128i/immintrin.h includes) are
              banned repo-wide. The simulator's tag scan is a portable
              scalar loop: vectorized probe tiers measured at parity end
              to end and were removed, and every intrinsic path would need
              its own scalar fallback and dispatch to keep non-x86 builds
              working. Waive only with a measured reason.

Waivers: append `// lint:allow(<rule>)` on the offending line or the line
directly above it. A waiver for a rule this tool owns that suppresses
nothing is itself a finding (stale-waiver) so dead waivers cannot
accumulate; waivers for rules owned by tools/analyze/ (layering,
atomic-order, guarded-by, ...) are left to that tool and vice versa.

The full rule catalogue (this tool's regex rules and tools/analyze's
semantic rules) lives in docs/ANALYSIS.md.

Usage: tools/lint.py [--root DIR] [--json]
       (exit 0 = clean, 1 = findings)
"""

import argparse
import json
import os
import re
import sys

CXX_EXTENSIONS = (".h", ".cpp", ".cc", ".hpp")
SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")

STD_MUTEX_RE = re.compile(r"\bstd::(mutex|recursive_mutex|shared_mutex|"
                          r"timed_mutex|condition_variable)\b")
STD_DEQUE_RE = re.compile(r"\bstd::deque\b")
BLOCKING_CALL_RE = re.compile(
    r"\b(?:sleep_for|sleep_until|yield)\s*\("
    r"|\.\s*(?:wait|wait_for|wait_until|join)\s*\(")
SIM_UNORDERED_MAP_RE = re.compile(r"\bstd::unordered_map\b")
# x86 vector intrinsics, vector register types, and the intrinsic headers.
RAW_SIMD_RE = re.compile(
    r"\b_mm\d*_\w+\s*\(|\b__m(?:64|128|256|512)[a-z]*\b"
    r"|#\s*include\s*<(?:immintrin|emmintrin|xmmintrin|pmmintrin|tmmintrin|"
    r"smmintrin|nmmintrin|wmmintrin|avxintrin|avx2intrin)\.h>")
WALLCLOCK_SEED_RE = re.compile(
    r"\bstd::random_device\b|\bsrand\s*\("
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)")
SBS_ASSERT_RE = re.compile(r"\bSBS_ASSERT\s*\(")
WAIVER_RE = re.compile(r"//\s*lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Rules this tool owns. Stale-waiver accounting is per-owner: a waiver
# naming one of these that suppressed nothing is flagged here, while
# waivers for tools/analyze's semantic rules are that tool's business.
LINT_RULES = frozenset({
    "std-mutex", "std-deque", "assert-se", "blocking-call",
    "wallclock-seed", "sim-unordered-map", "raw-simd",
})

# Side effects inside an SBS_ASSERT argument. `==`, `!=`, `<=`, `>=` must
# not count as assignment.
MUTATION_RES = (
    re.compile(r"\+\+|--"),
    re.compile(r"(?<![=!<>+\-*/%&|^])=(?![=])"),
    re.compile(r"\b(push_back|push_front|pop_back|pop_front|emplace|"
               r"emplace_back|erase|insert|clear|store|exchange|fetch_add|"
               r"fetch_sub|compare_exchange_weak|compare_exchange_strong|"
               r"reset|release)\s*\("),
)


def waived(lines, idx, rule, consumed=None):
    """True when line idx (0-based) or the line above carries a waiver.
    Consumed waivers are recorded (as 0-based line, rule) for the
    stale-waiver pass."""
    for j in (idx, idx - 1):
        if j < 0:
            continue
        m = WAIVER_RE.search(lines[j])
        if m and rule in [r.strip() for r in m.group(1).split(",")]:
            if consumed is not None:
                consumed.add((j, rule))
            return True
    return False


def stale_waivers(rel, raw_lines, consumed, findings):
    """Flag waivers for rules we own that suppressed nothing."""
    for idx, text in enumerate(raw_lines):
        m = WAIVER_RE.search(text)
        if not m:
            continue
        for rule in (r.strip() for r in m.group(1).split(",")):
            if rule in LINT_RULES and (idx, rule) not in consumed:
                findings.append(
                    (rel, idx + 1, "stale-waiver",
                     f"waiver `lint:allow({rule})` suppresses nothing — "
                     "remove it (or reword the comment if it only "
                     "*mentions* the syntax)"))


def strip_strings_and_comments(line):
    """Remove string/char literals and // comments (keeps the waiver scan
    separate — this feeds the pattern matching only)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote + quote)
        else:
            out.append(c)
        i += 1
    return "".join(out)


def extract_macro_arg(text, start):
    """Return the balanced-paren argument of a macro call starting at the
    opening paren, possibly spanning lines (text is the joined remainder)."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
    return text[start + 1:]


def lint_file(path, rel, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw_lines = f.read().splitlines()
    code_lines = [strip_strings_and_comments(l) for l in raw_lines]
    consumed = set()  # (0-based line, rule) waivers that earned their keep
    in_sched = rel.startswith("src/sched/")
    in_service = rel.startswith("src/service/")
    in_sim = rel.startswith("src/sim/")

    for idx, code in enumerate(code_lines):
        lineno = idx + 1

        if in_sched:
            if STD_MUTEX_RE.search(code) and not waived(raw_lines, idx,
                                                        "std-mutex", consumed):
                findings.append(
                    (rel, lineno, "std-mutex",
                     "std::mutex family in a scheduler hot path — use "
                     "sched::Spinlock or move it off the hot path"))
            if STD_DEQUE_RE.search(code) and not waived(raw_lines, idx,
                                                        "std-deque", consumed):
                findings.append(
                    (rel, lineno, "std-deque",
                     "std::deque in src/sched/ needs an explicit "
                     "`// lint:allow(std-deque)` waiver"))

        if RAW_SIMD_RE.search(code) and not waived(raw_lines, idx, "raw-simd",
                                                    consumed):
            findings.append(
                (rel, lineno, "raw-simd",
                 "raw x86 intrinsic — the repo is scalar-only; write the "
                 "portable loop instead"))

        if in_sim and SIM_UNORDERED_MAP_RE.search(code) and not waived(
                raw_lines, idx, "sim-unordered-map", consumed):
            findings.append(
                (rel, lineno, "sim-unordered-map",
                 "std::unordered_map in src/sim/ — use sim::FlatMap on any "
                 "per-access path; waive only for cold setup-time maps"))

        if in_service and BLOCKING_CALL_RE.search(code) and not waived(
                raw_lines, idx, "blocking-call", consumed):
            findings.append(
                (rel, lineno, "blocking-call",
                 "blocking primitive in src/service/ — the submit path is "
                 "non-blocking by contract; waive with a justification if "
                 "this is an idle/waiter/teardown path"))

        if WALLCLOCK_SEED_RE.search(code) and not waived(
                raw_lines, idx, "wallclock-seed", consumed):
            findings.append(
                (rel, lineno, "wallclock-seed",
                 "wall-clock / random_device seeding breaks the explicit-"
                 "seed determinism contract — plumb an sbs::Rng seed"))

        m = SBS_ASSERT_RE.search(code)
        if m:
            remainder = "\n".join(code_lines[idx:])
            offset = sum(len(l) + 1 for l in code_lines[:0])  # 0; kept clear
            arg = extract_macro_arg(remainder,
                                    m.end() - 1 + offset)
            if any(r.search(arg) for r in MUTATION_RES) and not waived(
                    raw_lines, idx, "assert-se", consumed):
                findings.append(
                    (rel, lineno, "assert-se",
                     "SBS_ASSERT argument has side effects; it compiles "
                     "out under NDEBUG"))

    stale_waivers(rel, raw_lines, consumed, findings)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON document")
    args = parser.parse_args()

    findings = []
    scanned = 0
    for scan_dir in SCAN_DIRS:
        top = os.path.join(args.root, scan_dir)
        if not os.path.isdir(top):
            continue
        for dirpath, _, filenames in os.walk(top):
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, args.root)
                lint_file(path, rel, findings)
                scanned += 1

    if args.json:
        print(json.dumps({
            "tool": "lint",
            "files_scanned": scanned,
            "findings": [
                {"path": rel, "line": lineno, "rule": rule,
                 "message": message}
                for rel, lineno, rule, message in sorted(findings)],
        }, indent=2))
        return 1 if findings else 0
    # `path:line: [rule] message` — the GitHub problem matcher in
    # .github/problem-matcher.json keys on this shape.
    for rel, lineno, rule, message in sorted(findings):
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint: {len(findings)} finding(s) in {scanned} files")
        return 1
    print(f"lint: OK ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
