#!/usr/bin/env python3
"""Repo-specific invariant linter for the sketching library.

Enforces structural correctness properties that generic tools (clang-tidy,
compiler warnings) cannot express, because they are about *this* codebase's
contracts — the linearity and geometry invariants the sketch guarantees
rest on:

  SL001  every public header under src/ carries the canonical include guard
         (SKETCH_<PATH>_H_) so headers cannot silently double-include.
  SL002  every Merge() definition under src/ contains a SKETCH_CHECK: merging
         sketches with different geometry or seeds silently corrupts every
         subsequent estimate, so the guard is non-negotiable.
  SL003  every TryDeserialize() (or other *Deserialize) definition under
         src/ calls CheckSerializedSize (the uniform pre-allocation length
         validation in common/byte_buffer.h) before it allocates: no
         resize/reserve/assign/push_back/emplace_back, std::vector or
         make_unique/make_shared, nested TryDeserialize, or construction of
         its own class may precede the check, so untrusted buffers cannot
         drive allocations from unvalidated geometry fields.
  SL004  no direct rand()/srand()/std::random_device/std::mt19937 outside
         src/common/prng — all randomness must flow through the seeded
         generators or experiments stop being reproducible.
  SL005  no naked new/delete — ownership is vectors and values; a naked new
         is either a leak or a sign the design went sideways.
  SL006  (--compile-headers) every public header under src/ is
         self-contained: a TU containing only that #include must compile.
  SL007  untrusted-length decode paths length-validate before allocating:
         the protocol decoders under src/server (Decode*/TryRead*/Next
         definitions) and the shared codec's readers in
         src/common/byte_buffer.h (Read* definitions, where the
         length-prefixed read lives). Any resize/reserve/assign must be
         preceded, within the same function, by a comparison against a
         kMax* cap, a remaining()-bytes check, or a SKETCH_CHECK — so a
         hostile length prefix can never drive an allocation.
  SL008  lock discipline is annotation-visible under src/: no raw
         std::mutex / std::condition_variable members (use the annotated
         sketch::Mutex / sketch::CondVar wrappers from
         common/thread_annotations.h, where clang's -Wthread-safety can
         see them), and every declared Mutex must be referenced by at
         least one SKETCH_GUARDED_BY / SKETCH_REQUIRES / SKETCH_ACQUIRE /
         SKETCH_RELEASE / SKETCH_EXCLUDES annotation in the same file — an
         unannotated mutex guards nothing the analyzer can check. The
         semantic half (every guarded access actually holds the lock) is
         enforced by the clang -Wthread-safety CI build; this rule keeps
         the annotations present so that build has something to verify,
         including under gcc where the macros compile away.
  SL009  every std::atomic operation under src/ spells its memory order:
         no bare .load()/.store()/.fetch_*()/.exchange() defaults and no
         operator forms (x++, x += n, x = v) on declared atomics — the
         default is seq_cst, and an implicit order hides whether the
         ordering is load-bearing. Each relaxed site must be a deliberate,
         commented decision (see src/telemetry), not an accident.
  SL010  no manual .lock()/.unlock()/.try_lock() (or .Lock()/.Unlock()/
         .TryLock()) calls under src/ — locking is RAII-only via
         sketch::MutexLock, so no early return or exception can leak a
         held lock. The wrapper internals in common/thread_annotations.h
         are the single allowed exception.
  SL011  SIMD intrinsics (<immintrin.h>, _mm*/__m* tokens) are quarantined
         in non-header translation units under src/kernels/: only those
         TUs are compiled with -mavx2, so an intrinsic anywhere else either
         fails to compile or — worse — silently compiles because some
         header leaked a vector type. Inside a kernels TU the include must
         sit under an #if probing __AVX2__ with an #else scalar fallback,
         and the TU must include kernels/simd_dispatch.h — the dispatch
         seam that keeps the vector path unreachable on CPUs without the
         ISA. Headers may never contain intrinsics (SL006 compiles every
         header without -mavx2).
  SL012  every telemetry metric-name literal under src/ (the string
         argument of SKETCH_COUNTER_INC / SKETCH_COUNTER_ADD /
         SKETCH_HISTOGRAM_RECORD / GetCounter / GetHistogram) must appear,
         backtick-quoted, in docs/metrics_inventory.md. Metric names are a
         scrape-interface contract: dashboards and alerts key on them, so
         an undocumented name is an API change nobody reviewed, and the
         inventory is where renames get caught.

SL008 and SL010 allowlist src/common/thread_annotations.h (the wrappers
must touch the raw primitives once). SL009 exempts nothing under src/:
the telemetry stripes already spell memory_order_relaxed at every site.

Usage:
  tools/sketch_lint.py --root . [--compile-headers] [--cxx g++] [--jobs N]

Exits non-zero if any violation is found and prints one line per finding:
  path:line: SLxxx message
"""

import argparse
import concurrent.futures
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SOURCE_DIRS = ("src", "bench", "tests", "examples", "fuzz")
HEADER_SUFFIXES = (".h", ".hpp")
SOURCE_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")

# Files allowed to touch raw randomness primitives (SL004).
PRNG_ALLOWLIST = ("src/common/prng.h", "src/common/prng.cc")

RAW_RANDOM_PATTERNS = (
    (re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"\bstd\s*::\s*mt19937(?:_64)?\b"), "std::mt19937"),
)


def strip_comments_and_strings(text):
    """Replaces comments and string/char literals with spaces, preserving
    line structure so reported line numbers stay accurate."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            out.append(" " * (end - i))
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n - 2 if end == -1 else end
            chunk = text[i : end + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = end + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (j - i - 1) + (quote if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def expected_guard(rel_to_src):
    mangled = re.sub(r"[^A-Za-z0-9]", "_", str(rel_to_src)).upper()
    return f"SKETCH_{mangled}_"


def check_include_guard(path, rel_to_src, text):
    guard = expected_guard(rel_to_src)
    violations = []
    ifndef = re.search(r"^#ifndef\s+(\S+)\s*$", text, re.MULTILINE)
    if not ifndef or ifndef.group(1) != guard:
        violations.append(
            (
                1,
                "SL001",
                f"missing or wrong include guard (expected {guard})",
            )
        )
        return violations
    define = re.search(r"^#define\s+(\S+)\s*$", text, re.MULTILINE)
    if not define or define.group(1) != guard:
        violations.append(
            (
                line_of(text, ifndef.start()),
                "SL001",
                f"#ifndef {guard} not followed by matching #define",
            )
        )
    if not re.search(r"^#endif\b", text, re.MULTILINE):
        violations.append((1, "SL001", "include guard has no #endif"))
    return violations


def _find_function_definitions(clean, name):
    """Yields (start_offset, body) for each definition of `name` in
    comment/string-stripped source text."""
    for match in re.finditer(rf"\b{name}\s*\(", clean):
        start = match.start()
        before = clean[:start].rstrip()
        # Member calls (x.Merge(...), p->Merge(...)) are not definitions.
        if before.endswith(".") or before.endswith("->"):
            continue
        # Walk past the parameter list.
        depth = 0
        i = match.end() - 1
        while i < len(clean):
            if clean[i] == "(":
                depth += 1
            elif clean[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= len(clean):
            continue
        # Skip trailing qualifiers; a definition opens a brace next.
        j = i + 1
        while j < len(clean) and (
            clean[j].isspace()
            or clean[j : j + 5] == "const"
            or clean[j : j + 8] == "noexcept"
            or clean[j : j + 8] == "override"
        ):
            if clean[j].isspace():
                j += 1
            elif clean[j : j + 5] == "const":
                j += 5
            else:
                j += 8
        if j >= len(clean) or clean[j] != "{":
            continue  # declaration, deleted function, or call
        depth = 0
        k = j
        while k < len(clean):
            if clean[k] == "{":
                depth += 1
            elif clean[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        yield start, clean[j : k + 1]


def check_merge_guard(clean):
    violations = []
    for start, body in _find_function_definitions(clean, "Merge"):
        if "SKETCH_CHECK" not in body:
            violations.append(
                (
                    line_of(clean, start),
                    "SL002",
                    "Merge() definition lacks a SKETCH_CHECK on "
                    "geometry/seed compatibility",
                )
            )
    return violations


# SL003: what counts as allocating inside a deserializer, before its size
# check. Constructing the deserializer's own class is added per definition.
SL003_ALLOC = (
    r"\.(?:resize|reserve|assign|push_back|emplace_back)\s*\(|"
    r"\bstd::vector\b|\bmake_(?:unique|shared)\b|\bTryDeserialize\s*\("
)


def check_deserialize_guard(clean):
    violations = []
    for start, body in _find_function_definitions(clean, r"\w*Deserialize"):
        owner = re.search(r"(\w+)\s*::\s*$", clean[:start])
        alloc = SL003_ALLOC
        if owner:
            alloc += rf"|\b{owner.group(1)}\s*(?:\w+\s*)?[({{]"
        check = body.find("CheckSerializedSize")
        first_alloc = re.search(alloc, body)
        if check < 0:
            message = "does not length-validate via CheckSerializedSize"
        elif first_alloc and first_alloc.start() < check:
            message = "allocates before its CheckSerializedSize length check"
        else:
            continue
        violations.append(
            (line_of(clean, start), "SL003", f"deserializer {message}")
        )
    return violations


def check_raw_randomness(rel, clean):
    if str(rel).replace("\\", "/") in PRNG_ALLOWLIST:
        return []
    violations = []
    for pattern, label in RAW_RANDOM_PATTERNS:
        for match in pattern.finditer(clean):
            violations.append(
                (
                    line_of(clean, match.start()),
                    "SL004",
                    f"direct {label} outside src/common/prng; use the "
                    "seeded generators",
                )
            )
    return violations


def check_naked_new_delete(clean):
    violations = []
    for match in re.finditer(r"\bnew\b", clean):
        violations.append(
            (
                line_of(clean, match.start()),
                "SL005",
                "naked new; use containers or value semantics",
            )
        )
    for match in re.finditer(r"\bdelete\b", clean):
        before = clean[: match.start()].rstrip()
        if before.endswith("="):  # deleted special member: `= delete;`
            continue
        violations.append(
            (
                line_of(clean, match.start()),
                "SL005",
                "naked delete; use containers or value semantics",
            )
        )
    return violations


# SL007: allocation calls inside a decode path, and the validation tokens
# that must appear earlier in the same function body.
SL007_ALLOC = re.compile(r"(?:\.|->)\s*(?:resize|reserve|assign)\s*\(")
SL007_GUARD = re.compile(r"kMax\w+|\bremaining\s*\(|SKETCH_CHECK")


# SL007 scope: path prefix -> names of the decode functions it polices.
# Every FrameDecoder member is one: Next() reserves a frame's payload from
# its declared length, and WriteWindow() grows it.
SL007_DECODE_PATHS = (
    ("src/server/", r"(?:(?:Decode|TryRead|Next)\w*|FrameDecoder::\w+)"),
    ("src/common/byte_buffer.h", r"Read\w*"),
)


def check_server_decode_allocation(rel, clean):
    """SL007: decode paths must length-validate before any allocation — a
    declared length from the wire or a blob may only reach
    resize/reserve/assign after a cap or remaining-bytes comparison."""
    path = str(rel).replace("\\", "/")
    names = [n for prefix, n in SL007_DECODE_PATHS if path.startswith(prefix)]
    if not names:
        return []
    violations = []
    for start, body in _find_function_definitions(clean, names[0]):
        body_offset = clean.find(body, start)
        for alloc in SL007_ALLOC.finditer(body):
            if not SL007_GUARD.search(body[: alloc.start()]):
                violations.append(
                    (
                        line_of(clean, body_offset + alloc.start()),
                        "SL007",
                        "decode path allocates before length-validating "
                        "against a cap (kMax*/remaining()/SKETCH_CHECK)",
                    )
                )
    return violations


# Files allowed to touch raw synchronization primitives (SL008/SL010):
# the annotated wrapper types themselves.
THREAD_WRAPPER_ALLOWLIST = ("src/common/thread_annotations.h",)

# SL008: raw synchronization-primitive declarations (the `\s+\w+` tail
# rejects template-argument uses such as std::lock_guard<std::mutex>).
SL008_RAW_PRIMITIVE = re.compile(
    r"\bstd\s*::\s*((?:shared_)?mutex|condition_variable(?:_any)?)\s+\w+"
)
# A wrapped-mutex member/variable declaration: `Mutex mu_;` (or
# `SharedMutex mu_;`) with optional mutable/namespace qualification.
# `\bMutex\s` cannot match MutexLock.
SL008_MUTEX_DECL = re.compile(
    r"\b(?:mutable\s+)?(?:sketch\s*::\s*)?(?:Shared)?Mutex\s+(\w+)\s*;"
)
SL008_ANNOTATION_MACROS = (
    "GUARDED_BY",
    "PT_GUARDED_BY",
    "REQUIRES",
    "ACQUIRE",
    "RELEASE",
    "TRY_ACQUIRE",
    "EXCLUDES",
    "RETURN_CAPABILITY",
)


def check_thread_annotations(rel, clean):
    """SL008: no raw std::mutex/std::condition_variable under src/, and
    every declared (wrapped) Mutex is referenced by at least one
    SKETCH_* thread-safety annotation in the same file."""
    rel_str = str(rel).replace("\\", "/")
    if not rel_str.startswith("src/") or rel_str in THREAD_WRAPPER_ALLOWLIST:
        return []
    violations = []
    for match in SL008_RAW_PRIMITIVE.finditer(clean):
        violations.append(
            (
                line_of(clean, match.start()),
                "SL008",
                f"raw std::{match.group(1)}; use the annotated "
                "sketch::Mutex/CondVar wrappers from "
                "common/thread_annotations.h",
            )
        )
    for match in SL008_MUTEX_DECL.finditer(clean):
        name = match.group(1)
        referenced = any(
            re.search(
                rf"SKETCH_{macro}\s*\(\s*{re.escape(name)}\s*[,)]", clean
            )
            for macro in SL008_ANNOTATION_MACROS
        )
        if not referenced:
            violations.append(
                (
                    line_of(clean, match.start()),
                    "SL008",
                    f"Mutex {name} has no SKETCH_GUARDED_BY/"
                    "SKETCH_REQUIRES/... annotation referencing it; an "
                    "unannotated mutex guards nothing the analyzer can "
                    "check",
                )
            )
    return violations


# SL009: atomic member-function calls that take an optional memory-order
# argument.
SL009_ATOMIC_CALL = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)
# Declarations establishing that a name is a std::atomic (directly or as
# an array of atomics); used for the operator-form half of SL009.
SL009_ATOMIC_DECL = re.compile(
    r"\bstd\s*::\s*atomic\s*<[^<>;]*(?:<[^<>]*>[^<>;]*)?>\s+(\w+)"
)
SL009_ATOMIC_ARRAY_DECL = re.compile(
    r"\bstd\s*::\s*array\s*<\s*std\s*::\s*atomic\s*<[^<>]*>\s*,[^>]*>"
    r"\s+(\w+)"
)


def _balanced_args(clean, open_paren):
    """Returns the argument text of the call whose '(' is at open_paren."""
    depth = 0
    for i in range(open_paren, len(clean)):
        if clean[i] == "(":
            depth += 1
        elif clean[i] == ")":
            depth -= 1
            if depth == 0:
                return clean[open_paren + 1 : i]
    return clean[open_paren + 1 :]


def _atomic_names(root, path, clean):
    """Atomic variable names declared in this file plus its same-stem
    header (members used in a .cc are declared in the .h)."""
    names = set()
    for source in (clean,):
        for pattern in (SL009_ATOMIC_DECL, SL009_ATOMIC_ARRAY_DECL):
            names.update(m.group(1) for m in pattern.finditer(source))
    if path.suffix != ".h":
        header = path.with_suffix(".h")
        if header.is_file():
            header_clean = strip_comments_and_strings(
                header.read_text(encoding="utf-8", errors="replace")
            )
            for pattern in (SL009_ATOMIC_DECL, SL009_ATOMIC_ARRAY_DECL):
                names.update(
                    m.group(1) for m in pattern.finditer(header_clean)
                )
    return names


def check_atomic_memory_orders(root, rel, path, clean):
    """SL009: every atomic op under src/ spells its memory order."""
    rel_str = str(rel).replace("\\", "/")
    if not rel_str.startswith("src/"):
        return []
    violations = []
    for match in SL009_ATOMIC_CALL.finditer(clean):
        args = _balanced_args(clean, match.end() - 1)
        if "memory_order" not in args:
            violations.append(
                (
                    line_of(clean, match.start()),
                    "SL009",
                    f".{match.group(1)}() without an explicit "
                    "std::memory_order argument (the implicit default is "
                    "seq_cst; spell the ordering and justify relaxed ones)",
                )
            )
    names = _atomic_names(root, path, clean)
    for name in names:
        escaped = re.escape(name)
        operator_forms = (
            rf"\b{escaped}(?:\s*\[[^\]]*\])?\s*(?:\+\+|--|[-+|&^]=)",
            rf"(?:\+\+|--)\s*{escaped}\b",
            rf"\b{escaped}(?:\s*\[[^\]]*\])?\s*=(?![=])",
        )
        for form in operator_forms:
            for match in re.finditer(form, clean):
                # Look at the token immediately before the name. A type
                # token (identifier char, '>', '&', '*') means this is a
                # declaration with an initializer, not an operation; a
                # member access ('.', '->') means the receiver is some
                # other object that merely shares the field name — a
                # regex cannot see its type, so we stay silent (the
                # repo's atomics are only ever touched unqualified from
                # inside their own class).
                i = match.start()
                while i > 0 and clean[i - 1] in " \t":
                    i -= 1
                prev = clean[i - 1] if i > 0 else ""
                if prev.isalnum() or prev in "_>&*.-":
                    continue
                violations.append(
                    (
                        line_of(clean, match.start()),
                        "SL009",
                        f"operator form on std::atomic '{name}' uses the "
                        "implicit seq_cst default; call "
                        "fetch_add/store/load with an explicit "
                        "std::memory_order",
                    )
                )
    return violations


# SL010: manual lock-management calls (empty argument list, so RAII
# constructors like `MutexLock lock(mu_)` cannot match).
SL010_MANUAL_LOCK = re.compile(
    r"(?:\.|->)\s*(lock|unlock|try_lock|lock_shared|unlock_shared|"
    r"Lock|Unlock|TryLock|LockShared|UnlockShared)\s*\(\s*\)"
)


def check_raii_locking(rel, clean):
    """SL010: no manual lock()/unlock() calls under src/ — RAII only."""
    rel_str = str(rel).replace("\\", "/")
    if not rel_str.startswith("src/") or rel_str in THREAD_WRAPPER_ALLOWLIST:
        return []
    violations = []
    for match in SL010_MANUAL_LOCK.finditer(clean):
        violations.append(
            (
                line_of(clean, match.start()),
                "SL010",
                f"manual .{match.group(1)}() call; hold locks via RAII "
                "(sketch::MutexLock) so no path can leak a held lock",
            )
        )
    return violations


# SL011: intrinsic headers and vector tokens. The include survives comment
# stripping (angle brackets are not string literals); the quoted
# simd_dispatch include does NOT, so that check runs on the raw text.
SL011_INTRIN_INCLUDE = re.compile(r"#\s*include\s*<\s*\w*intrin\.h\s*>")
SL011_INTRIN_TOKEN = re.compile(
    r"\b_mm(?:256|512)?_\w+\s*\(|\b__m(?:64|128|256|512)[di]?\b"
)
SL011_AVX2_GUARD = re.compile(r"#\s*(?:if|ifdef|elif)[^\n]*__AVX2__")


def check_simd_quarantine(rel, text, clean):
    """SL011: intrinsics only in src/kernels/ non-header TUs, and every
    intrinsics TU keeps the dispatch-guarded scalar-fallback shape."""
    rel_str = str(rel).replace("\\", "/")
    include_match = SL011_INTRIN_INCLUDE.search(clean)
    token_match = SL011_INTRIN_TOKEN.search(clean)
    first = min(
        (m for m in (include_match, token_match) if m is not None),
        key=lambda m: m.start(),
        default=None,
    )
    if first is None:
        return []
    in_kernels = rel_str.startswith("src/kernels/")
    is_header = rel_str.endswith(HEADER_SUFFIXES)
    if not in_kernels or is_header:
        where = (
            "a header (headers compile without -mavx2; see SL006)"
            if in_kernels
            else "outside src/kernels/"
        )
        return [
            (
                line_of(clean, first.start()),
                "SL011",
                f"SIMD intrinsics in {where}; vector code lives in "
                "src/kernels/ translation units behind the simd_dispatch "
                "layer",
            )
        ]
    violations = []
    if include_match is not None:
        guard = SL011_AVX2_GUARD.search(clean)
        if guard is None or guard.start() > include_match.start():
            violations.append(
                (
                    line_of(clean, include_match.start()),
                    "SL011",
                    "<*intrin.h> include is not guarded by an #if probing "
                    "__AVX2__; the TU must fall back to scalar code when "
                    "the toolchain cannot target the ISA",
                )
            )
        elif "#else" not in clean:
            violations.append(
                (
                    line_of(clean, include_match.start()),
                    "SL011",
                    "intrinsics TU has no #else scalar fallback branch; "
                    "non-AVX2 builds would lose the entry points and fail "
                    "to link",
                )
            )
    if "simd_dispatch.h" not in text:
        violations.append(
            (
                line_of(clean, first.start()),
                "SL011",
                "intrinsics TU does not include kernels/simd_dispatch.h; "
                "vector entry points must be reachable only through the "
                "runtime dispatch seam",
            )
        )
    return violations


METRICS_INVENTORY = "docs/metrics_inventory.md"

# SL012: a metric-registration call up to and including its opening quote.
# Matched against the comment-stripped text (so commented-out calls don't
# count), then the name itself is read from the raw text at the same
# offset — strip_comments_and_strings blanks string interiors but
# preserves offsets exactly.
SL012_METRIC_CALL = re.compile(
    r"\b(?:SKETCH_COUNTER_(?:INC|ADD)|SKETCH_HISTOGRAM_RECORD|"
    r"GetCounter|GetHistogram)\s*\(\s*\""
)
SL012_METRIC_NAME = re.compile(r'((?:[^"\\\n]|\\.)*)"')


def load_metrics_inventory(root):
    path = root / METRICS_INVENTORY
    if not path.is_file():
        return None
    return path.read_text(encoding="utf-8", errors="replace")


def check_metric_inventory(rel, text, clean, inventory):
    """SL012: src/ metric-name literals must be rows in the inventory."""
    rel_str = str(rel).replace("\\", "/")
    if not rel_str.startswith("src/"):
        return []
    violations = []
    for call in SL012_METRIC_CALL.finditer(clean):
        name_match = SL012_METRIC_NAME.match(text, call.end())
        if name_match is None:
            continue
        name = name_match.group(1)
        if inventory is None or f"`{name}`" not in inventory:
            violations.append(
                (
                    line_of(clean, call.start()),
                    "SL012",
                    f'metric name "{name}" is not documented in '
                    f"{METRICS_INVENTORY}; metric names are a "
                    "scrape-interface contract — add a backtick-quoted "
                    "row for it (or fix the name)",
                )
            )
    return violations


def lint_file(root, path, inventory=None):
    rel = path.relative_to(root)
    text = path.read_text(encoding="utf-8", errors="replace")
    clean = strip_comments_and_strings(text)
    violations = []
    under_src = str(rel).replace("\\", "/").startswith("src/")
    if under_src and path.suffix in HEADER_SUFFIXES:
        violations += check_include_guard(
            path, path.relative_to(root / "src"), text
        )
    if under_src:
        violations += check_merge_guard(clean)
        violations += check_deserialize_guard(clean)
        violations += check_naked_new_delete(clean)
    violations += check_raw_randomness(rel, clean)
    violations += check_server_decode_allocation(rel, clean)
    violations += check_thread_annotations(rel, clean)
    violations += check_atomic_memory_orders(root, rel, path, clean)
    violations += check_raii_locking(rel, clean)
    violations += check_simd_quarantine(rel, text, clean)
    violations += check_metric_inventory(rel, text, clean, inventory)
    return [(rel, line, rule, msg) for line, rule, msg in violations]


def compile_header(root, cxx, header):
    rel = header.relative_to(root / "src")
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".cc", delete=False
    ) as tu:
        tu.write(f'#include "{rel}"\n')
        tu_path = tu.name
    try:
        proc = subprocess.run(
            [
                cxx,
                "-std=c++20",
                "-fsyntax-only",
                "-Wall",
                "-Wextra",
                f"-I{root / 'src'}",
                "-x",
                "c++",
                tu_path,
            ],
            capture_output=True,
            text=True,
        )
    finally:
        Path(tu_path).unlink(missing_ok=True)
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        first = detail[0] if detail else "compile failed"
        return [
            (
                header.relative_to(root),
                1,
                "SL006",
                f"header is not self-contained: {first}",
            )
        ]
    return []


def collect_files(root):
    for top in SOURCE_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def run(root, compile_headers=False, cxx="g++", jobs=4):
    root = Path(root).resolve()
    inventory = load_metrics_inventory(root)
    violations = []
    for path in collect_files(root):
        violations += lint_file(root, path, inventory)
    if compile_headers:
        headers = [
            p
            for p in collect_files(root)
            if p.suffix in HEADER_SUFFIXES
            and str(p.relative_to(root)).replace("\\", "/").startswith("src/")
        ]
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            for result in pool.map(
                lambda h: compile_header(root, cxx, h), headers
            ):
                violations += result
    return sorted(violations, key=lambda v: (str(v[0]), v[1], v[2]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument(
        "--compile-headers",
        action="store_true",
        help="also verify every src/ header compiles stand-alone (SL006)",
    )
    parser.add_argument("--cxx", default="g++", help="compiler for SL006")
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args(argv)

    violations = run(
        args.root,
        compile_headers=args.compile_headers,
        cxx=args.cxx,
        jobs=args.jobs,
    )
    for rel, line, rule, msg in violations:
        print(f"{rel}:{line}: {rule} {msg}")
    if violations:
        print(f"sketch_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("sketch_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
