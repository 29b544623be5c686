#!/usr/bin/env python3
"""Unit tests for tools/sketch_lint.py.

Each rule gets a seeded violation in a synthetic repo tree and the test
asserts the linter flags exactly that rule; a companion clean tree must
pass. Run directly (python3 tools/sketch_lint_test.py) or via ctest
(sketch_lint_selftest).
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sketch_lint  # noqa: E402


def write_tree(root, files):
    for rel, content in files.items():
        path = Path(root) / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)


def rules_found(violations):
    return {rule for _, _, rule, _ in violations}


CLEAN_HEADER = """\
#ifndef SKETCH_WIDGET_H_
#define SKETCH_WIDGET_H_

namespace sketch {

class Widget {
 public:
  void Merge(const Widget& other) {
    SKETCH_CHECK(size_ == other.size_);
    size_ += other.size_;
  }

 private:
  int size_ = 0;
};

}  // namespace sketch

#endif  // SKETCH_WIDGET_H_
"""


class SketchLintTest(unittest.TestCase):
    def lint(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(tmp, files)
            return sketch_lint.run(tmp)

    def test_clean_tree_passes(self):
        violations = self.lint({"src/widget.h": CLEAN_HEADER})
        self.assertEqual(violations, [])

    def test_sl001_missing_include_guard(self):
        violations = self.lint(
            {"src/widget.h": "namespace sketch {}\n"}
        )
        self.assertEqual(rules_found(violations), {"SL001"})

    def test_sl001_wrong_guard_name(self):
        bad = CLEAN_HEADER.replace("SKETCH_WIDGET_H_", "WIDGET_H")
        violations = self.lint({"src/widget.h": bad})
        self.assertIn("SL001", rules_found(violations))

    def test_sl001_guard_derives_from_path(self):
        # The same guard text is wrong in a subdirectory.
        violations = self.lint({"src/sub/widget.h": CLEAN_HEADER})
        self.assertEqual(rules_found(violations), {"SL001"})
        fixed = CLEAN_HEADER.replace(
            "SKETCH_WIDGET_H_", "SKETCH_SUB_WIDGET_H_"
        )
        self.assertEqual(self.lint({"src/sub/widget.h": fixed}), [])

    def test_sl002_merge_without_check(self):
        bad = CLEAN_HEADER.replace(
            "    SKETCH_CHECK(size_ == other.size_);\n", ""
        )
        violations = self.lint({"src/widget.h": bad})
        self.assertEqual(rules_found(violations), {"SL002"})

    def test_sl002_merge_call_is_not_a_definition(self):
        source = """\
#include "widget.h"
namespace sketch {
void Combine(Widget* a, const Widget& b) { a->Merge(b); }
}  // namespace sketch
"""
        violations = self.lint(
            {"src/widget.h": CLEAN_HEADER, "src/combine.cc": source}
        )
        self.assertEqual(violations, [])

    def test_sl002_merge_mentioned_in_comment_is_ignored(self):
        source = """\
// Merge(a, b) without a check would be wrong; see Widget::Merge.
namespace sketch {}
"""
        violations = self.lint(
            {"src/widget.h": CLEAN_HEADER, "src/notes.cc": source}
        )
        self.assertEqual(violations, [])

    def test_sl003_deserialize_without_size_check(self):
        source = """\
namespace sketch {
std::optional<Widget> Widget::TryDeserialize(std::span<const uint8_t> bytes,
                                             std::string* error) {
  Widget w;
  return w;
}
}  // namespace sketch
"""
        violations = self.lint(
            {"src/widget.h": CLEAN_HEADER, "src/widget.cc": source}
        )
        self.assertEqual(rules_found(violations), {"SL003"})

    def test_sl003_allocation_before_size_check(self):
        # Building the object (or any container) from the untrusted header
        # before the size check is the pre-allocation defect SL003 exists
        # for, even though the check follows.
        constructs_first = """\
namespace sketch {
std::optional<Widget> Widget::TryDeserialize(std::span<const uint8_t> bytes,
                                             std::string* error) {
  Widget w(width, depth);
  if (!CheckSerializedSize(bytes, 4, width * depth)) return std::nullopt;
  return w;
}
}  // namespace sketch
"""
        reserves_first = """\
namespace sketch {
std::optional<Gadget> Gadget::TryDeserialize(std::span<const uint8_t> bytes,
                                             std::string* error) {
  std::vector<int64_t> counters;
  counters.reserve(width);
  if (!CheckSerializedSize(bytes, 4, width)) return std::nullopt;
  return Gadget(counters);
}
}  // namespace sketch
"""
        for source in (constructs_first, reserves_first):
            violations = self.lint(
                {"src/widget.h": CLEAN_HEADER, "src/widget.cc": source}
            )
            self.assertEqual(rules_found(violations), {"SL003"})

    def test_sl003_deserialize_with_size_check_passes(self):
        source = """\
namespace sketch {
std::optional<Widget> Widget::TryDeserialize(std::span<const uint8_t> bytes,
                                             std::string* error) {
  if (!CheckSerializedSize(bytes, 4, 0)) {
    return FailDecode(error, "Widget buffer size does not match geometry");
  }
  Widget w(width, depth);
  return w;
}
}  // namespace sketch
"""
        violations = self.lint(
            {"src/widget.h": CLEAN_HEADER, "src/widget.cc": source}
        )
        self.assertEqual(violations, [])

    def test_sl004_raw_randomness_outside_prng(self):
        source = """\
#include <random>
namespace sketch {
int Roll() {
  std::random_device rd;
  return rand() + static_cast<int>(rd());
}
}  // namespace sketch
"""
        violations = self.lint({"src/roll.cc": source})
        self.assertEqual(rules_found(violations), {"SL004"})
        self.assertEqual(len(violations), 2)  # random_device and rand()

    def test_sl004_allowed_inside_prng(self):
        source = "namespace sketch { int S() { return rand(); } }\n"
        violations = self.lint({"src/common/prng.cc": source})
        self.assertEqual(violations, [])

    def test_sl004_applies_to_tests_and_bench(self):
        source = "void F() { std::mt19937 gen(1); (void)gen; }\n"
        violations = self.lint({"tests/foo_test.cc": source})
        self.assertEqual(rules_found(violations), {"SL004"})

    def test_sl004_ignores_strands(self):
        # "strand" contains "rand" but is not a call to rand().
        source = "namespace sketch { int strand(int x) { return x; } }\n"
        violations = self.lint({"src/strand.cc": source})
        # The definition `int strand(` is itself a call-shaped match the
        # word boundary must reject.
        self.assertEqual(violations, [])

    def test_sl005_naked_new_and_delete(self):
        source = """\
namespace sketch {
int* Make() { return new int(3); }
void Drop(int* p) { delete p; }
}  // namespace sketch
"""
        violations = self.lint({"src/owner.cc": source})
        self.assertEqual(rules_found(violations), {"SL005"})
        self.assertEqual(len(violations), 2)

    def test_sl005_deleted_functions_allowed(self):
        source = """\
#ifndef SKETCH_POOL_H_
#define SKETCH_POOL_H_
namespace sketch {
class Pool {
 public:
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
};
}  // namespace sketch
#endif  // SKETCH_POOL_H_
"""
        violations = self.lint({"src/pool.h": source})
        self.assertEqual(violations, [])

    def test_sl007_decode_allocation_without_validation(self):
        source = """\
namespace sketch::server {
bool DecodeThing(const Frame& frame, Thing* out) {
  uint32_t count = frame.payload[0];
  out->items.resize(count);
  return true;
}
}  // namespace sketch::server
"""
        violations = self.lint({"src/server/thing.cc": source})
        self.assertEqual(rules_found(violations), {"SL007"})

    def test_sl007_allocation_after_cap_check_passes(self):
        source = """\
namespace sketch::server {
bool DecodeThing(const Frame& frame, Thing* out) {
  uint32_t count = frame.payload[0];
  if (count > kMaxBatchUpdates || reader.remaining() / 16 < count) {
    return false;
  }
  out->items.resize(count);
  return true;
}
bool TryReadChunk(std::vector<uint8_t>* out) {
  uint32_t length = 0;
  if (length > remaining()) return false;
  out->assign(data_, data_ + length);
  return true;
}
}  // namespace sketch::server
"""
        violations = self.lint({"src/server/thing.cc": source})
        self.assertEqual(violations, [])

    FRAME_DECODER_TEMPLATE = """\
namespace sketch::server {{
DecodeStatus FrameDecoder::Receive(const FrameHeader& header) {{
{body}
  return DecodeStatus::kNeedMore;
}}
}}  // namespace sketch::server
"""

    def test_sl007_frame_decoder_member_reserve_before_cap_check(self):
        # Any FrameDecoder member is a decode path, whatever its name: a
        # declared length may not reserve a payload before the cap check.
        source = self.FRAME_DECODER_TEMPLATE.format(
            body="""\
  in_place_.payload.reserve(header.payload_length);
  if (header.payload_length > kMaxFramePayloadBytes) {
    return Fail(ErrorCode::kFrameTooLarge, "too large");
  }"""
        )
        violations = self.lint({"src/server/protocol.cc": source})
        self.assertEqual(rules_found(violations), {"SL007"})

    def test_sl007_frame_decoder_member_cap_check_first_passes(self):
        source = self.FRAME_DECODER_TEMPLATE.format(
            body="""\
  if (header.payload_length > kMaxFramePayloadBytes) {
    return Fail(ErrorCode::kFrameTooLarge, "too large");
  }
  in_place_.payload.reserve(header.payload_length);"""
        )
        violations = self.lint({"src/server/protocol.cc": source})
        self.assertEqual(violations, [])

    def test_sl007_only_applies_to_server_decode_paths(self):
        # The same unvalidated resize outside src/server, or in a
        # non-decode function, is out of SL007's scope.
        decode_elsewhere = """\
namespace sketch {
bool DecodeThing(const Frame& frame, Thing* out) {
  out->items.resize(frame.payload[0]);
  return true;
}
}  // namespace sketch
"""
        helper_in_server = """\
namespace sketch::server {
void BuildRows(std::vector<double>* rows, uint64_t depth) {
  rows->reserve(depth);
}
}  // namespace sketch::server
"""
        violations = self.lint(
            {
                "src/sketch/thing.cc": decode_elsewhere,
                "src/server/helper.cc": helper_in_server,
            }
        )
        self.assertEqual(violations, [])

    BYTE_READER_TEMPLATE = """\
#ifndef SKETCH_COMMON_BYTE_BUFFER_H_
#define SKETCH_COMMON_BYTE_BUFFER_H_
namespace sketch {{
class ByteReader {{
 public:
  template <typename Length, typename Bytes>
  bool ReadLengthPrefixed(uint64_t max_bytes, Bytes* out) {{
    Length length = 0;
    if (!ReadLittleEndian(&length)) return false;
{body}
    position_ += length;
    return true;
  }}
}};
}}  // namespace sketch
#endif  // SKETCH_COMMON_BYTE_BUFFER_H_
"""

    def test_sl007_shared_reader_resize_before_cap_check(self):
        # The shared codec's length-prefixed read is a decode path too: a
        # declared length may not size the output before the cap check.
        source = self.BYTE_READER_TEMPLATE.format(
            body="""\
    out->resize(length);
    if (length > max_bytes || length > remaining()) return false;"""
        )
        violations = self.lint({"src/common/byte_buffer.h": source})
        self.assertEqual(rules_found(violations), {"SL007"})

    def test_sl007_shared_reader_cap_check_first_passes(self):
        source = self.BYTE_READER_TEMPLATE.format(
            body="""\
    if (length > max_bytes || length > remaining()) return false;
    out->assign(data, data + length);"""
        )
        violations = self.lint({"src/common/byte_buffer.h": source})
        self.assertEqual(violations, [])

    def test_sl008_raw_mutex_member(self):
        source = """\
#ifndef SKETCH_POOL_H_
#define SKETCH_POOL_H_
#include <mutex>
namespace sketch {
class Pool {
 private:
  std::mutex mu_;
  std::condition_variable cv_;
};
}  // namespace sketch
#endif  // SKETCH_POOL_H_
"""
        violations = self.lint({"src/pool.h": source})
        self.assertEqual(rules_found(violations), {"SL008"})
        self.assertEqual(
            len([v for v in violations if v[2] == "SL008"]), 2
        )

    def test_sl008_lock_guard_template_argument_is_not_a_member(self):
        source = """\
namespace sketch {
void F() { std::lock_guard<std::mutex> lock(GlobalMu()); }
}  // namespace sketch
"""
        violations = self.lint({"src/user.cc": source})
        self.assertNotIn("SL008", rules_found(violations))

    def test_sl008_unannotated_wrapped_mutex(self):
        source = """\
#ifndef SKETCH_POOL_H_
#define SKETCH_POOL_H_
namespace sketch {
class Pool {
 private:
  Mutex mu_;
  int jobs_ = 0;
};
}  // namespace sketch
#endif  // SKETCH_POOL_H_
"""
        violations = self.lint({"src/pool.h": source})
        self.assertEqual(rules_found(violations), {"SL008"})

    def test_sl008_annotated_wrapped_mutex_passes(self):
        source = """\
#ifndef SKETCH_POOL_H_
#define SKETCH_POOL_H_
namespace sketch {
class Pool {
 public:
  void Add() SKETCH_EXCLUDES(mu_);
 private:
  mutable Mutex mu_;
  int jobs_ SKETCH_GUARDED_BY(mu_) = 0;
};
}  // namespace sketch
#endif  // SKETCH_POOL_H_
"""
        violations = self.lint({"src/pool.h": source})
        self.assertEqual(violations, [])

    def test_sl008_only_applies_under_src(self):
        source = """\
#include <mutex>
namespace sketch {
class Helper { std::mutex mu_; };
}  // namespace sketch
"""
        violations = self.lint({"tests/helper_test.cc": source})
        self.assertNotIn("SL008", rules_found(violations))

    def test_sl009_bare_atomic_calls(self):
        source = """\
namespace sketch {
struct S { std::atomic<int> n{0}; };
int F(S& s) {
  s.n.fetch_add(1);
  s.n.store(2);
  return s.n.load();
}
}  // namespace sketch
"""
        violations = self.lint({"src/counter.cc": source})
        self.assertEqual(rules_found(violations), {"SL009"})
        self.assertEqual(
            len([v for v in violations if v[2] == "SL009"]), 3
        )

    def test_sl009_explicit_order_passes_even_multiline(self):
        source = """\
namespace sketch {
struct S { std::atomic<int> n{0}; };
int F(S& s) {
  s.n.fetch_add(1,
                std::memory_order_relaxed);
  return s.n.load(std::memory_order_acquire);
}
}  // namespace sketch
"""
        violations = self.lint({"src/counter.cc": source})
        self.assertEqual(violations, [])

    def test_sl009_operator_forms_on_declared_atomics(self):
        source = """\
namespace sketch {
class C {
  void Bump() {
    hits_++;
    total_ += 2;
    mode_ = 3;
  }
  std::atomic<int> hits_{0};
  std::atomic<int> total_{0};
  std::atomic<int> mode_{0};
};
}  // namespace sketch
"""
        violations = self.lint({"src/counter.h": "#ifndef SKETCH_COUNTER_H_\n#define SKETCH_COUNTER_H_\n" + source + "#endif  // SKETCH_COUNTER_H_\n"})
        self.assertEqual(rules_found(violations), {"SL009"})
        self.assertEqual(
            len([v for v in violations if v[2] == "SL009"]), 3
        )

    def test_sl009_sees_atomics_declared_in_paired_header(self):
        header = """\
#ifndef SKETCH_COUNTER_H_
#define SKETCH_COUNTER_H_
namespace sketch {
class C {
 public:
  void Bump();
 private:
  std::atomic<int> hits_{0};
};
}  // namespace sketch
#endif  // SKETCH_COUNTER_H_
"""
        source = """\
namespace sketch {
void C::Bump() { hits_++; }
}  // namespace sketch
"""
        violations = self.lint(
            {"src/counter.h": header, "src/counter.cc": source}
        )
        self.assertEqual(rules_found(violations), {"SL009"})

    def test_sl009_declaration_initializer_is_not_an_operation(self):
        source = """\
namespace sketch {
std::atomic<int> counter = 0;
struct Snapshot { int counter = 0; };
void F(Snapshot& s) { s.counter = 1; }
}  // namespace sketch
"""
        violations = self.lint({"src/counter.cc": source})
        self.assertNotIn("SL009", rules_found(violations))

    def test_sl009_only_applies_under_src(self):
        source = """\
namespace sketch {
std::atomic<int> n{0};
int F() { return n.load(); }
}  // namespace sketch
"""
        violations = self.lint({"tests/counter_test.cc": source})
        self.assertNotIn("SL009", rules_found(violations))

    def test_sl010_manual_lock_unlock(self):
        source = """\
namespace sketch {
void F(Mutex& mu) {
  mu.Lock();
  mu.Unlock();
}
void G(std::mutex& mu) {
  mu.lock();
  mu.unlock();
}
}  // namespace sketch
"""
        violations = self.lint({"src/locking.cc": source})
        self.assertEqual(rules_found(violations), {"SL010"})
        self.assertEqual(
            len([v for v in violations if v[2] == "SL010"]), 4
        )

    def test_sl010_raii_constructor_is_not_a_lock_call(self):
        source = """\
namespace sketch {
void F(Mutex& mu) { MutexLock lock(mu); }
}  // namespace sketch
"""
        violations = self.lint({"src/locking.cc": source})
        self.assertEqual(violations, [])

    def test_sl008_sl010_allow_the_wrapper_header(self):
        wrapper = """\
#ifndef SKETCH_COMMON_THREAD_ANNOTATIONS_H_
#define SKETCH_COMMON_THREAD_ANNOTATIONS_H_
#include <mutex>
namespace sketch {
class Mutex {
 public:
  void Lock() { mu_.lock(); }
  void Unlock() { mu_.unlock(); }
 private:
  std::mutex mu_;
};
}  // namespace sketch
#endif  // SKETCH_COMMON_THREAD_ANNOTATIONS_H_
"""
        violations = self.lint(
            {"src/common/thread_annotations.h": wrapper}
        )
        self.assertEqual(violations, [])

    def test_thread_annotation_macros_compile_away_under_gcc(self):
        # The real wrapper header must be a no-op for non-clang
        # compilers: an annotated fixture has to compile under g++ with
        # the macros expanding to nothing.
        import shutil

        cxx = shutil.which("g++") or shutil.which("c++")
        if cxx is None:
            self.skipTest("no C++ compiler available")
        repo_root = Path(__file__).resolve().parent.parent
        annotations = (
            repo_root / "src" / "common" / "thread_annotations.h"
        ).read_text()
        fixture = """\
#ifndef SKETCH_FIXTURE_H_
#define SKETCH_FIXTURE_H_
#include "common/thread_annotations.h"
namespace sketch {
class Fixture {
 public:
  void Add(int n) SKETCH_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    total_ += n;
  }
 private:
  mutable Mutex mu_;
  int total_ SKETCH_GUARDED_BY(mu_) = 0;
};
}  // namespace sketch
#endif  // SKETCH_FIXTURE_H_
"""
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(
                tmp,
                {
                    "src/common/thread_annotations.h": annotations,
                    "src/fixture.h": fixture,
                },
            )
            root = Path(tmp)
            failures = sketch_lint.compile_header(
                root, cxx, root / "src" / "fixture.h"
            )
            self.assertEqual(failures, [], failures)

    CLEAN_AVX2_TU = """\
#include "kernels/simd_dispatch.h"

#if defined(__AVX2__) && defined(__x86_64__)
#include <immintrin.h>
#else
#include "kernels/block_hasher.h"
#endif

namespace sketch {
#if defined(__AVX2__) && defined(__x86_64__)
void HashLanes(__m256i* out) { *out = _mm256_setzero_si256(); }
#endif
}  // namespace sketch
"""

    def test_sl011_clean_intrinsics_tu_passes(self):
        violations = self.lint(
            {"src/kernels/widget_avx2.cc": self.CLEAN_AVX2_TU}
        )
        self.assertEqual(violations, [])

    def test_sl011_intrinsics_outside_kernels(self):
        source = """\
#include <immintrin.h>
namespace sketch {
void Fast(__m256i* out) { *out = _mm256_setzero_si256(); }
}  // namespace sketch
"""
        for rel in ("src/sketch/fast.cc", "bench/bench_fast.cc",
                    "tests/fast_test.cc"):
            violations = self.lint({rel: source})
            self.assertEqual(rules_found(violations), {"SL011"}, rel)

    def test_sl011_intrinsics_in_kernels_header(self):
        header = """\
#ifndef SKETCH_KERNELS_LANES_H_
#define SKETCH_KERNELS_LANES_H_
namespace sketch {
inline void HashLanes(__m256i* out);
}  // namespace sketch
#endif  // SKETCH_KERNELS_LANES_H_
"""
        violations = self.lint({"src/kernels/lanes.h": header})
        self.assertEqual(rules_found(violations), {"SL011"})

    def test_sl011_unguarded_include(self):
        bad = self.CLEAN_AVX2_TU.replace(
            "#if defined(__AVX2__) && defined(__x86_64__)\n"
            "#include <immintrin.h>\n"
            "#else\n"
            '#include "kernels/block_hasher.h"\n'
            "#endif\n",
            "#include <immintrin.h>\n",
            1,
        )
        violations = self.lint({"src/kernels/widget_avx2.cc": bad})
        self.assertEqual(rules_found(violations), {"SL011"})

    def test_sl011_missing_scalar_fallback(self):
        bad = self.CLEAN_AVX2_TU.replace(
            "#else\n#include \"kernels/block_hasher.h\"\n", "", 1
        )
        violations = self.lint({"src/kernels/widget_avx2.cc": bad})
        self.assertEqual(rules_found(violations), {"SL011"})

    def test_sl011_missing_dispatch_include(self):
        bad = self.CLEAN_AVX2_TU.replace(
            '#include "kernels/simd_dispatch.h"\n\n', "", 1
        )
        violations = self.lint({"src/kernels/widget_avx2.cc": bad})
        self.assertEqual(rules_found(violations), {"SL011"})

    def test_sl011_intrinsic_names_in_comments_are_ignored(self):
        source = """\
namespace sketch {
// The AVX2 tier uses _mm256_mul_epu32(a, b) partial products; see
// src/kernels/block_hasher_avx2.cc for the __m256i lane layout.
}  // namespace sketch
"""
        violations = self.lint({"src/sketch/notes.cc": source})
        self.assertEqual(violations, [])

    SL012_SOURCE = """\
namespace sketch {
void Touch() {
  SKETCH_COUNTER_INC("server.widget.requests");
  SKETCH_HISTOGRAM_RECORD("server.widget.latency_ns", 42);
}
}  // namespace sketch
"""

    SL012_INVENTORY = """\
# Metrics inventory
| `server.widget.requests` | widget requests |
| `server.widget.latency_ns` | widget latency |
"""

    def test_sl012_documented_metrics_pass(self):
        violations = self.lint(
            {
                "src/server/widget.cc": self.SL012_SOURCE,
                "docs/metrics_inventory.md": self.SL012_INVENTORY,
            }
        )
        self.assertEqual(violations, [])

    def test_sl012_undocumented_metric_fails(self):
        inventory = self.SL012_INVENTORY.replace(
            "| `server.widget.latency_ns` | widget latency |\n", ""
        )
        violations = self.lint(
            {
                "src/server/widget.cc": self.SL012_SOURCE,
                "docs/metrics_inventory.md": inventory,
            }
        )
        self.assertEqual(rules_found(violations), {"SL012"})
        self.assertEqual(len(violations), 1)
        self.assertIn("server.widget.latency_ns", violations[0][3])

    def test_sl012_missing_inventory_flags_every_metric(self):
        violations = self.lint({"src/server/widget.cc": self.SL012_SOURCE})
        self.assertEqual(rules_found(violations), {"SL012"})
        self.assertEqual(len(violations), 2)

    def test_sl012_ignores_non_src_and_comments(self):
        commented = """\
namespace sketch {
// SKETCH_COUNTER_INC("server.ghost.metric") used to live here.
void Touch() {}
}  // namespace sketch
"""
        violations = self.lint(
            {
                # Metric literals in tests/bench don't need inventory rows.
                "tests/widget_test.cc": self.SL012_SOURCE,
                "bench/bench_widget.cc": self.SL012_SOURCE,
                "src/server/notes.cc": commented,
            }
        )
        self.assertEqual(violations, [])

    def test_sl012_variable_names_are_ignored(self):
        source = """\
namespace sketch {
void Touch(const std::string& name) {
  MetricRegistry::Instance().GetCounter(name).Increment();
}
}  // namespace sketch
"""
        violations = self.lint({"src/server/dynamic.cc": source})
        self.assertEqual(violations, [])

    def test_violations_in_strings_and_comments_are_ignored(self):
        source = """\
namespace sketch {
// new delete rand() std::random_device
const char* kDoc = "use new and delete and rand()";
}  // namespace sketch
"""
        violations = self.lint({"src/doc.cc": source})
        self.assertEqual(violations, [])

    def test_repo_is_clean(self):
        repo_root = Path(__file__).resolve().parent.parent
        violations = sketch_lint.run(repo_root)
        self.assertEqual(
            violations,
            [],
            "\n".join(
                f"{rel}:{line}: {rule} {msg}"
                for rel, line, rule, msg in violations
            ),
        )


if __name__ == "__main__":
    unittest.main()
