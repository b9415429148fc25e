#!/usr/bin/env python3
"""Tests for tools/conclint.py: the mo-comment justification rules (same
line, preceding block, shared block over a contiguous run, multi-line
statements), the HOTPATH allocation scan and its body extent, the raw-park
token scan and its sanctioned files, allowlist handling (including stale
entries), and the CLI exit codes. Run directly (python3
tools/conclint_test.py) or via ctest; CI runs it in the static-analysis
lane.
"""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import conclint  # noqa: E402

CONCLINT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "conclint.py")


def lint(text, path="src/x.cc"):
    return conclint.lint_text(path, text)


def rules(violations):
    return [v.rule for v in violations]


class MoCommentTest(unittest.TestCase):
    def test_bare_memory_order_is_flagged(self):
        vs = lint("void f() { a.load(std::memory_order_acquire); }\n")
        self.assertEqual(rules(vs), ["mo-comment"])
        self.assertEqual(vs[0].line, 1)

    def test_same_line_comment_passes(self):
        vs = lint("a.load(std::memory_order_acquire);  // mo: pairs with X\n")
        self.assertEqual(vs, [])

    def test_preceding_comment_block_passes(self):
        vs = lint("// mo: acquire — pairs with the release in Y\n"
                  "a.load(std::memory_order_acquire);\n")
        self.assertEqual(vs, [])

    def test_multi_line_comment_block_passes(self):
        vs = lint("// Longer explanation of the protocol at work here,\n"
                  "// mo: seq_cst — Dekker handshake with Drain.\n"
                  "a.fetch_add(1, std::memory_order_seq_cst);\n")
        self.assertEqual(vs, [])

    def test_comment_block_without_mo_tag_fails(self):
        vs = lint("// just prose, no justification tag\n"
                  "a.load(std::memory_order_acquire);\n")
        self.assertEqual(rules(vs), ["mo-comment"])

    def test_shared_block_covers_contiguous_run(self):
        vs = lint("// mo: relaxed x3 — independent stats cells\n"
                  "a.fetch_add(1, std::memory_order_relaxed);\n"
                  "b.fetch_add(1, std::memory_order_relaxed);\n"
                  "c.store(0, std::memory_order_relaxed);\n")
        self.assertEqual(vs, [])

    def test_run_broken_by_plain_statement_fails(self):
        # The non-memory-order statement ends the covered run: the site
        # after it needs its own justification.
        vs = lint("// mo: relaxed — covered\n"
                  "a.fetch_add(1, std::memory_order_relaxed);\n"
                  "DoSomethingElse();\n"
                  "b.fetch_add(1, std::memory_order_relaxed);\n")
        self.assertEqual(rules(vs), ["mo-comment"])
        self.assertEqual(vs[0].line, 4)

    def test_multi_line_statement_is_covered(self):
        vs = lint("// mo: relaxed — telemetry stamp\n"
                  "stamp_.store(Now(),\n"
                  "             std::memory_order_relaxed);\n")
        self.assertEqual(vs, [])

    def test_token_in_comment_only_is_ignored(self):
        vs = lint("// std::memory_order_relaxed is discussed here\nint x;\n")
        self.assertEqual(vs, [])

    def test_default_seq_cst_needs_no_comment(self):
        # Implicit ordering (no memory_order token) is out of scope.
        vs = lint("a.fetch_add(1);\n")
        self.assertEqual(vs, [])


class HotpathAllocTest(unittest.TestCase):
    def test_push_back_in_hotpath_is_flagged(self):
        vs = lint("// HOTPATH: submit probe\n"
                  "bool TryPush(const E& e) {\n"
                  "  buf_.push_back(e);\n"
                  "  return true;\n"
                  "}\n")
        self.assertEqual(rules(vs), ["hotpath-alloc"])
        self.assertEqual(vs[0].line, 3)

    def test_new_and_make_unique_are_flagged(self):
        vs = lint("// HOTPATH\n"
                  "void F() {\n"
                  "  auto* p = new int;\n"
                  "  auto q = std::make_unique<int>(1);\n"
                  "}\n")
        self.assertEqual(rules(vs), ["hotpath-alloc", "hotpath-alloc"])

    def test_string_construction_is_flagged(self):
        vs = lint("// HOTPATH\n"
                  "void F() {\n"
                  "  return std::string(\"oops\");\n"
                  "}\n")
        self.assertEqual(rules(vs), ["hotpath-alloc"])

    def test_clean_hotpath_passes(self):
        vs = lint("// HOTPATH: the drain step\n"
                  "uint64_t PopBatch(E* out, uint64_t max) {\n"
                  "  out[0] = buf_[head_ & mask_];\n"
                  "  return 1;\n"
                  "}\n")
        self.assertEqual(vs, [])

    def test_push_back_in_tagged_template_is_flagged(self):
        vs = lint("// HOTPATH: one apply loop per counter class\n"
                  "template <typename C>\n"
                  "Status Store::ApplyBatch(C* counter, size_t n) {\n"
                  "  for (size_t i = 0; i < n; ++i) {\n"
                  "    counter->IncrementMany(1);\n"
                  "    log_.push_back(i);\n"
                  "  }\n"
                  "  return Status::OK();\n"
                  "}\n")
        self.assertEqual(rules(vs), ["hotpath-alloc"])
        self.assertEqual(vs[0].line, 6)

    def test_clean_tagged_template_passes(self):
        vs = lint("// HOTPATH\n"
                  "template <typename C>\n"
                  "Status Store::ApplyBatch(C* counter, size_t n) {\n"
                  "  for (size_t i = 0; i < n; ++i) counter->IncrementMany(1);\n"
                  "  return Status::OK();\n"
                  "}\n"
                  "void Store::Grow() { pool_.resize(2 * pool_.size()); }\n")
        self.assertEqual(vs, [])

    def test_alloc_outside_tagged_body_is_not_flagged(self):
        vs = lint("// HOTPATH\n"
                  "void Fast() { x_ = 1; }\n"
                  "void Slow() { v_.push_back(1); }\n")
        self.assertEqual(vs, [])

    def test_untagged_function_may_allocate(self):
        vs = lint("void F() { v_.push_back(1); }\n")
        self.assertEqual(vs, [])

    def test_new_in_comment_or_string_is_ignored(self):
        vs = lint("// HOTPATH\n"
                  "void F() {\n"
                  "  // a new approach\n"
                  "  Log(\"new event\");\n"
                  "}\n")
        self.assertEqual(vs, [])


class RawParkTest(unittest.TestCase):
    def test_condition_variable_is_flagged(self):
        vs = lint("std::condition_variable cv_;\n")
        self.assertEqual(rules(vs), ["raw-park"])

    def test_std_mutex_and_guards_are_flagged(self):
        vs = lint("std::mutex mu_;\n"
                  "std::lock_guard<std::mutex> lock(mu_);\n")
        self.assertEqual(len(vs), 2)
        self.assertTrue(all(v.rule == "raw-park" for v in vs))

    def test_event_count_is_sanctioned(self):
        text = ("std::mutex mu_;\nstd::condition_variable cv_;\n"
                "cv_.notify_all();\n")
        self.assertEqual(lint(text, path="src/util/event_count.h"), [])

    def test_mutex_wrapper_is_sanctioned(self):
        self.assertEqual(lint("std::mutex mu_;\n",
                              path="src/util/mutex.h"), [])

    def test_countlib_mutex_is_fine(self):
        vs = lint("Mutex mu_;\nMutexLock lock(&mu_);\n")
        self.assertEqual(vs, [])

    def test_include_line_is_not_flagged(self):
        # <mutex> is still legitimately included for std::once_flag.
        vs = lint("#include <mutex>\nstd::once_flag once_;\n")
        self.assertEqual(vs, [])


class AllowlistTest(unittest.TestCase):
    def test_parse_and_roundtrip(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "allow.txt")
            with open(p, "w") as fh:
                fh.write("# comment\n\n"
                         "src/a.cc:3:raw-park  # trailing comment\n")
            self.assertEqual(conclint.load_allowlist(p),
                             {("src/a.cc", 3, "raw-park")})

    def test_malformed_entry_raises(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "allow.txt")
            with open(p, "w") as fh:
                fh.write("src/a.cc:notaline:raw-park\n")
            with self.assertRaises(ValueError):
                conclint.load_allowlist(p)

    def test_repo_allowlist_parses(self):
        repo_allow = os.path.join(os.path.dirname(CONCLINT),
                                  "conclint_allow.txt")
        conclint.load_allowlist(repo_allow)  # must not raise


class CliTest(unittest.TestCase):
    def run_cli(self, *args):
        return subprocess.run([sys.executable, CONCLINT, *args],
                              capture_output=True, text=True)

    def test_clean_tree_exits_zero(self):
        # The repo's own src/ must be conclint-clean with the committed
        # allowlist — the same gate CI applies.
        proc = self.run_cli()
        self.assertEqual(proc.returncode, 0,
                         msg=proc.stdout + proc.stderr)

    def test_seeded_violation_exits_one(self):
        with tempfile.TemporaryDirectory() as d:
            bad = os.path.join(d, "bad.cc")
            with open(bad, "w") as fh:
                fh.write("std::condition_variable cv_;\n"
                         "int f() { return a.load(std::memory_order_acquire); }\n")
            proc = self.run_cli(bad)
            self.assertEqual(proc.returncode, 1,
                             msg=proc.stdout + proc.stderr)
            self.assertIn("raw-park", proc.stdout)
            self.assertIn("mo-comment", proc.stdout)

    def test_allowlisted_violation_exits_zero(self):
        with tempfile.TemporaryDirectory() as d:
            bad = os.path.join(d, "bad.cc")
            with open(bad, "w") as fh:
                fh.write("std::condition_variable cv_;\n")
            rel = os.path.relpath(bad, conclint.REPO_ROOT).replace(
                os.sep, "/")
            allow = os.path.join(d, "allow.txt")
            with open(allow, "w") as fh:
                fh.write(f"{rel}:1:raw-park\n")
            proc = self.run_cli(bad, "--allowlist", allow)
            self.assertEqual(proc.returncode, 0,
                             msg=proc.stdout + proc.stderr)

    def test_stale_allowlist_entry_exits_one(self):
        with tempfile.TemporaryDirectory() as d:
            clean = os.path.join(d, "clean.cc")
            with open(clean, "w") as fh:
                fh.write("int x = 0;\n")
            allow = os.path.join(d, "allow.txt")
            with open(allow, "w") as fh:
                fh.write("src/nonexistent.cc:1:raw-park\n")
            proc = self.run_cli(clean, "--allowlist", allow)
            self.assertEqual(proc.returncode, 1,
                             msg=proc.stdout + proc.stderr)
            self.assertIn("stale allowlist entry", proc.stdout)

    def test_missing_path_exits_two(self):
        proc = self.run_cli("no/such/path")
        self.assertEqual(proc.returncode, 2,
                         msg=proc.stdout + proc.stderr)

    def test_malformed_allowlist_exits_two(self):
        with tempfile.TemporaryDirectory() as d:
            clean = os.path.join(d, "clean.cc")
            with open(clean, "w") as fh:
                fh.write("int x = 0;\n")
            allow = os.path.join(d, "allow.txt")
            with open(allow, "w") as fh:
                fh.write("garbage\n")
            proc = self.run_cli(clean, "--allowlist", allow)
            self.assertEqual(proc.returncode, 2,
                             msg=proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
