#!/usr/bin/env python3
"""Unit tests for tools/locktree.py — the whole-program lock-hierarchy and
blocking-contract analyzer. Fixtures are synthetic translation units fed
through `analyze_texts`, so every rule is exercised without touching the
real tree. Run directly or via ctest (locktree_py_test)."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lintlib
import locktree
from locktree import analyze_texts


def rules(violations):
    return [v.rule for v in violations]


def only(violations, rule):
    return [v for v in violations if v.rule == rule]


class HierarchyModelTest(unittest.TestCase):
    def test_leveled_member_mutex_recorded(self):
        model, violations = analyze_texts([("src/a.h", """
class Gadget {
 private:
  mutable Mutex mu_ LOCK_LEVEL(40);
};
""")])
        self.assertEqual(violations, [])
        self.assertEqual(len(model.mutexes), 1)
        decl = model.mutexes[0]
        self.assertEqual((decl.cls, decl.name, decl.level),
                         ("Gadget", "mu_", 40))

    def test_unleveled_mutex_flagged(self):
        _, violations = analyze_texts([("src/a.h", """
class Gadget {
  Mutex mu_;
};
""")])
        self.assertEqual(rules(violations), ["unleveled-mutex"])
        self.assertIn("LOCK_LEVEL", violations[0].message)

    def test_function_local_mutex_resolves(self):
        model, violations = analyze_texts([("src/a.cc", """
void Work() {
  Mutex local_mu LOCK_LEVEL(85);
  MutexLock lock(&local_mu);
}
""")])
        self.assertEqual(violations, [])
        self.assertEqual(model.mutexes[0].func, "Work")

    def test_unknown_acquire_target_flagged(self):
        _, violations = analyze_texts([("src/a.cc", """
void Work() {
  MutexLock lock(&mystery_);
}
""")])
        self.assertEqual(rules(violations), ["unknown-mutex"])
        self.assertIn("mystery_", violations[0].message)

    def test_struct_member_and_guarded_by_parse(self):
        model, violations = analyze_texts([("src/a.cc", """
struct SinkState {
  Mutex mu LOCK_LEVEL(90);
  LogSink sink GUARDED_BY(mu);
};
""")])
        self.assertEqual(violations, [])
        self.assertEqual(model.mutexes[0].cls, "SinkState")


class LockOrderTest(unittest.TestCase):
    def fixture(self, body):
        return [("src/a.h", """
class Pipe {
 public:
%s
 private:
  Mutex lo_ LOCK_LEVEL(10);
  Mutex hi_ LOCK_LEVEL(20);
};
""" % body)]

    def test_ascending_levels_clean(self):
        _, violations = analyze_texts(self.fixture("""
  void Up() {
    MutexLock a(&lo_);
    MutexLock b(&hi_);
  }
"""))
        self.assertEqual(violations, [])

    def test_descending_levels_flagged(self):
        _, violations = analyze_texts(self.fixture("""
  void Down() {
    MutexLock a(&hi_);
    MutexLock b(&lo_);
  }
"""))
        self.assertEqual(rules(violations), ["lock-order"])
        self.assertIn("strictly increasing", violations[0].message)

    def test_equal_levels_flagged(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  void Both() {
    MutexLock a(&m1_);
    MutexLock b(&m2_);
  }
  Mutex m1_ LOCK_LEVEL(10);
  Mutex m2_ LOCK_LEVEL(10);
};
""")])
        self.assertEqual(rules(violations), ["lock-order"])

    def test_self_reacquisition_flagged(self):
        _, violations = analyze_texts(self.fixture("""
  void Twice() {
    MutexLock a(&lo_);
    MutexLock b(&lo_);
  }
"""))
        self.assertEqual(rules(violations), ["lock-order"])
        self.assertIn("not reentrant", violations[0].message)

    def test_transitive_inversion_through_call(self):
        _, violations = analyze_texts(self.fixture("""
  void Outer() {
    MutexLock l(&hi_);
    Inner();
  }
  void Inner() {
    MutexLock l(&lo_);
  }
"""))
        self.assertEqual(rules(violations), ["lock-order"])
        self.assertIn("via call to 'Inner'", violations[0].message)

    def test_scope_exit_releases_lock(self):
        _, violations = analyze_texts(self.fixture("""
  void Seq() {
    {
      MutexLock a(&hi_);
    }
    MutexLock b(&lo_);
  }
"""))
        self.assertEqual(violations, [])

    def test_requires_on_definition_counts_as_held(self):
        _, violations = analyze_texts(self.fixture("""
  void Locked() REQUIRES(hi_) {
    MutexLock l(&lo_);
  }
"""))
        self.assertEqual(rules(violations), ["lock-order"])

    def test_requires_on_class_declaration_merged_across_files(self):
        # The .cc is parsed BEFORE the .h that carries the REQUIRES — the
        # merge happens at resolve time, so parse order must not matter.
        _, violations = analyze_texts([
            ("src/b.cc", """
#include "b.h"
void Pipe::DoLocked() {
  MutexLock l(&lo_);
}
"""),
            ("src/b.h", """
class Pipe {
 public:
  void DoLocked() REQUIRES(hi_);
 private:
  Mutex lo_ LOCK_LEVEL(10);
  Mutex hi_ LOCK_LEVEL(20);
};
"""),
        ])
        self.assertEqual(rules(violations), ["lock-order"])
        self.assertEqual(violations[0].path, "src/b.cc")


class LockCycleTest(unittest.TestCase):
    def test_cycle_reported_alongside_inversion(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  void Forward() {
    MutexLock a(&lo_);
    MutexLock b(&hi_);
  }
  void Backward() {
    MutexLock a(&hi_);
    MutexLock b(&lo_);
  }
  Mutex lo_ LOCK_LEVEL(10);
  Mutex hi_ LOCK_LEVEL(20);
};
""")])
        self.assertIn("lock-order", rules(violations))
        self.assertIn("lock-cycle", rules(violations))
        cyc = only(violations, "lock-cycle")[0]
        self.assertIn("cannot be allowlisted", cyc.message)


class ParkUnderLockTest(unittest.TestCase):
    def test_park_under_lock_flagged(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  void Wait() {
    MutexLock l(&mu_);
    ec_.ParkOne(epoch);
  }
  Mutex mu_ LOCK_LEVEL(10);
};
""")])
        self.assertEqual(rules(violations), ["park-under-lock"])
        self.assertIn("ParkOne", violations[0].message)

    def test_park_without_lock_clean(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  void Wait() {
    ec_.ParkUntil(epoch, deadline);
  }
};
""")])
        self.assertEqual(violations, [])

    def test_thread_join_under_lock_flagged(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  void Stop() {
    MutexLock l(&mu_);
    worker_.join();
  }
  Mutex mu_ LOCK_LEVEL(10);
};
""")])
        self.assertEqual(rules(violations), ["park-under-lock"])

    def test_free_function_named_join_not_blocking(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  void Merge() {
    MutexLock l(&mu_);
    join(left, right);
  }
  Mutex mu_ LOCK_LEVEL(10);
};
""")])
        self.assertEqual(violations, [])

    def test_blocking_contract_api_under_lock_flagged(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  void Push() {
    MutexLock l(&mu_);
    sink_.Flush();
  }
  Mutex mu_ LOCK_LEVEL(10);
};
""")])
        self.assertEqual(rules(violations), ["park-under-lock"])
        self.assertIn("blocking API", violations[0].message)

    def test_transitive_park_through_callee(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  void Holding() {
    MutexLock l(&mu_);
    Wait();
  }
  void Wait() {
    ec_.ParkOne(epoch);
  }
  Mutex mu_ LOCK_LEVEL(10);
};
""")])
        self.assertEqual(rules(violations), ["park-under-lock"])
        self.assertIn("Wait", violations[0].message)

    def test_lambda_does_not_inherit_held_locks(self):
        # The worker lambda RUNS on another thread: the spawn site holds
        # mu_, the lambda body does not.
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  void Spawn() {
    MutexLock l(&mu_);
    workers_.emplace_back([this] {
      ec_.ParkOne(epoch);
    });
  }
  Mutex mu_ LOCK_LEVEL(10);
};
""")])
        self.assertEqual(violations, [])

    def test_call_prefix_before_lambda_argument_is_seen(self):
        # ParkOne's own call must still be attributed to the enclosing
        # function even though a lambda argument splits the statement.
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  void Wait() {
    MutexLock l(&mu_);
    ec_.ParkOne(epoch, [this] { return ready_; }, deadline);
  }
  Mutex mu_ LOCK_LEVEL(10);
};
""")])
        self.assertEqual(rules(violations), ["park-under-lock"])


class HotpathTest(unittest.TestCase):
    def test_hotpath_may_take_leveled_lock(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  // HOTPATH
  bool TryFast() {
    MutexLock l(&mu_);
    return true;
  }
  Mutex mu_ LOCK_LEVEL(10);
};
""")])
        self.assertEqual(violations, [])

    def test_hotpath_direct_park_flagged(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  // HOTPATH
  bool TryFast() {
    ec_.ParkOne(epoch);
    return true;
  }
};
""")])
        self.assertEqual(rules(violations), ["hotpath-blocking"])
        self.assertIn("TryFast", violations[0].message)

    def test_hotpath_transitive_blocking_flagged(self):
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  // HOTPATH
  bool TryFast() {
    Slow();
    return true;
  }
  void Slow() {
    ec_.ParkUntil(epoch, deadline);
  }
};
""")])
        self.assertEqual(rules(violations), ["hotpath-blocking"])

    def test_tag_binds_only_to_next_function(self):
        # Park in the function AFTER the tagged one is not a hotpath issue.
        _, violations = analyze_texts([("src/a.h", """
class Pipe {
  // HOTPATH
  bool TryFast() {
    return true;
  }
  void Wait() {
    ec_.ParkOne(epoch);
  }
};
""")])
        self.assertEqual(violations, [])


class ResolutionTest(unittest.TestCase):
    def test_typed_receiver_disambiguates_same_named_methods(self):
        # p_ is a Plain; Plain::Touch acquires nothing, so Locky::Touch's
        # low-level acquire must NOT contaminate the call site.
        _, violations = analyze_texts([("src/a.h", """
class Locky {
 public:
  void Touch() {
    MutexLock l(&mu_);
  }
  Mutex mu_ LOCK_LEVEL(10);
};
class Plain {
 public:
  void Touch() {}
};
class User {
 public:
  void Use() {
    MutexLock l(&hi_);
    p_.Touch();
  }
  Plain p_;
  Mutex hi_ LOCK_LEVEL(20);
};
""")])
        self.assertEqual(violations, [])

    def test_untyped_receiver_unions_candidates(self):
        # Without a typed receiver the analyzer stays conservative: the
        # acquiring overload is still a candidate, so the inversion fires.
        _, violations = analyze_texts([("src/a.h", """
class Locky {
 public:
  void Touch() {
    MutexLock l(&mu_);
  }
  Mutex mu_ LOCK_LEVEL(10);
};
class User {
 public:
  void Use() {
    MutexLock l(&hi_);
    mystery_.Touch();
  }
  Mutex hi_ LOCK_LEVEL(20);
};
""")])
        self.assertEqual(rules(violations), ["lock-order"])

    def test_include_visibility_prunes_method_candidates(self):
        # src/use.cc includes near.h but not far.h: Far::Poke cannot be the
        # callee, so its low-level acquire must not leak into use.cc.
        _, violations = analyze_texts([
            ("src/far.h", """
class Far {
 public:
  void Poke() {
    MutexLock l(&far_mu_);
  }
  Mutex far_mu_ LOCK_LEVEL(5);
};
"""),
            ("src/near.h", """
class Near {
 public:
  void Poke() {}
};
"""),
            ("src/use.cc", """
#include "near.h"
struct Holder {
  void Run() {
    MutexLock l(&mu_);
    helper_.Poke();
  }
  Mutex mu_ LOCK_LEVEL(50);
};
"""),
        ])
        self.assertEqual(violations, [])

    def test_arity_prunes_overloads(self):
        # Only the 2-arg Work overload locks; the call passes one argument,
        # so it must resolve to the 1-arg overload and stay clean.
        _, violations = analyze_texts([("src/a.h", """
class Ov {
 public:
  void Work(int a, int b) {
    MutexLock l(&lo_);
  }
  void Work(int a) {}
  Mutex lo_ LOCK_LEVEL(10);
};
class OvUser {
 public:
  void Run() {
    MutexLock l(&user_mu_);
    o_.Work(1);
  }
  Ov o_;
  Mutex user_mu_ LOCK_LEVEL(20);
};
""")])
        self.assertEqual(violations, [])

    def test_member_of_typed_local_receiver_resolves(self):
        model, violations = analyze_texts([("src/a.h", """
struct Stripe {
  Mutex mu LOCK_LEVEL(30);
};
class Store {
 public:
  void Bump() {
    Stripe& s = Pick();
    MutexLock l(&s.mu);
  }
  Stripe& Pick();
};
""")])
        self.assertEqual(violations, [])
        bump = next(f for f in model.functions if f.name == "Bump")
        self.assertEqual(bump.acquires[0].decl.cls, "Stripe")


class CliTest(unittest.TestCase):
    CLEAN = """
class Pipe {
 public:
  void Up() {
    MutexLock a(&lo_);
    MutexLock b(&hi_);
  }
 private:
  Mutex lo_ LOCK_LEVEL(10);
  Mutex hi_ LOCK_LEVEL(20);
};
"""
    INVERTED = CLEAN.replace("MutexLock a(&lo_)", "MutexLock a(&hi_)") \
                    .replace("MutexLock b(&hi_)", "MutexLock b(&lo_)")
    CYCLIC = """
class Pipe {
  void Forward() {
    MutexLock a(&lo_);
    MutexLock b(&hi_);
  }
  void Backward() {
    MutexLock a(&hi_);
    MutexLock b(&lo_);
  }
  Mutex lo_ LOCK_LEVEL(10);
  Mutex hi_ LOCK_LEVEL(20);
};
"""

    def run_main(self, source, allow_text=None, extra_args=()):
        with tempfile.TemporaryDirectory() as d:
            src = os.path.join(d, "fixture.h")
            with open(src, "w", encoding="utf-8") as fh:
                fh.write(source)
            argv = ["--clang=off", *extra_args]
            if allow_text is not None:
                allow = os.path.join(d, "allow.txt")
                rel = lintlib.repo_relative(src)
                with open(allow, "w", encoding="utf-8") as fh:
                    fh.write(allow_text.replace("@SRC@", rel))
                argv += ["--allowlist", allow]
            else:
                argv += ["--allowlist", os.path.join(d, "missing.txt")]
            argv.append(src)
            return locktree.main(argv)

    def find_line(self, source, needle, offset=0):
        for i, line in enumerate(source.splitlines(), 1):
            if needle in line:
                return i + offset
        raise AssertionError(f"{needle!r} not in fixture")

    def test_clean_tree_exits_zero(self):
        self.assertEqual(self.run_main(self.CLEAN), 0)

    def test_violation_exits_one(self):
        self.assertEqual(self.run_main(self.INVERTED), 1)

    def test_allowlisted_violation_exits_zero(self):
        line = self.find_line(self.INVERTED, "MutexLock b(&lo_)")
        self.assertEqual(
            self.run_main(self.INVERTED,
                          allow_text=f"@SRC@:{line}:lock-order\n"), 0)

    def test_stale_allowlist_entry_exits_one(self):
        self.assertEqual(
            self.run_main(self.CLEAN, allow_text="@SRC@:999:lock-order\n"), 1)

    def test_lock_cycle_cannot_be_allowlisted(self):
        # Even with every finding's location allowlisted, the cycle fails
        # the run (and the entries for it are reported as unusable).
        allow = "\n".join(f"@SRC@:{i}:lock-cycle" for i in range(1, 20))
        allow += "\n" + "\n".join(f"@SRC@:{i}:lock-order"
                                  for i in range(1, 20)) + "\n"
        self.assertEqual(self.run_main(self.CYCLIC, allow_text=allow), 1)

    def test_missing_path_exits_two(self):
        self.assertEqual(
            locktree.main(["--clang=off", "/nonexistent/nope"]), 2)

    def test_malformed_allowlist_exits_two(self):
        self.assertEqual(
            self.run_main(self.CLEAN, allow_text="not-a-valid-entry\n"), 2)

    def test_dump_prints_hierarchy(self):
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.run_main(self.CLEAN, extra_args=("--dump",))
        self.assertEqual(code, 0)
        self.assertIn("level  10", out.getvalue())
        self.assertIn("Pipe::lo_", out.getvalue())


class SharedInfraTest(unittest.TestCase):
    def test_locktree_uses_lintlib(self):
        self.assertIs(locktree.load_allowlist, lintlib.load_allowlist)
        self.assertIs(locktree.strip_code, lintlib.strip_code)
        self.assertIs(locktree.Violation, lintlib.Violation)


if __name__ == "__main__":
    unittest.main()
