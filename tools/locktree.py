#!/usr/bin/env python3
"""locktree: countlib's whole-program lock-hierarchy and blocking-contract
analyzer. Clang's thread-safety analysis is function-local — it proves each
function honors its GUARDED_BY/REQUIRES contracts but cannot see that two
functions acquire two mutexes in opposite orders, or that a park is
reachable four calls below a held lock. locktree closes that gap: it builds
the global mutex-acquisition graph and the transitive call graph over src/
and enforces three whole-program contracts.

Rules (names are stable; the allowlist references them):

  unleveled-mutex    Every ``countlib::Mutex`` declaration must carry a
                     ``LOCK_LEVEL(n)`` annotation (util/thread_annotations.h).
                     The level table lives in docs/concurrency.md; the
                     hierarchy invariant is "while holding a level-L mutex,
                     acquire only strictly greater levels".

  unknown-mutex      A ``MutexLock lock(&expr);`` site whose mutex could not
                     be resolved to a declaration (see Resolution below).
                     Unresolved sites are unauditable, so they fail.

  lock-order         An acquisition (direct, or transitive through the call
                     graph) of mutex B while mutex A is held, where
                     level(B) <= level(A). Equal levels are an inversion
                     too: two same-level mutexes may never nest, and
                     A == B is a self-deadlock on this non-reentrant Mutex.

  lock-cycle         A cycle in the mutex-acquisition graph. With every
                     edge level-increasing this cannot happen; the check
                     exists so allowlisted inversions can never silently
                     combine into a deadlockable cycle — cycles are not
                     allowlistable.

  park-under-lock    A blocking call — ``EventCount::ParkOne``/``ParkUntil``,
                     ``std::thread::join``, or one of the blocking pipeline
                     APIs (Submit, SubmitBatch, Flush, Drain,
                     AcquireProducerSlot) — is reachable, directly or
                     transitively, while any
                     countlib::Mutex is held. Parking under a lock turns a
                     bounded critical section into an unbounded one and is
                     one missed notify away from deadlock.

  hotpath-blocking   A function tagged ``// HOTPATH`` (conclint already
                     bans allocation there) transitively reaches a blocking
                     call. The hot path may take leveled locks (that is
                     governed by lock-order) but may never sleep.

Engine: a self-contained syntactic analysis built on tools/lintlib.py's
strip_code — it tracks brace scopes, class/function/lambda contexts,
MutexLock lifetimes (RAII release at scope exit), and REQUIRES annotations,
then runs a fixpoint over a name-resolved call graph. When the python
``clang`` bindings and a ``compile_commands.json`` are available (the CI
static-analysis lane installs the libclang wheel), an AST cross-check pass
additionally verifies that every LOCK_LEVEL annotation survives into the
clang AST as an ``annotate("countlib::lock_level=N")`` attribute and that
the AST sees no countlib::Mutex field the syntactic table missed
(rules clang-unleveled / clang-level-mismatch). The syntactic engine is
authoritative; the AST pass is a consistency check, so the tool runs on
any toolchain.

Resolution of ``MutexLock lock(&expr)`` / ``REQUIRES(expr)`` sites, in
order: (1) a member of the enclosing method's class; (2) a member of the
receiver's type when the receiver is a local reference or a member with a
parseable type (``Stripe& stripe = ...; ... &stripe.mu``); (3) a local
mutex declared in the enclosing function (lambdas see the enclosing
function's locals — they capture by reference); (4) the unique declaration
with that name visible through the ``#include`` graph; (5) the unique
declaration with that name anywhere in the linted set. Anything else is
unknown-mutex.

Known limits (deliberate, documented in docs/concurrency.md): calls
through std::function/function pointers are invisible (the runtime TSAN
lock-hierarchy test covers the gauge-callback edges), lambdas are analyzed
as separate functions and never inherit the creating scope's held set
(they may outlive it), and templates are analyzed as written, not per
instantiation.

Allowlist: ``tools/locktree_allow.txt``, one ``path:line:rule`` entry per
line — format, matching, and stale-entry discipline shared with conclint
via tools/lintlib.py. lock-cycle findings are never allowlistable.

Usage:
  tools/locktree.py [paths...] [--allowlist tools/locktree_allow.txt]
                    [--dump] [--clang {auto,on,off}]
                    [--compile-commands build]

Exit status: 0 = clean, 1 = violations found, 2 = bad invocation.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from lintlib import (REPO_ROOT, Violation, apply_allowlist, collect_files,
                     load_allowlist, repo_relative, strip_code)

# Blocking primitives: a direct call to one of these is a blocking call no
# matter what the receiver resolves to.
PARK_PRIMITIVES = ("ParkOne", "ParkUntil")
# std::thread::join — only counted as a method call (obj.join()).
JOIN_METHOD = "join"
# Blocking-by-contract pipeline APIs (docs/concurrency.md): calls to these
# names count as blocking even when the callee's body is outside the
# linted set (partial runs, fixture tests).
BLOCKING_CONTRACT_METHODS = ("Submit", "SubmitBatch", "Flush", "Drain",
                             "AcquireProducerSlot")

# Call-shaped tokens that are never calls we care about.
CALL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "static_assert", "defined", "noexcept", "assert",
    "MutexLock", "LOCK_LEVEL", "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES",
    "ACQUIRE", "RELEASE", "EXCLUDES", "CAPABILITY", "SCOPED_CAPABILITY",
    "COUNTLIB_RETURN_NOT_OK", "COUNTLIB_ASSIGN_OR_RETURN",
))

SCOPE_KEYWORDS = frozenset(("if", "for", "while", "switch", "catch", "else",
                            "do", "try"))

MUTEX_DECL_RE = re.compile(
    r"\bMutex\s+(\w+)\s*(?:LOCK_LEVEL\s*\(\s*(\d+)\s*\))?\s*$")
ACQUIRE_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*&\s*([\w.>\-\[\]]+)\s*\)")
CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*)\s*(?:\[[^\[\]]*\]\s*)?(?:\.|->)\s*)?"
    r"([A-Za-z_]\w*)\s*\(")
REQUIRES_RE = re.compile(r"\bREQUIRES\s*\(([^()]*)\)")
LOCAL_REF_RE = re.compile(
    r"\b(?:\w+::)*([A-Z]\w*)\s*[&*]{1,2}\s*(\w+)\s*[=:;,)]")
TEMPLATE_MEMBER_RE = re.compile(
    r"<\s*(?:\w+::)*([A-Z]\w*)(?:\[\])?\s*>+\s+(\w+)\b")
PLAIN_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+|const\s+|static\s+)*(?:\w+::)*([A-Z]\w*)"
    r"\s*[&*]?\s+(\w+)\s*$")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
HOTPATH_TAG_RE = re.compile(r"^\s*//+\s*HOTPATH\b")
LAMBDA_INTRO_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^{}]*\))?\s*"
    r"(?:mutable\b|noexcept\b|constexpr\b|->\s*[\w:<>&*,\s]+)*\s*$")
CLASS_HEAD_RE = re.compile(
    r"^(?:template\s*<[^{}]*>\s*)?(?:class|struct|union)\b")
ENUM_RE = re.compile(r"\benum\b")
IDENT_RE = re.compile(r"[A-Za-z_][\w:~]*$")


class MutexDecl:
    """One ``Mutex name LOCK_LEVEL(n);`` declaration site."""

    def __init__(self, path, line, name, cls, func, level):
        self.path = path
        self.line = line
        self.name = name
        self.cls = cls      # innermost enclosing class, or None
        self.func = func    # enclosing function qual-name for locals, or None
        self.level = level  # int, or None when unleveled

    @property
    def display(self):
        owner = self.cls or (self.func and f"{self.func}()") or None
        return f"{owner}::{self.name}" if owner else self.name

    def __repr__(self):
        return f"{self.display}@{self.path}:{self.line}"


class Site:
    """An acquisition or call site inside a function body."""

    def __init__(self, line, held):
        self.line = line
        self.held = tuple(held)  # raw exprs at parse time; MutexDecls after
        #                          resolve()


class AcquireSite(Site):
    def __init__(self, line, held, expr):
        super().__init__(line, held)
        self.expr = expr     # raw text inside MutexLock(&...)
        self.decl = None     # resolved MutexDecl


class CallSite(Site):
    def __init__(self, line, held, obj, name, arity=None):
        super().__init__(line, held)
        self.obj = obj       # receiver identifier, or None
        self.name = name     # callee identifier
        self.arity = arity   # argument count, or None when unparseable


class FunctionDef:
    def __init__(self, path, cls, name, header_line, is_lambda=False):
        self.path = path
        self.cls = cls            # class name, or None
        self.name = name          # unqualified
        self.header_line = header_line  # 0-based line of the header start
        self.is_lambda = is_lambda
        self.acquires = []        # [AcquireSite]
        self.calls = []           # [CallSite]
        self.requires = []        # raw mutex names from REQUIRES(...)
        self.required_decls = []  # resolved MutexDecls
        self.local_types = {}     # var -> type name (reference locals)
        self.local_mutexes = {}   # name -> MutexDecl (function-local)
        self.arity_min = None     # parameter-count range, or None unknown
        self.arity_max = None
        self.hotpath = False
        # Filled by the fixpoint passes:
        self.may_acquire = set()  # transitive set of MutexDecls
        self.blocking = None      # (kind, line, what) witness, or None

    @property
    def qual(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name


class Model:
    def __init__(self):
        self.mutexes = []           # [MutexDecl]
        self.functions = []         # [FunctionDef]
        self.includes = {}          # path -> set(paths) (direct)
        self.requires_decls = {}    # (cls, method) -> [mutex names]
        self.hotpath_tags = []      # [(path, 0-based line)]
        self.class_members = {}     # cls -> {name: MutexDecl}
        self.member_types = {}      # cls -> {member: type name}
        self.class_files = {}       # cls -> set(paths declaring it)
        self.visible = {}           # path -> transitive include closure
        self.paths = set()
        self.edges = []


class _Scope:
    def __init__(self, kind, name, paren_base, function):
        self.kind = kind            # namespace|class|function|lambda|block
        self.name = name
        self.paren_base = paren_base
        self.function = function    # FunctionDef owning this scope, or None
        self.locks = []             # AcquireSites taken in this scope


class _Buffer:
    """Accumulates statement/header text with a per-character line map."""

    def __init__(self):
        self.chars = []
        self.lines = []

    def add(self, ch, line):
        self.chars.append(ch)
        self.lines.append(line)

    @property
    def text(self):
        return "".join(self.chars)

    def line_at(self, offset):
        return self.lines[offset] if self.lines else 0

    def first_line(self):
        for i, c in enumerate(self.chars):
            if not c.isspace():
                return self.lines[i]
        return None

    def clear(self):
        self.chars = []
        self.lines = []


def _blank_preprocessor(code_lines):
    """Blanks preprocessor directives (with continuations) so #define
    bodies never parse as code."""
    out = list(code_lines)
    i = 0
    while i < len(out):
        if out[i].lstrip().startswith("#"):
            while True:
                cont = out[i].rstrip().endswith("\\")
                out[i] = ""
                i += 1
                if not cont or i >= len(out):
                    break
        else:
            i += 1
    return out


def _extract_parens_name(header):
    """For a function-like header, returns (name, rest-after-arg-list,
    arg-list-text) or (None, None, None). The name is the qualified
    identifier before the first top-level '(' whose group balances within
    the header."""
    depth = 0
    start = None
    for i, c in enumerate(header):
        if c == "(":
            if depth == 0 and start is None:
                start = i
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0 and start is not None:
                before = header[:start].rstrip()
                m = IDENT_RE.search(before)
                return ((m.group(0) if m else None), header[i + 1:],
                        header[start + 1:i])
    return None, None, None


def _split_top_level(text):
    """Splits on commas at zero ()/[]/{} nesting depth."""
    parts = []
    depth = 0
    cur = []
    for c in text:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def _param_range(args_text):
    """(min, max) parameter counts for a definition's arg list."""
    text = args_text.strip()
    if not text or text == "void":
        return 0, 0
    parts = _split_top_level(text)
    if any("..." in p for p in parts):
        return 0, 1 << 20
    maximum = len(parts)
    minimum = maximum - sum(1 for p in parts if "=" in p)
    return minimum, maximum


def _call_arity(text, open_paren):
    """Argument count of the call whose '(' is at `open_paren` in `text`,
    or None when the group does not balance within the text (e.g. it was
    split by a lambda body)."""
    depth = 0
    for i in range(open_paren, len(text)):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                inner = text[open_paren + 1:i].strip()
                if not inner:
                    return 0
                return len(_split_top_level(inner))
    return None


_REST_OK_RE = re.compile(
    r"^\s*(?:(?:const|noexcept|override|final|mutable|&&?|->\s*[\w:<>&*\s]+"
    r"|REQUIRES\s*\([^()]*\)|EXCLUDES\s*\([^()]*\)|ACQUIRE\s*\([^()]*\)"
    r"|RELEASE\s*\([^()]*\)|NO_THREAD_SAFETY_ANALYSIS)\s*)*"
    r"(?::.*)?$", re.DOTALL)


def _classify_scope(header):
    """Classifies the '{' that follows `header`. Returns (kind, name)."""
    stripped = header.strip()
    first = re.match(r"[A-Za-z_]\w*", stripped)
    first_word = first.group(0) if first else None
    if not stripped or first_word in SCOPE_KEYWORDS:
        return "block", None
    if LAMBDA_INTRO_RE.search(stripped):
        return "lambda", None
    if re.search(r"\bnamespace\b", stripped):
        return "namespace", None
    if ENUM_RE.search(stripped):
        return "block", None
    if CLASS_HEAD_RE.match(stripped):
        # `class [attributes] Name [: bases]` — name = last identifier
        # before the base clause.
        body = stripped
        colon = re.search(r"(?<!:):(?!:)", body)
        if colon:
            body = body[:colon.start()]
        idents = re.findall(r"[A-Za-z_]\w*", body)
        idents = [w for w in idents
                  if w not in ("template", "typename", "class", "struct",
                               "union", "final", "public", "private",
                               "protected", "alignas")]
        if idents:
            return "class", idents[-1]
        return "block", None
    name, rest, args_text = _extract_parens_name(header)
    if name is not None and rest is not None and _REST_OK_RE.match(rest):
        if name.split("::")[-1] not in CALL_KEYWORDS:
            return "function", (name, args_text)
    if name is None and "(" in stripped and "operator" in stripped:
        return "function", (None, args_text)   # anonymous operator overload
    # Unbalanced parens (expression brace), aggregate initializers, etc.
    return "block", None


def parse_source(path, text, model):
    """Parses one file into `model`. `path` is repo-relative POSIX."""
    model.paths.add(path)
    raw_lines = text.splitlines()
    code, comments = strip_code(raw_lines)
    code = _blank_preprocessor(code)

    includes = set()
    for line in raw_lines:
        m = INCLUDE_RE.match(line)
        if m:
            includes.add("src/" + m.group(1))
    model.includes[path] = includes

    for i, comment in enumerate(comments):
        if HOTPATH_TAG_RE.match(comment.strip()) and code[i].strip() == "":
            model.hotpath_tags.append((path, i))

    scopes = []           # stack of _Scope
    buf = _Buffer()
    paren_depth = 0

    def current_function():
        for s in reversed(scopes):
            if s.kind in ("function", "lambda"):
                return s.function
            if s.kind == "class":
                return None
        return None

    def current_class():
        for s in reversed(scopes):
            if s.kind == "class":
                return s.name
            if s.kind in ("function", "lambda"):
                return None
        return None

    def held_now():
        fn = current_function()
        if fn is None:
            return []
        held = []
        for s in reversed(scopes):
            held.extend(s.locks)
            if s.kind in ("function", "lambda"):
                break
        return held

    def extract_types(text, fn):
        if fn is None:
            return
        for m in LOCAL_REF_RE.finditer(text):
            fn.local_types.setdefault(m.group(2), m.group(1))

    def scan_calls(text_buf, fn, end=None):
        if fn is None:
            return
        text = text_buf.text if end is None else text_buf.text[:end]
        held = [s.expr for s in held_now()]
        for m in CALL_RE.finditer(text):
            name = m.group(2)
            if name in CALL_KEYWORDS:
                continue
            line = text_buf.line_at(m.start(2)) + 1
            arity = _call_arity(text_buf.text, m.end() - 1)
            fn.calls.append(CallSite(line, held, m.group(1), name, arity))

    def process_statement(text_buf, closing=False):
        fn = current_function()
        cls = current_class()
        text = text_buf.text
        if not text.strip():
            text_buf.clear()
            return
        # Mutex declarations (members, locals, globals).
        dm = MUTEX_DECL_RE.search(text)
        if dm and path != "src/util/mutex.h":
            line = text_buf.line_at(dm.start(1)) + 1
            level = int(dm.group(2)) if dm.group(2) else None
            decl = MutexDecl(path, line, dm.group(1), cls,
                             fn.qual if fn else None, level)
            model.mutexes.append(decl)
            if cls:
                model.class_members.setdefault(cls, {})[decl.name] = decl
            if fn:
                fn.local_mutexes[decl.name] = decl
            text_buf.clear()
            return
        if fn is None and cls is not None:
            # Member types, for receiver-based call/mutex resolution.
            types = model.member_types.setdefault(cls, {})
            before_attr = re.split(
                r"\b(?:GUARDED_BY|PT_GUARDED_BY|LOCK_LEVEL)\b",
                text.strip())[0].rstrip().rstrip("=0{} \t\n")
            tm = TEMPLATE_MEMBER_RE.search(before_attr)
            if tm:
                types.setdefault(tm.group(2), tm.group(1))
            else:
                pm = PLAIN_MEMBER_RE.match(before_attr)
                if pm:
                    types.setdefault(pm.group(2), pm.group(1))
            # REQUIRES on in-class method declarations.
            rq = REQUIRES_RE.search(text)
            if rq:
                cm = re.search(r"([A-Za-z_]\w*)\s*\(", text)
                if cm and cm.group(1) not in CALL_KEYWORDS:
                    names = [n.strip().lstrip("!") for n in
                             rq.group(1).split(",") if n.strip()]
                    model.requires_decls[(cls, cm.group(1))] = names
        if fn is None:
            text_buf.clear()
            return
        extract_types(text, fn)
        # Calls first (with the pre-acquisition held set), then the
        # acquisition takes effect. Per-statement granularity is fine for
        # this codebase: nothing acquires and calls in one statement.
        am = ACQUIRE_RE.search(text)
        scan_calls(text_buf, fn)
        if am:
            line = text_buf.line_at(am.start(1)) + 1
            site = AcquireSite(line, [s.expr for s in held_now()],
                               am.group(1))
            fn.acquires.append(site)
            if not closing and scopes:
                scopes[-1].locks.append(site)
        text_buf.clear()

    def open_scope(line_idx):
        kind, name = _classify_scope(buf.text)
        fn = None
        if kind == "lambda":
            # The text before the lambda intro belongs to the enclosing
            # function (e.g. `ec_.ParkOne(epoch, [this] {`).
            intro = LAMBDA_INTRO_RE.search(buf.text)
            outer = current_function()
            scan_calls(buf, outer, end=intro.start())
            fn = FunctionDef(path, outer.cls if outer else current_class(),
                             f"{outer.name if outer else '<file>'}"
                             f"::<lambda:{line_idx + 1}>",
                             buf.first_line() if buf.first_line() is not None
                             else line_idx, is_lambda=True)
            fn.enclosing = outer
            model.functions.append(fn)
        elif kind == "function":
            name, args_text = name
            cls = current_class()
            if name is None:
                name = f"<operator:{line_idx + 1}>"
            if "::" in name:
                parts = [p for p in name.split("::") if p]
                if len(parts) >= 2:
                    cls, name = parts[-2], parts[-1]
                else:
                    name = parts[-1]
            fn = FunctionDef(path, cls, name,
                             buf.first_line() if buf.first_line() is not None
                             else line_idx)
            fn.enclosing = None
            if args_text is not None:
                fn.arity_min, fn.arity_max = _param_range(args_text)
                extract_types(args_text, fn)
            rq = REQUIRES_RE.search(buf.text)
            if rq:
                fn.requires = [n.strip().lstrip("!") for n in
                               rq.group(1).split(",") if n.strip()]
            model.functions.append(fn)
        elif kind == "class":
            model.class_files.setdefault(name, set()).add(path)
        elif kind == "block":
            scan_calls(buf, current_function())
            extract_types(buf.text, current_function())
        scopes.append(_Scope(kind, name, paren_depth, fn))
        buf.clear()

    def close_scope():
        if buf.text.strip():
            process_statement(buf, closing=True)
        buf.clear()
        if scopes:
            scopes.pop()

    for i, line in enumerate(code):
        for ch in line:
            if ch == "{":
                open_scope(i)
            elif ch == "}":
                close_scope()
            elif ch == "(":
                paren_depth += 1
                buf.add(ch, i)
            elif ch == ")":
                paren_depth = max(0, paren_depth - 1)
                buf.add(ch, i)
            elif ch == ";":
                base = scopes[-1].paren_base if scopes else 0
                if paren_depth <= base:
                    process_statement(buf)
                else:
                    buf.add(ch, i)
            else:
                buf.add(ch, i)
        buf.add("\n", i)


def _transitive_includes(model):
    closure = {}
    for path in model.paths:
        seen = set()
        stack = [path]
        while stack:
            p = stack.pop()
            for inc in model.includes.get(p, ()):
                if inc in model.paths and inc not in seen:
                    seen.add(inc)
                    stack.append(inc)
        closure[path] = seen
    return closure


def _receiver_type(model, fn, obj):
    """Best-effort static type of a call/field receiver identifier."""
    if obj is None:
        return None
    typ = fn.local_types.get(obj)
    if typ:
        return typ
    if fn.is_lambda and getattr(fn, "enclosing", None) is not None:
        typ = fn.enclosing.local_types.get(obj)
        if typ:
            return typ
    found = {types[obj] for types in model.member_types.values()
             if obj in types}
    if len(found) == 1:
        return found.pop()
    return None


def resolve(model):
    """Resolves acquisition/REQUIRES sites to MutexDecls and binds HOTPATH
    tags. Returns unleveled-mutex / unknown-mutex violations."""
    out = []
    by_name = {}
    for decl in model.mutexes:
        by_name.setdefault(decl.name, []).append(decl)
        if decl.level is None:
            out.append(Violation(
                decl.path, decl.line, "unleveled-mutex",
                f"countlib::Mutex '{decl.display}' has no LOCK_LEVEL(n) "
                f"annotation — assign it a level in the docs/concurrency.md "
                f"hierarchy table"))
    includes = _transitive_includes(model)

    def resolve_expr(fn, expr):
        # expr like `mu_`, `stripe.mu`, `state->mu`, `error_mutex`.
        parts = re.split(r"\.|->", expr)
        member = re.sub(r"\[[^\]]*\]", "", parts[-1]).strip()
        obj = re.sub(r"\[[^\]]*\]", "", parts[-2]).strip() if len(parts) > 1 \
            else None
        # (1) member of the enclosing method's class (only for unqualified
        # or this-qualified expressions).
        if obj in (None, "this") and fn.cls:
            decl = model.class_members.get(fn.cls, {}).get(member)
            if decl:
                return decl
        # (2) member of the receiver's parseable type.
        if obj:
            typ = _receiver_type(model, fn, obj)
            if typ:
                decl = model.class_members.get(typ, {}).get(member)
                if decl:
                    return decl
        # (3) a local mutex in this function (lambdas see the enclosing
        # function's locals — they capture by reference).
        decl = fn.local_mutexes.get(member)
        if decl:
            return decl
        walk = getattr(fn, "enclosing", None)
        while walk is not None:
            decl = walk.local_mutexes.get(member)
            if decl:
                return decl
            walk = getattr(walk, "enclosing", None)
        # (4) unique through the include graph.
        cands = by_name.get(member, [])
        visible = [d for d in cands
                   if d.path == fn.path or d.path in includes.get(fn.path,
                                                                  ())]
        if len(visible) == 1:
            return visible[0]
        # (5) unique globally.
        if len(cands) == 1:
            return cands[0]
        return None

    for fn in model.functions:
        req_names = list(fn.requires)
        if fn.cls:
            req_names += model.requires_decls.get((fn.cls, fn.name), [])
        for name in dict.fromkeys(req_names):
            decl = resolve_expr(fn, name)
            if decl:
                fn.required_decls.append(decl)
        for site in fn.acquires:
            site.decl = resolve_expr(fn, site.expr)
            if site.decl is None:
                out.append(Violation(
                    fn.path, site.line, "unknown-mutex",
                    f"cannot resolve MutexLock target '&{site.expr}' in "
                    f"{fn.qual} to a Mutex declaration"))
        # Held sets were recorded as raw exprs during parsing; resolve
        # them and prepend the REQUIRES-held mutexes.
        for site in fn.acquires + fn.calls:
            held = []
            for expr in site.held:
                decl = resolve_expr(fn, expr)
                if decl:
                    held.append(decl)
            site.held = tuple(dict.fromkeys(
                list(fn.required_decls) + held))

    # Bind each HOTPATH tag to the next function at or below the tag line.
    for path, tag_line in model.hotpath_tags:
        best = None
        for fn in model.functions:
            if fn.path == path and fn.header_line >= tag_line:
                if best is None or fn.header_line < best.header_line:
                    best = fn
        if best is not None:
            best.hotpath = True
    return out


def _index_by_uname(model):
    by_uname = {}
    for g in model.functions:
        if not g.is_lambda:
            by_uname.setdefault(g.name, []).append(g)
    return by_uname


def _call_candidates(model, fn, site, by_uname):
    """Functions a call site may dispatch to (name-resolved; conservative
    over-approximation when the receiver cannot be typed)."""
    cands = by_uname.get(site.name, [])
    if not cands:
        return cands
    # Receiver narrowing: `this->`/unqualified calls prefer the enclosing
    # class; a typed receiver pins the callee's class.
    if site.obj and site.obj != "this":
        typ = _receiver_type(model, fn, site.obj)
        if typ:
            typed = [g for g in cands if g.cls == typ]
            if typed:
                cands = typed
    elif fn.cls:
        same = [g for g in cands if g.cls == fn.cls]
        if same:
            cands = same
    # Methods of classes whose declaring file is not in the caller's include
    # closure cannot be the callee (free functions are exempt: forward
    # declarations make them reachable without an include edge we can see).
    visible = model.visible.get(fn.path, set()) | {fn.path}
    seen_from = [g for g in cands
                 if g.cls is None or g.path in visible or
                 (model.class_files.get(g.cls, set()) & visible)]
    if seen_from:
        cands = seen_from
    # Arity pruning: a call with N args cannot dispatch to an overload whose
    # parameter count range excludes N.
    if site.arity is not None:
        fits = [g for g in cands
                if g.arity_min is None or
                g.arity_min <= site.arity <= g.arity_max]
        if fits:
            cands = fits
    return cands


def compute_summaries(model):
    """Fixpoint over the call graph: each function's transitive may-acquire
    set and blocking witness."""
    by_uname = _index_by_uname(model)
    model.visible = _transitive_includes(model)
    for fn in model.functions:
        fn.may_acquire = {s.decl for s in fn.acquires if s.decl}
        fn.blocking = None
        for site in fn.calls:
            if site.name in PARK_PRIMITIVES:
                fn.blocking = fn.blocking or ("park", site.line, site.name)
            elif site.name == JOIN_METHOD and site.obj is not None:
                fn.blocking = fn.blocking or ("join", site.line,
                                              f"{site.obj}.join")
            elif site.name in BLOCKING_CONTRACT_METHODS:
                fn.blocking = fn.blocking or ("api", site.line, site.name)
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            for site in fn.calls:
                for g in _call_candidates(model, fn, site, by_uname):
                    if g is fn:
                        continue
                    if not g.may_acquire <= fn.may_acquire:
                        fn.may_acquire |= g.may_acquire
                        changed = True
                    if g.blocking and not fn.blocking:
                        fn.blocking = ("call", site.line,
                                       f"{site.name} -> {g.qual}")
                        changed = True
    return by_uname


def collect_edges(model, by_uname):
    """All (held, acquired, path, line, via) acquired-while-held edges."""
    edges = []
    for fn in model.functions:
        for site in fn.acquires:
            if site.decl is None:
                continue
            for h in site.held:
                edges.append((h, site.decl, fn.path, site.line, None))
        for site in fn.calls:
            if not site.held:
                continue
            acquired = set()
            for g in _call_candidates(model, fn, site, by_uname):
                if g is not fn:
                    acquired |= g.may_acquire
            for a in acquired:
                for h in site.held:
                    edges.append((h, a, fn.path, site.line, site.name))
    return edges


def check_lock_order(model, edges):
    out = []
    seen = set()
    adj = {}
    for h, a, path, line, via in edges:
        if h is not a:
            # Self-edges stay out of the cycle graph: re-acquisition is
            # reported below (even for unleveled mutexes), and a trivial
            # one-node "cycle" would only duplicate that finding.
            adj.setdefault(h, set()).add(a)
        if h is not a and (h.level is None or a.level is None):
            continue  # unleveled-mutex is already reported at the decl
        if h is not a and a.level > h.level:
            continue
        key = (path, line, h, a)
        if key in seen:
            continue
        seen.add(key)
        via_txt = f" (via call to '{via}')" if via else ""
        if h is a:
            msg = (f"re-acquires '{h.display}' (level {h.level}) while "
                   f"already holding it{via_txt} — countlib::Mutex is not "
                   f"reentrant")
        else:
            msg = (f"acquires '{a.display}' (level {a.level}) while holding "
                   f"'{h.display}' (level {h.level}){via_txt} — the lock "
                   f"hierarchy requires strictly increasing levels")
        out.append(Violation(path, line, "lock-order", msg))
    # Cycle check over the acquired-while-held graph, independent of
    # levels, so allowlisted inversions can never combine into a deadlock.
    color = {}
    stack = []

    def dfs(node):
        color[node] = 1
        stack.append(node)
        for nxt in sorted(adj.get(node, ()), key=lambda d: (d.path, d.line)):
            if color.get(nxt, 0) == 0:
                cyc = dfs(nxt)
                if cyc:
                    return cyc
            elif color.get(nxt) == 1:
                return stack[stack.index(nxt):] + [nxt]
        color[node] = 2
        stack.pop()
        return None

    for node in sorted(adj, key=lambda d: (d.path, d.line)):
        if color.get(node, 0) == 0:
            del stack[:]
            cyc = dfs(node)
            if cyc:
                names = " -> ".join(d.display for d in cyc)
                out.append(Violation(
                    cyc[0].path, cyc[0].line, "lock-cycle",
                    f"mutex-acquisition cycle: {names} — deadlockable; "
                    f"lock-cycle findings cannot be allowlisted"))
                break
    return out


def _blocking_witness(model, fn, site, by_uname):
    if site.name in PARK_PRIMITIVES:
        return f"'{site.name}'"
    if site.name == JOIN_METHOD and site.obj is not None:
        return f"'{site.obj}.join()'"
    if site.name in BLOCKING_CONTRACT_METHODS:
        return f"blocking API '{site.name}'"
    for g in _call_candidates(model, fn, site, by_uname):
        if g is not fn and g.blocking:
            return (f"'{site.name}' -> {g.qual} ({g.blocking[0]} at "
                    f"{g.path}:{g.blocking[1]})")
    return None


def check_park_under_lock(model, by_uname):
    out = []
    seen = set()
    for fn in model.functions:
        for site in fn.calls:
            if not site.held:
                continue
            witness = _blocking_witness(model, fn, site, by_uname)
            if witness is None:
                continue
            key = (fn.path, site.line)
            if key in seen:
                continue
            seen.add(key)
            held_txt = ", ".join(
                f"'{h.display}' (level {h.level})" for h in site.held)
            out.append(Violation(
                fn.path, site.line, "park-under-lock",
                f"blocking call {witness} reachable while holding "
                f"{held_txt} — park/join only with no countlib::Mutex "
                f"held"))
    return out


def check_hotpath_blocking(model, by_uname):
    out = []
    seen = set()
    for fn in model.functions:
        if not fn.hotpath:
            continue
        for site in fn.calls:
            witness = _blocking_witness(model, fn, site, by_uname)
            if witness is None:
                continue
            key = (fn.path, site.line)
            if key in seen:
                continue
            seen.add(key)
            out.append(Violation(
                fn.path, site.line, "hotpath-blocking",
                f"`// HOTPATH` function {fn.qual} reaches blocking call "
                f"{witness} — the hot path must never block"))
    return out


def analyze_texts(files):
    """Full analysis over [(repo-relative path, text)]. Returns (model,
    violations) — the core entry point; main() and the tests both use it."""
    model = Model()
    for path, text in files:
        parse_source(path, text, model)
    violations = resolve(model)
    by_uname = compute_summaries(model)
    edges = collect_edges(model, by_uname)
    violations += check_lock_order(model, edges)
    violations += check_park_under_lock(model, by_uname)
    violations += check_hotpath_blocking(model, by_uname)
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    model.edges = edges
    return model, violations


def dump_graph(model):
    print("mutex hierarchy:")
    for d in sorted(model.mutexes, key=lambda d: (d.level is None,
                                                  d.level or 0)):
        level = "?" if d.level is None else d.level
        print(f"  level {level:>3}  {d.display:<40} {d.path}:{d.line}")
    printed = set()
    print("acquired-while-held edges:")
    for h, a, path, line, via in model.edges:
        key = (h, a)
        if key in printed:
            continue
        printed.add(key)
        via_txt = f" via {via}()" if via else ""
        print(f"  {h.display} (L{h.level}) -> {a.display} (L{a.level})"
              f"{via_txt}  [{path}:{line}]")


def clang_cross_check(cc_files, model, compile_commands_dir):
    """Best-effort AST pass over the clang python bindings: verifies every
    syntactically-parsed LOCK_LEVEL survives into the AST annotate
    attribute and that the AST sees no countlib::Mutex the table missed.
    Returns (violations, note); never raises."""
    try:
        import clang.cindex as ci
    except Exception as e:  # module absent or libclang.so missing
        return [], f"libclang unavailable ({e.__class__.__name__})"
    out = []
    try:
        index = ci.Index.create()
        db = ci.CompilationDatabase.fromDirectory(compile_commands_dir)
        table = {(d.path, d.line): d for d in model.mutexes}
        seen_tus = 0
        for absolute in cc_files:
            cmds = db.getCompileCommands(absolute)
            if not cmds:
                continue
            args = []
            skip_next = False
            for a in list(cmds[0].arguments)[1:]:
                if skip_next:
                    skip_next = False
                    continue
                if a in ("-c", absolute):
                    continue
                if a == "-o":
                    skip_next = True
                    continue
                args.append(a)
            tu = index.parse(absolute, args=args)
            seen_tus += 1
            for cur in tu.cursor.walk_preorder():
                if cur.kind not in (ci.CursorKind.FIELD_DECL,
                                    ci.CursorKind.VAR_DECL):
                    continue
                if cur.type.spelling.split("::")[-1] != "Mutex":
                    continue
                loc = cur.location
                if loc.file is None:
                    continue
                rel = repo_relative(os.path.abspath(loc.file.name))
                if rel == "src/util/mutex.h" or not rel.startswith("src/"):
                    continue
                level = None
                for child in cur.get_children():
                    if child.kind == ci.CursorKind.ANNOTATE_ATTR and \
                            child.displayname.startswith(
                                "countlib::lock_level="):
                        level = int(child.displayname.split("=", 1)[1])
                decl = table.get((rel, loc.line))
                if decl is None:
                    out.append(Violation(
                        rel, loc.line, "clang-unleveled",
                        f"AST sees countlib::Mutex '{cur.spelling}' that "
                        f"the syntactic table missed"))
                elif level is not None and decl.level != level:
                    out.append(Violation(
                        rel, loc.line, "clang-level-mismatch",
                        f"AST lock level {level} != parsed LOCK_LEVEL "
                        f"{decl.level} for '{decl.display}'"))
        # De-duplicate: headers are seen once per including TU.
        uniq = {}
        for v in out:
            uniq[(v.path, v.line, v.rule)] = v
        return (sorted(uniq.values(), key=lambda v: (v.path, v.line)),
                f"AST cross-check over {seen_tus} TU(s)")
    except Exception as e:
        return [], f"AST pass failed ({e.__class__.__name__}: {e})"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="countlib lock-hierarchy & blocking-contract analyzer "
                    "(see docs/concurrency.md)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to analyze "
                             "(default: src/ under the repo root)")
    parser.add_argument("--allowlist",
                        default=os.path.join(REPO_ROOT, "tools",
                                             "locktree_allow.txt"),
                        help="path:line:rule suppression file")
    parser.add_argument("--dump", action="store_true",
                        help="print the mutex hierarchy and the "
                             "acquired-while-held edges")
    parser.add_argument("--clang", choices=("auto", "on", "off"),
                        default="auto",
                        help="AST cross-check via the python clang "
                             "bindings: auto = if importable, on = "
                             "required, off = skip")
    parser.add_argument("--compile-commands",
                        default=os.path.join(REPO_ROOT, "build"),
                        help="directory containing compile_commands.json "
                             "for the AST cross-check")
    args = parser.parse_args(argv)

    paths = args.paths if args.paths else ["src"]
    try:
        files = collect_files(paths)
    except FileNotFoundError as e:
        print(f"locktree: no such path: {e}", file=sys.stderr)
        return 2

    allow = set()
    if os.path.exists(args.allowlist):
        try:
            allow = load_allowlist(args.allowlist)
        except ValueError as e:
            print(f"locktree: {e}", file=sys.stderr)
            return 2

    inputs = []
    for absolute in files:
        rel = repo_relative(absolute)
        try:
            with open(absolute, "r", encoding="utf-8") as fh:
                inputs.append((rel, fh.read()))
        except OSError as e:
            print(f"locktree: cannot read {rel}: {e}", file=sys.stderr)
            return 2

    model, violations = analyze_texts(inputs)

    if args.clang != "off":
        cc_files = [f for f in files if f.endswith((".cc", ".cpp"))]
        clang_violations, note = clang_cross_check(
            cc_files, model, args.compile_commands)
        print(f"locktree: {note}", file=sys.stderr)
        if args.clang == "on" and "unavailable" in note:
            print("locktree: --clang=on but the bindings are missing",
                  file=sys.stderr)
            return 2
        violations += clang_violations

    if args.dump:
        dump_graph(model)

    # lock-cycle findings bypass the allowlist by design.
    cycles = [v for v in violations if v.rule == "lock-cycle"]
    rest = [v for v in violations if v.rule != "lock-cycle"]
    reported = apply_allowlist(rest, allow,
                               "tools/locktree_allow.txt") + cycles

    for v in reported:
        print(v)
    mutexes = len(model.mutexes)
    if reported:
        print(f"locktree: {len(reported)} finding(s) over {len(files)} "
              f"file(s), {mutexes} mutex(es)", file=sys.stderr)
        return 1
    print(f"locktree: clean ({len(files)} file(s), {mutexes} mutex(es), "
          f"{len({(e[0], e[1]) for e in model.edges})} lock-order edge(s))",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
