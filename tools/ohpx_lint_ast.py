#!/usr/bin/env python3
"""ohpx-lint-ast: the AST tier of ohpx-lint (concurrency + consistency).

Where tools/ohpx_lint.py is a line-oriented regex tier, this tier reasons
about scopes and cross-file contracts.  It prefers a real Clang AST: when
the `clang.cindex` bindings and a libclang are available (CI installs
both), every translation unit listed in the exported
compile_commands.json is parsed and walked.  Without libclang (e.g. a
GCC-only dev box) a conservative lexer engine checks the same rules from
stripped source text, so the tier is runnable — and self-testable —
everywhere.

Rules:

  naked-mutex        std::mutex / std::shared_mutex / std::lock_guard /
                     std::unique_lock / std::shared_lock /
                     std::scoped_lock are banned outside src/ohpx/sync/.
                     The std guards carry no thread-safety annotations
                     (invisible to -Wthread-safety) and bypass the
                     lock-order validator; declare sync::Mutex and lock
                     through sync::LockGuard / sync::UniqueLock instead.
  lock-across-send   no ohpx::sync guard may be in scope at a blocking
                     transport send (Channel::roundtrip) in the layers
                     above transport.  A lock held across a network
                     roundtrip serializes the caller on a peer's latency
                     — copy what you need under the lock, drop it, then
                     send.  src/ohpx/transport/ itself is exempt: there a
                     lock guards the transport's own fds and queues (the
                     reactor's mutex, a listener's connection set), which
                     is that lock's entire point.
  blocking-socket    global-scope blocking socket syscalls (::connect,
                     ::send, ::recv, ::read, ::write, ::accept, ::poll,
                     ::select, ::writev, ::sendmsg, ...) are banned
                     outside src/ohpx/transport/.  Everything above the
                     transport layer talks through Reactor::submit or a
                     Channel, which own nonblocking I/O, fd lifecycle
                     and the inflight-window contract; a raw blocking
                     syscall parks a caller thread the reactor cannot
                     see.
  error-consistency  cross-file contracts that no single TU sees:
                       * every ErrorCode enumerator has a name in
                         to_string (src/ohpx/common/error.cpp) and an
                         explicit verdict in is_retryable
                         (src/ohpx/resilience/retry.cpp) — whose switch
                         must stay exhaustive, with no `default:`
                       * every span/event name literal in src/ is
                         registered in src/ohpx/trace/span_names.hpp and
                         every registered name still has a call site

Usage:
  python3 tools/ohpx_lint_ast.py [--root R] [--compile-commands P]
                                 [--engine auto|libclang|regex]
  python3 tools/ohpx_lint_ast.py --self-test   # verify both engines
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ohpx_lint import strip_comments_and_strings  # noqa: E402

# ---------------------------------------------------------------------------
# shared vocabulary

BANNED_STD_SYNC = (
    "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex",
    "lock_guard", "unique_lock", "shared_lock", "scoped_lock",
)
SYNC_DIR = Path("src/ohpx/sync")
TRANSPORT_DIR = Path("src/ohpx/transport")
GUARD_RE = re.compile(r"\bsync\s*::\s*(LockGuard|UniqueLock|SharedLock)\b")
ROUNDTRIP_RE = re.compile(r"\broundtrip\s*\(")


def is_under(path: Path, root: Path, subdir: Path) -> bool:
    try:
        return path.resolve().is_relative_to((root / subdir).resolve())
    except (OSError, ValueError):
        return False


class Findings:
    """Deduplicated, deterministically ordered violation list."""

    def __init__(self, root: Path):
        self.root = root
        self._seen: set[tuple] = set()
        self.violations: list[str] = []

    def report(self, path: Path, line: int, rule: str, message: str) -> None:
        try:
            shown = path.resolve().relative_to(self.root.resolve())
        except ValueError:
            shown = path
        key = (str(shown), line, rule, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(f"{shown}:{line}: [{rule}] {message}")

    def sorted(self) -> list[str]:
        return sorted(self.violations)


# ---------------------------------------------------------------------------
# engine: regex/lexer fallback

class RegexEngine:
    """Scope-approximating lexer over stripped source text.

    Tracks brace depth to model guard lifetimes: good enough to catch a
    guard in scope at a roundtrip call, without a compiler."""

    name = "regex"

    def __init__(self, root: Path):
        self.root = root

    def source_files(self) -> list[Path]:
        src = self.root / "src"
        return sorted(src.rglob("*.hpp")) + sorted(src.rglob("*.cpp"))

    NAKED_RE = re.compile(
        r"\bstd\s*::\s*(" + "|".join(BANNED_STD_SYNC) + r")\b")

    def check_naked_mutex(self, findings: Findings) -> None:
        for source in self.source_files():
            if is_under(source, self.root, SYNC_DIR):
                continue
            clean = strip_comments_and_strings(
                source.read_text(encoding="utf-8", errors="replace"))
            for lineno, line in enumerate(clean.splitlines(), 1):
                for match in self.NAKED_RE.finditer(line):
                    findings.report(
                        source, lineno, "naked-mutex",
                        f"std::{match.group(1)} outside ohpx::sync — "
                        "declare a named sync::Mutex and lock through "
                        "sync::LockGuard/UniqueLock (annotated + "
                        "order-validated)")

    def check_lock_across_send(self, findings: Findings) -> None:
        for source in self.source_files():
            if is_under(source, self.root, TRANSPORT_DIR):
                continue
            if is_under(source, self.root, SYNC_DIR):
                continue
            clean = strip_comments_and_strings(
                source.read_text(encoding="utf-8", errors="replace"))
            depth = 0
            guards: list[tuple[int, int]] = []  # (brace depth, line)
            # One linear pass over braces, guard declarations and
            # roundtrip calls, in source order.
            events = []
            for match in re.finditer(r"[{}]", clean):
                events.append((match.start(), match.group(0), None))
            for match in GUARD_RE.finditer(clean):
                events.append((match.start(), "guard", None))
            for match in ROUNDTRIP_RE.finditer(clean):
                events.append((match.start(), "roundtrip", None))
            events.sort()
            for offset, kind, _ in events:
                lineno = clean.count("\n", 0, offset) + 1
                if kind == "{":
                    depth += 1
                elif kind == "}":
                    depth -= 1
                    while guards and guards[-1][0] > depth:
                        guards.pop()
                elif kind == "guard":
                    guards.append((depth, lineno))
                elif kind == "roundtrip" and guards:
                    findings.report(
                        source, lineno, "lock-across-send",
                        f"blocking roundtrip() with a sync guard in scope "
                        f"(acquired line {guards[-1][1]}) — copy what you "
                        "need, drop the lock, then send")


# ---------------------------------------------------------------------------
# engine: libclang

def load_cindex():
    """Returns a usable clang.cindex module, or None."""
    try:
        from clang import cindex
    except ImportError:
        return None
    candidates = [None, "libclang.so", "libclang-19.so.1", "libclang-18.so.1",
                  "libclang-17.so.1", "libclang-16.so.1", "libclang-15.so.1",
                  "libclang-14.so.1"]
    for library in candidates:
        try:
            if library is not None:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(library)
            cindex.Index.create()
            return cindex
        except Exception:  # noqa: BLE001 — try the next soname
            continue
    return None


class LibclangEngine:
    """Parses every TU in compile_commands.json and walks real ASTs."""

    name = "libclang"

    def __init__(self, root: Path, cindex, compile_commands: Path):
        self.root = root
        self.cindex = cindex
        self.commands = self._load_commands(compile_commands)
        self.index = cindex.Index.create()
        self._tus: list = []

    @staticmethod
    def _load_commands(path: Path) -> list[tuple[Path, list[str]]]:
        entries = json.loads(path.read_text(encoding="utf-8"))
        commands = []
        for entry in entries:
            file = Path(entry["file"])
            if "command" in entry:
                argv = entry["command"].split()
            else:
                argv = list(entry.get("arguments", []))
            # Keep only flags libclang understands and needs: includes,
            # defines, standard.  Drop the compiler, -c/-o pairs, and
            # warning flags.
            args, skip = [], False
            for token in argv[1:]:
                if skip:
                    skip = False
                    continue
                if token in ("-c", "-o"):
                    skip = token == "-o"
                    continue
                if token.startswith(("-I", "-D", "-std=", "-isystem")):
                    args.append(token)
            commands.append((file, args))
        return commands

    def _parse_all(self) -> list:
        if self._tus:
            return self._tus
        src = (self.root / "src").resolve()
        for file, args in self.commands:
            try:
                if not file.resolve().is_relative_to(src):
                    continue
            except (OSError, ValueError):
                continue
            tu = self.index.parse(str(file), args=args)
            self._tus.append(tu)
        return self._tus

    def _in_scope(self, location) -> Path | None:
        """The repo-src path of a cursor location, or None to skip."""
        if location.file is None:
            return None
        path = Path(location.file.name)
        try:
            if not path.resolve().is_relative_to(
                    (self.root / "src").resolve()):
                return None
        except (OSError, ValueError):
            return None
        return path

    def check_naked_mutex(self, findings: Findings) -> None:
        kinds = self.cindex.CursorKind
        interesting = (kinds.TYPE_REF, kinds.TEMPLATE_REF,
                       kinds.DECL_REF_EXPR)
        for tu in self._parse_all():
            for cursor in tu.cursor.walk_preorder():
                if cursor.kind not in interesting:
                    continue
                path = self._in_scope(cursor.location)
                if path is None or is_under(path, self.root, SYNC_DIR):
                    continue
                referenced = cursor.referenced
                if referenced is None:
                    continue
                if referenced.spelling not in BANNED_STD_SYNC:
                    continue
                parent = referenced.semantic_parent
                if parent is None or parent.spelling != "std":
                    continue
                findings.report(
                    path, cursor.location.line, "naked-mutex",
                    f"std::{referenced.spelling} outside ohpx::sync — "
                    "declare a named sync::Mutex and lock through "
                    "sync::LockGuard/UniqueLock (annotated + "
                    "order-validated)")

    def check_lock_across_send(self, findings: Findings) -> None:
        kinds = self.cindex.CursorKind
        for tu in self._parse_all():
            for cursor in tu.cursor.walk_preorder():
                if cursor.kind not in (kinds.CXX_METHOD, kinds.FUNCTION_DECL,
                                       kinds.CONSTRUCTOR, kinds.DESTRUCTOR,
                                       kinds.LAMBDA_EXPR):
                    continue
                path = self._in_scope(cursor.location)
                if (path is None
                        or is_under(path, self.root, TRANSPORT_DIR)
                        or is_under(path, self.root, SYNC_DIR)):
                    continue
                for body in cursor.get_children():
                    if body.kind == kinds.COMPOUND_STMT:
                        self._walk_scope(body, [], path, findings)

    def _walk_scope(self, node, guards: list[int], path: Path,
                    findings: Findings) -> None:
        kinds = self.cindex.CursorKind
        for child in node.get_children():
            if child.kind == kinds.DECL_STMT:
                for decl in child.get_children():
                    if (decl.kind == kinds.VAR_DECL
                            and GUARD_RE.search(decl.type.spelling or "")):
                        guards.append(decl.location.line)
                continue
            if (child.kind == kinds.CALL_EXPR
                    and child.spelling == "roundtrip" and guards):
                findings.report(
                    path, child.location.line, "lock-across-send",
                    f"blocking roundtrip() with a sync guard in scope "
                    f"(acquired line {guards[-1]}) — copy what you need, "
                    "drop the lock, then send")
            # A nested compound statement bounds the lifetime of guards
            # declared inside it; other children share this scope.
            if child.kind == kinds.COMPOUND_STMT:
                self._walk_scope(child, list(guards), path, findings)
            else:
                self._walk_scope(child, guards, path, findings)


# ---------------------------------------------------------------------------
# blocking-socket (engine-independent: a global-qualified call is
# unambiguous in stripped text, no AST needed)

BLOCKING_SOCKET_CALLS = (
    "socket", "bind", "listen",
    "connect", "accept", "accept4",
    "send", "sendto", "sendmsg", "recv", "recvfrom", "recvmsg",
    "read", "write", "readv", "writev",
    "poll", "ppoll", "select", "pselect",
)
# `::name(` where the `::` is global scope — not `Foo::read(` (preceded by
# an identifier or template argument close) and not `ohpx::send(`.
BLOCKING_SOCKET_RE = re.compile(
    r"(?<![\w>])::\s*(" + "|".join(BLOCKING_SOCKET_CALLS) + r")\s*\(")


# ---------------------------------------------------------------------------
# error-consistency (engine-independent: the contract is cross-file text)

SPAN_CALL_RE = re.compile(r"\bSpan\s+\w+\s*\(")
EVENT_CALL_RE = re.compile(r"\b(?:trace\s*::\s*)?event\s*\(")
NAME_LITERAL_RE = re.compile(r'"([a-z0-9_.]+)"')

# Metric registry call sites (handles, convenience wrappers, and the RAII
# timer in both its named-variable and temporary spellings).
METRIC_CALL_RE = re.compile(
    r"\b(?:counter_handle|latency_handle|increment|record_latency)\s*\(|"
    r"\bScopedLatency(?:\s+\w+)?\s*\(")
# Metric names are dotted lowercase ("rmi.calls"); requiring a dot keeps
# ordinary string arguments from tripping the rule.
METRIC_LITERAL_RE = re.compile(r'"([a-z0-9_]+(?:\.[a-z0-9_.]+)+)"')


def _switch_cases(text: str, function_re: re.Pattern) -> tuple[set, bool,
                                                               int]:
    """(case labels, has default, body start line) of the first switch in
    the function matched by `function_re`; empty if not found."""
    match = function_re.search(text)
    if not match:
        return set(), False, 0
    # The function body: brace-balance from the first `{` after the match.
    start = text.find("{", match.end())
    if start == -1:
        return set(), False, 0
    depth, i = 1, start + 1
    while i < len(text) and depth > 0:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
        i += 1
    body = text[start:i]
    cases = set(re.findall(r"\bcase\s+ErrorCode\s*::\s*(\w+)", body))
    has_default = re.search(r"\bdefault\s*:", body) is not None
    return cases, has_default, text.count("\n", 0, start) + 1


class ConsistencyChecker:
    ERROR_HPP = Path("src/ohpx/common/error.hpp")
    ERROR_CPP = Path("src/ohpx/common/error.cpp")
    RETRY_CPP = Path("src/ohpx/resilience/retry.cpp")
    SPAN_NAMES_HPP = Path("src/ohpx/trace/span_names.hpp")

    def __init__(self, root: Path):
        self.root = root

    def _read(self, rel: Path) -> str:
        path = self.root / rel
        if not path.is_file():
            return ""
        return strip_comments_and_strings(
            path.read_text(encoding="utf-8", errors="replace"))

    def _read_raw(self, rel: Path) -> str:
        path = self.root / rel
        return (path.read_text(encoding="utf-8", errors="replace")
                if path.is_file() else "")

    def check_error_codes(self, findings: Findings) -> None:
        hpp = self._read(self.ERROR_HPP)
        enum_match = re.search(
            r"enum\s+class\s+ErrorCode[^{]*\{(.*?)\};", hpp, re.DOTALL)
        if not enum_match:
            return
        enumerators = re.findall(r"\b([a-z_][a-z0-9_]*)\s*=\s*\d+",
                                 enum_match.group(1))

        to_string_cases, _, to_string_line = _switch_cases(
            self._read(self.ERROR_CPP),
            re.compile(r"to_string\s*\(\s*ErrorCode\s+\w+\s*\)"))
        retry_cases, retry_default, retry_line = _switch_cases(
            self._read(self.RETRY_CPP),
            re.compile(r"\bis_retryable\s*\(\s*ErrorCode\s+\w+\s*\)"))

        for enumerator in enumerators:
            if to_string_cases and enumerator not in to_string_cases:
                findings.report(
                    self.root / self.ERROR_CPP, to_string_line,
                    "error-consistency",
                    f"ErrorCode::{enumerator} has no name in to_string()")
            if retry_cases and enumerator not in retry_cases:
                findings.report(
                    self.root / self.RETRY_CPP, retry_line,
                    "error-consistency",
                    f"ErrorCode::{enumerator} has no explicit verdict in "
                    "is_retryable() — classify it (and say why)")
        if retry_cases and retry_default:
            findings.report(
                self.root / self.RETRY_CPP, retry_line, "error-consistency",
                "is_retryable() must stay an exhaustive switch with no "
                "`default:` — a default silently classifies future codes")

    def _registered_span_names(self) -> dict[str, int]:
        raw = self._read_raw(self.SPAN_NAMES_HPP)
        names: dict[str, int] = {}
        in_array = False
        for lineno, line in enumerate(raw.splitlines(), 1):
            if "kRegistered[]" in line:
                in_array = True
            if in_array:
                for match in NAME_LITERAL_RE.finditer(line):
                    names.setdefault(match.group(1), lineno)
                if "};" in line:
                    break
        return names

    def _span_call_sites(self) -> dict[str, tuple[Path, int]]:
        sites: dict[str, tuple[Path, int]] = {}
        src = self.root / "src"
        for source in sorted(src.rglob("*.hpp")) + sorted(src.rglob("*.cpp")):
            rel = source.resolve().relative_to(self.root.resolve())
            if rel == self.SPAN_NAMES_HPP or rel.parts[:3] == (
                    "src", "ohpx", "trace"):
                continue  # the registry + the trace runtime itself
            raw = source.read_text(encoding="utf-8", errors="replace")
            # Strip comments but keep strings: the names ARE strings.
            clean = re.sub(r"//[^\n]*", "", raw)
            for pattern, arg_index in ((SPAN_CALL_RE, 1),
                                       (EVENT_CALL_RE, 0)):
                for match in pattern.finditer(clean):
                    args = self._call_args(clean, match.end())
                    if arg_index >= len(args):
                        continue
                    literal = NAME_LITERAL_RE.search(args[arg_index])
                    if literal is None:
                        continue
                    lineno = clean.count("\n", 0, match.start()) + 1
                    sites.setdefault(literal.group(1), (source, lineno))
        return sites

    @staticmethod
    def _call_args(text: str, start: int) -> list[str]:
        depth, args, current = 1, [], []
        i = start
        while i < len(text) and depth > 0:
            c = text[i]
            if c in "([{":
                depth += 1
                current.append(c)
            elif c in ")]}":
                depth -= 1
                if depth > 0:
                    current.append(c)
            elif c == "," and depth == 1:
                args.append("".join(current))
                current = []
            else:
                current.append(c)
            i += 1
        args.append("".join(current))
        return args

    def check_blocking_sockets(self, findings: Findings) -> None:
        src = self.root / "src"
        for source in sorted(src.rglob("*.hpp")) + sorted(src.rglob("*.cpp")):
            if is_under(source, self.root, TRANSPORT_DIR):
                continue  # the transport layer owns its fds
            clean = strip_comments_and_strings(
                source.read_text(encoding="utf-8", errors="replace"))
            for lineno, line in enumerate(clean.splitlines(), 1):
                for match in BLOCKING_SOCKET_RE.finditer(line):
                    findings.report(
                        source, lineno, "blocking-socket",
                        f"::{match.group(1)}() outside src/ohpx/transport/ "
                        "— socket I/O and accepting listeners belong to "
                        "the transport layer (Reactor::submit for outbound "
                        "TCP, a Channel for in-process and simulated calls, "
                        "TcpListener for accepting sockets); a raw syscall "
                        "parks a thread "
                        "or owns an fd the reactor cannot see")

    def check_metric_names(self, findings: Findings) -> None:
        """Every metric-registry call site in src/ outside src/ohpx/metrics/
        must reach its name through metric_names.hpp — a raw dotted string
        literal at counter_handle()/latency_handle()/increment()/
        record_latency()/ScopedLatency drifts out of the exporter's,
        ohpx-top's and the tests' shared vocabulary silently."""
        src = self.root / "src"
        for source in sorted(src.rglob("*.hpp")) + sorted(src.rglob("*.cpp")):
            rel = source.resolve().relative_to(self.root.resolve())
            if rel.parts[:3] == ("src", "ohpx", "metrics"):
                continue  # the registry + metric_names.hpp own the names
            raw = source.read_text(encoding="utf-8", errors="replace")
            # Strip comments but keep strings: the names ARE strings.
            clean = re.sub(r"//[^\n]*", "", raw)
            for match in METRIC_CALL_RE.finditer(clean):
                for arg in self._call_args(clean, match.end()):
                    literal = METRIC_LITERAL_RE.search(arg)
                    if literal is None:
                        continue
                    lineno = clean.count("\n", 0, match.start()) + 1
                    findings.report(
                        source, lineno, "metric-names",
                        f'raw metric name "{literal.group(1)}" at a registry '
                        "call site — route it through "
                        "src/ohpx/metrics/metric_names.hpp (a names:: "
                        "constant or derived-name builder) so the exporter, "
                        "ohpx-top and the tests share one vocabulary")

    def check_span_names(self, findings: Findings) -> None:
        registered = self._registered_span_names()
        if not registered:
            return
        sites = self._span_call_sites()
        for name, (path, lineno) in sorted(sites.items()):
            if name not in registered:
                findings.report(
                    path, lineno, "error-consistency",
                    f'span/event name "{name}" is not registered in '
                    "src/ohpx/trace/span_names.hpp — add it there (sorted) "
                    "in the same change")
        for name, lineno in sorted(registered.items()):
            if name not in sites:
                findings.report(
                    self.root / self.SPAN_NAMES_HPP, lineno,
                    "error-consistency",
                    f'registered span name "{name}" has no call site left '
                    "in src/ — remove it or restore the span")


# ---------------------------------------------------------------------------
# driver

def make_engine(root: Path, engine: str, compile_commands: Path):
    if engine in ("auto", "libclang"):
        cindex = load_cindex()
        if cindex is not None and compile_commands.is_file():
            return LibclangEngine(root, cindex, compile_commands)
        if engine == "libclang":
            missing = ("clang.cindex/libclang not available"
                       if cindex is None else
                       f"no compile_commands.json at {compile_commands}")
            print(f"ohpx-lint-ast: {missing}", file=sys.stderr)
            return None
    return RegexEngine(root)


def run(root: Path, engine_name: str, compile_commands: Path) -> int:
    engine = make_engine(root, engine_name, compile_commands)
    if engine is None:
        return 2
    findings = Findings(root)
    engine.check_naked_mutex(findings)
    engine.check_lock_across_send(findings)
    checker = ConsistencyChecker(root)
    checker.check_blocking_sockets(findings)
    checker.check_error_codes(findings)
    checker.check_span_names(findings)
    checker.check_metric_names(findings)
    for violation in findings.sorted():
        print(violation)
    if findings.violations:
        print(f"ohpx-lint-ast[{engine.name}]: "
              f"{len(findings.violations)} violation(s)")
        return 1
    print(f"ohpx-lint-ast[{engine.name}]: OK (5 rules clean)")
    return 0


# ---------------------------------------------------------------------------
# self-test

SYNC_MUTEX_HPP = """\
#pragma once
#include <mutex>
namespace ohpx::sync {
class Mutex {
 public:
  explicit Mutex(const char* name = "unnamed") : name_(name) {}
  void lock() { mutex_.lock(); }
  void unlock() { mutex_.unlock(); }
  const char* name() const { return name_; }
 private:
  std::mutex mutex_;
  const char* name_;
};
template <typename M = Mutex>
class LockGuard {
 public:
  explicit LockGuard(M& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
 private:
  M& m_;
};
template <typename M = Mutex>
class UniqueLock {
 public:
  explicit UniqueLock(M& m) : m_(m) { m_.lock(); }
  ~UniqueLock() { m_.unlock(); }
 private:
  M& m_;
};
}  // namespace ohpx::sync
"""

CHANNEL_HPP = """\
#pragma once
namespace ohpx::transport {
struct Buffer {};
class Channel {
 public:
  virtual ~Channel() = default;
  virtual Buffer roundtrip(const Buffer& request) = 0;
};
}  // namespace ohpx::transport
"""

CLEAN_ORB_CPP = """\
#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/channel.hpp"
namespace ohpx::trace {
struct Span { Span(int, const char*) {} };
void event(const char*, const char*);
}  // namespace ohpx::trace
namespace ohpx::orb {
class Caller {
 public:
  transport::Buffer call(transport::Channel& channel) {
    transport::Buffer request;
    {
      sync::LockGuard lock(mutex_);
      request = pending_;
    }  // guard dropped before the blocking send
    trace::Span span(0, "rmi.invoke");
    return channel.roundtrip(request);
  }
 private:
  sync::Mutex mutex_{"orb.caller"};
  transport::Buffer pending_;
};
}  // namespace ohpx::orb
"""

TRANSPORT_TCP_CPP = """\
#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/channel.hpp"
extern "C" long send(int, const void*, unsigned long, int);
namespace ohpx::transport {
class FdChannel : public Channel {
 public:
  Buffer roundtrip(const Buffer& request) override {
    sync::LockGuard lock(io_mutex_);  // exempt: serializes this fd
    Buffer reply = request;
    ::send(fd_, &reply, sizeof(reply), 0);  // exempt: transport owns fds
    return reply;
  }
 private:
  sync::Mutex io_mutex_{"transport.fd.io"};
  int fd_ = -1;
};
}  // namespace ohpx::transport
"""

ERROR_HPP = """\
#pragma once
namespace ohpx {
enum class ErrorCode : unsigned {
  ok = 0,
  transport_io = 202,
  deadline_exceeded = 800,
};
}  // namespace ohpx
"""

ERROR_CPP = """\
#include "ohpx/common/error.hpp"
namespace ohpx {
const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::ok: return "ok";
    case ErrorCode::transport_io: return "transport_io";
    case ErrorCode::deadline_exceeded: return "deadline_exceeded";
  }
  return "unknown";
}
}  // namespace ohpx
"""

RETRY_CPP = """\
#include "ohpx/common/error.hpp"
namespace ohpx::resilience {
bool is_retryable(ErrorCode code) {
  switch (code) {
    case ErrorCode::transport_io:
      return true;
    case ErrorCode::ok:
    case ErrorCode::deadline_exceeded:
      return false;
  }
  return false;
}
}  // namespace ohpx::resilience
"""

SPAN_NAMES_HPP_FIXTURE = """\
#pragma once
namespace ohpx::trace::names {
inline constexpr const char* kRegistered[] = {
    "rmi.invoke",
};
}  // namespace ohpx::trace::names
"""


def _make_tree(tmp: Path) -> Path:
    root = tmp
    files = {
        "src/ohpx/sync/mutex.hpp": SYNC_MUTEX_HPP,
        "src/ohpx/transport/channel.hpp": CHANNEL_HPP,
        "src/ohpx/transport/tcp.cpp": TRANSPORT_TCP_CPP,
        "src/ohpx/orb/caller.cpp": CLEAN_ORB_CPP,
        "src/ohpx/common/error.hpp": ERROR_HPP,
        "src/ohpx/common/error.cpp": ERROR_CPP,
        "src/ohpx/resilience/retry.cpp": RETRY_CPP,
        "src/ohpx/trace/span_names.hpp": SPAN_NAMES_HPP_FIXTURE,
    }
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    entries = [
        {"directory": str(root),
         "command": f"c++ -std=c++17 -I{root / 'src'} -c {root / rel}",
         "file": str(root / rel)}
        for rel in files if rel.endswith(".cpp")
    ]
    (root / "compile_commands.json").write_text(json.dumps(entries))
    return root


def _write_in(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _collect(root: Path, engine) -> list[str]:
    findings = Findings(root)
    engine.check_naked_mutex(findings)
    engine.check_lock_across_send(findings)
    checker = ConsistencyChecker(root)
    checker.check_blocking_sockets(findings)
    checker.check_error_codes(findings)
    checker.check_span_names(findings)
    checker.check_metric_names(findings)
    return findings.sorted()


def self_test() -> int:
    failures: list[str] = []

    def expect(condition: bool, label: str) -> None:
        if not condition:
            failures.append(label)

    cindex = load_cindex()
    engine_factories = [
        ("regex", lambda root: RegexEngine(root)),
    ]
    if cindex is not None:
        engine_factories.append(
            ("libclang",
             lambda root: LibclangEngine(
                 root, cindex, root / "compile_commands.json")))

    injections = [
        ("naked-mutex", "src/ohpx/orb/naked.cpp",
         "#include <mutex>\n"
         "namespace ohpx::orb {\n"
         "class Table {\n"
         "  mutable std::mutex mutex_;\n"
         "};\n"
         "}  // namespace ohpx::orb\n"),
        ("naked-mutex", "src/ohpx/orb/guarded.cpp",
         "#include <mutex>\n"
         "namespace ohpx::orb {\n"
         "std::mutex g_m;\n"
         "void f() { std::lock_guard<std::mutex> lock(g_m); }\n"
         "}  // namespace ohpx::orb\n"),
        ("lock-across-send", "src/ohpx/orb/heldsend.cpp",
         '#include "ohpx/sync/mutex.hpp"\n'
         '#include "ohpx/transport/channel.hpp"\n'
         "namespace ohpx::orb {\n"
         "class Bad {\n"
         " public:\n"
         "  transport::Buffer call(transport::Channel& channel) {\n"
         "    sync::LockGuard lock(mutex_);\n"
         "    return channel.roundtrip(pending_);  // lock still held\n"
         "  }\n"
         " private:\n"
         '  sync::Mutex mutex_{"orb.bad"};\n'
         "  transport::Buffer pending_;\n"
         "};\n"
         "}  // namespace ohpx::orb\n"),
        ("lock-across-send", "src/ohpx/protocol/nested.cpp",
         '#include "ohpx/sync/mutex.hpp"\n'
         '#include "ohpx/transport/channel.hpp"\n'
         "namespace ohpx::proto {\n"
         "class Bad {\n"
         " public:\n"
         "  void call(transport::Channel& channel) {\n"
         "    sync::UniqueLock lock(mutex_);\n"
         "    if (dirty_) {\n"
         "      channel.roundtrip(pending_);  // outer guard in scope\n"
         "    }\n"
         "  }\n"
         " private:\n"
         '  sync::Mutex mutex_{"proto.bad"};\n'
         "  bool dirty_ = false;\n"
         "  transport::Buffer pending_;\n"
         "};\n"
         "}  // namespace ohpx::proto\n"),
    ]

    consistency_injections = [
        ("missing to_string + is_retryable entries",
         "src/ohpx/common/error.hpp",
         ERROR_HPP.replace("  deadline_exceeded = 800,",
                           "  deadline_exceeded = 800,\n"
                           "  brand_new_code = 900,"),
         ["has no name in to_string",
          "has no explicit verdict in is_retryable"]),
        ("default in is_retryable",
         "src/ohpx/resilience/retry.cpp",
         RETRY_CPP.replace("    case ErrorCode::ok:\n"
                           "    case ErrorCode::deadline_exceeded:\n"
                           "      return false;\n",
                           "    default:\n      return false;\n"),
         ["no explicit verdict", "no `default:`"]),
        ("unregistered span name",
         "src/ohpx/orb/newspan.cpp",
         "namespace ohpx::trace { struct Span { Span(int, const char*) {} };"
         " }\n"
         "namespace ohpx::orb {\n"
         'void f() { trace::Span span(0, "orb.mystery"); }\n'
         "}  // namespace ohpx::orb\n",
         ['"orb.mystery" is not registered']),
        ("unused registered span name",
         "src/ohpx/trace/span_names.hpp",
         SPAN_NAMES_HPP_FIXTURE.replace(
             '    "rmi.invoke",',
             '    "rmi.invoke",\n    "orb.ghost",'),
         ['"orb.ghost" has no call site']),
        ("blocking socket syscall above transport",
         "src/ohpx/protocol/rawsock.cpp",
         'extern "C" long send(int, const void*, unsigned long, int);\n'
         'extern "C" int connect(int, const void*, unsigned int);\n'
         "namespace ohpx::proto {\n"
         "void leak(int fd, const void* buf, unsigned long len) {\n"
         "  ::connect(fd, buf, 0);\n"
         "  ::send(fd, buf, len, 0);\n"
         "}\n"
         "}  // namespace ohpx::proto\n",
         ["[blocking-socket]"]),
        ("qualified read() is not a syscall",
         "src/ohpx/orb/reader.cpp",
         "namespace ohpx::orb {\n"
         "struct Codec { long read(void*, unsigned long); };\n"
         "void f(Codec& codec, void* buf) { codec.Codec::read(buf, 1); }\n"
         "}  // namespace ohpx::orb\n",
         []),  # member-qualified call must NOT trip the rule
        ("accepting-socket syscalls above transport",
         "src/ohpx/naming/rawlisten.cpp",
         'extern "C" int socket(int, int, int);\n'
         'extern "C" int bind(int, const void*, unsigned int);\n'
         'extern "C" int listen(int, int);\n'
         "namespace ohpx::naming {\n"
         "int serve(const void* addr) {\n"
         "  const int fd = ::socket(2, 1, 0);\n"
         "  ::bind(fd, addr, 16);\n"
         "  ::listen(fd, 8);\n"
         "  return fd;\n"
         "}\n"
         "}  // namespace ohpx::naming\n",
         ["[blocking-socket]"]),
        ("accepting-socket syscalls inside transport are sanctioned",
         "src/ohpx/transport/listener_ok.cpp",
         'extern "C" int socket(int, int, int);\n'
         'extern "C" int listen(int, int);\n'
         "namespace ohpx::transport {\n"
         "int open_listener() {\n"
         "  const int fd = ::socket(2, 1, 0);\n"
         "  ::listen(fd, 8);\n"
         "  return fd;\n"
         "}\n"
         "}  // namespace ohpx::transport\n",
         []),  # the transport layer owns its fds
        ("std::bind and member bind() are not the syscall",
         "src/ohpx/orb/binder.cpp",
         "namespace std { template <class F> F bind(F f) { return f; } }\n"
         "namespace ohpx::orb {\n"
         "struct Directory { void bind(int); };\n"
         "void f(Directory& directory) {\n"
         "  directory.bind(1);\n"
         "  (void)std::bind(0);\n"
         "}\n"
         "}  // namespace ohpx::orb\n",
         []),  # only global-scope ::bind( is the syscall
        ("raw metric name at a registry call site",
         "src/ohpx/orb/metered.cpp",
         "namespace ohpx::metrics {\n"
         "struct MetricsRegistry {\n"
         "  static MetricsRegistry& global();\n"
         "  unsigned long* counter_handle(const char*);\n"
         "};\n"
         "}  // namespace ohpx::metrics\n"
         "namespace ohpx::orb {\n"
         "void f() {\n"
         '  metrics::MetricsRegistry::global().counter_handle("rmi.calls");\n'
         "}\n"
         "}  // namespace ohpx::orb\n",
         ["[metric-names]"]),
        ("metric name routed through names:: stays clean",
         "src/ohpx/orb/metered_ok.cpp",
         "namespace ohpx::metrics::names {\n"
         "inline constexpr const char* kRmiCalls = \"rmi.calls\";\n"
         "}  // namespace ohpx::metrics::names\n"
         "namespace ohpx::metrics {\n"
         "struct MetricsRegistry {\n"
         "  static MetricsRegistry& global();\n"
         "  unsigned long* counter_handle(const char*);\n"
         "};\n"
         "}  // namespace ohpx::metrics\n"
         "namespace ohpx::orb {\n"
         "void f() {\n"
         "  metrics::MetricsRegistry::global().counter_handle(\n"
         "      metrics::names::kRmiCalls);\n"
         "}\n"
         "}  // namespace ohpx::orb\n",
         []),  # constants (not raw literals) must NOT trip the rule
        ("registry internals are exempt",
         "src/ohpx/metrics/metrics.cpp",
         "namespace ohpx::metrics {\n"
         "struct MetricsRegistry { unsigned long* counter_handle(const char*);"
         " };\n"
         "void warm(MetricsRegistry& registry) {\n"
         '  registry.counter_handle("rmi.calls");\n'
         "}\n"
         "}  // namespace ohpx::metrics\n",
         []),  # src/ohpx/metrics/ owns the names — never flagged
    ]

    for engine_name, factory in engine_factories:
        # 1. The clean tree is clean.
        with tempfile.TemporaryDirectory() as tmp:
            root = _make_tree(Path(tmp))
            violations = _collect(root, factory(root))
            expect(not violations,
                   f"[{engine_name}] clean tree flagged: {violations}")

        # 2. Each injected violation is caught under the right rule.
        for rule, rel, text in injections:
            with tempfile.TemporaryDirectory() as tmp:
                root = _make_tree(Path(tmp))
                _write_in(root / rel, text)
                if rel.endswith(".cpp"):
                    commands = json.loads(
                        (root / "compile_commands.json").read_text())
                    commands.append(
                        {"directory": str(root),
                         "command": f"c++ -std=c++17 -I{root / 'src'} "
                                    f"-c {root / rel}",
                         "file": str(root / rel)})
                    (root / "compile_commands.json").write_text(
                        json.dumps(commands))
                violations = _collect(root, factory(root))
                expect(any(f"[{rule}]" in v for v in violations),
                       f"[{engine_name}] injected {rule} in {rel} not "
                       f"caught (got: {violations})")

        # 3. False-positive guards: the exemptions hold.
        with tempfile.TemporaryDirectory() as tmp:
            root = _make_tree(Path(tmp))
            violations = _collect(root, factory(root))
            expect(not any("lock-across-send" in v
                           and "transport" in v for v in violations),
                   f"[{engine_name}] transport roundtrip-under-io-lock "
                   f"flagged: {violations}")
            expect(not any("naked-mutex" in v and "sync" in v
                           for v in violations),
                   f"[{engine_name}] std::mutex inside ohpx/sync flagged: "
                   f"{violations}")

    # 4. Consistency rules (engine-independent): injected drift is caught;
    #    a fixture with no needles asserts the injection stays clean.
    for label, rel, text, needles in consistency_injections:
        with tempfile.TemporaryDirectory() as tmp:
            root = _make_tree(Path(tmp))
            _write_in(root / rel, text)
            violations = _collect(root, RegexEngine(root))
            if not needles:
                expect(not violations,
                       f"{label}: expected no violations "
                       f"(got: {violations})")
            for needle in needles:
                expect(any(needle in v for v in violations),
                       f"{label}: expected a violation mentioning "
                       f"{needle!r} (got: {violations})")

    if failures:
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}")
        return 1
    engines = ", ".join(name for name, _ in engine_factories)
    print(f"ohpx-lint-ast self-test: OK (engines: {engines}; "
          f"{len(injections)} scope fixtures, "
          f"{len(consistency_injections)} consistency fixtures)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_root = Path(__file__).resolve().parent.parent
    parser.add_argument("--root", type=Path, default=default_root,
                        help="repository root")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compile_commands.json path (default: "
                             "<root>/build/compile_commands.json)")
    parser.add_argument("--engine", choices=("auto", "libclang", "regex"),
                        default="auto",
                        help="auto = libclang when available, else regex")
    parser.add_argument("--self-test", action="store_true",
                        help="verify both engines against injected "
                             "violations")
    options = parser.parse_args()
    if options.self_test:
        return self_test()
    root = options.root.resolve()
    if not (root / "src").is_dir():
        print(f"ohpx-lint-ast: no src/ under {root}", file=sys.stderr)
        return 2
    compile_commands = (options.compile_commands
                        or root / "build" / "compile_commands.json")
    return run(root, options.engine, compile_commands)


if __name__ == "__main__":
    sys.exit(main())
