#!/usr/bin/env python3
"""ohpx-lint: repo-specific invariant checks the compiler cannot enforce.

Every rule runs over one comment/string lexer (strip_comments_and_strings)
with the Python standard library only, and each is exercised by
--self-test:

  pragma-once        every header under src/ starts its include guard with
                     `#pragma once`
  no-stdio           no std::cout / std::cerr / printf-family calls in src/
                     (the logging sink src/ohpx/common/log.cpp is the one
                     documented exemption — everything else goes through
                     ohpx::log)
  no-naked-new       no naked `new` / `delete` expressions in src/ (use
                     std::make_shared / std::make_unique / containers);
                     `= delete` declarations are fine
  cmake-lists        every .cpp under src/ is listed in its directory's
                     CMakeLists.txt (an unlisted file silently never builds)
  cap-pairs          every builtin capability header declares both
                     `process` and `unprocess` overrides, and its .cpp
                     defines both — the paper's §4 symmetry contract
  chain-contract     CapabilityChain::process_inbound unprocesses in
                     *reverse* order (rbegin/rend) while process_outbound
                     runs forward — the chain composes like function
                     application, so inbound must peel in reverse
  span-names         every trace::Span / trace::event name argument in src/
                     outside src/ohpx/trace/ is a single string literal
                     registered in src/ohpx/trace/span_names.hpp, and every
                     registered name still has a call site.  SpanRecord
                     stores a bounded copy of a literal and the exporter,
                     timeline tests and dashboards key on the names;
                     dynamic detail goes in annotate() or the annotation.
                     The anomaly table's event names
                     (src/ohpx/introspect/flight_recorder.hpp) count as
                     call sites and must be registered too; anomaly()'s
                     one `trace::event(row.event, ...)` is the only
                     non-literal name allowed
  anomaly-sites      every anomaly goes through introspect::anomaly(), so
                     the table alone decides how it shows: in src/ outside
                     src/ohpx/introspect/ there is no FlightRecorder
                     record call, no registry call on a counter the table
                     owns, and no span/event named after a table event
  metric-names       the name argument at a metric-registry call site
                     (counter_handle / latency_handle / increment /
                     record_latency / ScopedLatency) in src/ outside
                     src/ohpx/metrics/ holds neither a raw dotted literal
                     nor a `+` concatenation.  Names come from
                     metric_names.hpp constants or builders, so the
                     exporter, ohpx-top and the tests share one vocabulary,
                     and hot paths bump an interned handle instead of
                     building a name per call
  no-test-sleeps     no wall-clock waits (std::this_thread::sleep_for /
                     sleep_until, sleep/usleep/nanosleep) in tests/ —
                     time-dependent tests install a resilience ManualClock
                     and advance virtual time instead, so the suite stays
                     fast and deterministic.  A genuinely wall-clock test
                     (thread-pool timing, lease TTLs against the steady
                     clock) marks the line with
                     `// ohpx-lint: allow-wall-clock (reason)`
  naked-mutex        std::mutex / std::shared_mutex / std::lock_guard /
                     std::unique_lock / std::shared_lock /
                     std::scoped_lock are banned outside src/ohpx/sync/.
                     The std guards carry no thread-safety annotations
                     (invisible to -Wthread-safety) and bypass the
                     lock-order validator; declare sync::Mutex and lock
                     through sync::LockGuard / sync::UniqueLock instead.
  lock-across-send   no ohpx::sync guard may be in scope at a call that
                     blocks for a network roundtrip above the transport
                     layer: a protocol's invoke() (`->invoke(` /
                     `.invoke(`, where TCP parks on the reactor's reply),
                     a `transport::dispatch(` call (the in-process bearers'
                     one exchange, which runs the server's handler on the
                     caller's thread: shm, nexus-tcp and relay call it
                     from invoke(), and relay's gateway forwarder from its
                     request handler) or any roundtrip() call.  A lock
                     held across a network roundtrip serializes the caller
                     on a peer's latency — copy what you need, drop the
                     lock, then send.
                     src/ohpx/transport/ itself is exempt: there a lock
                     guards the transport's own fds and queues (the
                     reactor's mutex, a listener's connection set), which
                     is that lock's entire point.
  blocking-socket    global-scope blocking socket syscalls (::connect,
                     ::send, ::recv, ::read, ::write, ::accept, ::poll,
                     ::select, ::writev, ::sendmsg, ...) are banned
                     outside src/ohpx/transport/.  Everything above the
                     transport layer talks through Reactor::submit, which
                     owns nonblocking I/O, fd lifecycle and the
                     inflight-window contract, or through
                     transport::dispatch for in-process and simulated
                     calls; a raw blocking
                     syscall parks a caller thread the reactor cannot see.
  error-consistency  every ErrorCode enumerator has a name in to_string
                     (src/ohpx/common/error.cpp) and an explicit verdict in
                     is_retryable (src/ohpx/resilience/retry.cpp), whose
                     switch must stay exhaustive, with no `default:`
  byte-order         no code in src/ outside src/ohpx/common/endian.hpp
                     packs an integer into bytes or unpacks one by hand:
                     no `static_cast` to a byte type of a value shifted
                     right by a literal multiple of 8, and no indexed byte
                     `static_cast` wider and shifted left by one.  Use
                     load_be / store_be / load_le / store_le.  Shifts by a
                     computed amount (a keystream's `>> (8 * b)`) are out
                     of scope
  endpoint-lookup    no `EndpointRegistry::instance().find(` in src/ (nor a
                     `.find(` on a reference bound to
                     `EndpointRegistry::instance()`) outside
                     src/ohpx/orb/invocation.cpp, where selection finds a
                     target's handler once per memoized selection,
                     src/ohpx/protocol/relay.cpp (the gateway, which no
                     target names, and the forwarder's target) and
                     src/ohpx/transport/.  A bearer dispatches to the
                     handle in its CallTarget; one that finds its
                     endpoint by name is back to a per-call lookup under
                     the registry's process-wide mutex
  number-parse       no std::sto* (stoi, stoul, stod, ...), strto* (strtol,
                     strtoull, strtod, ...) or ato* (atoi, atol, atof) call
                     in src/, tools/ or bench/ outside
                     src/ohpx/common/parse.cpp.  Every number read from
                     text goes through parse_number / parse_decimal /
                     parse_host_port (common/parse.hpp), which take exactly
                     what the characters say or refuse: those readers skip
                     blanks, take a sign (stoull("-1") is 2^64-1), stop at
                     the first bad character ("5calls" is 5), read "nan",
                     or throw std::invalid_argument.  tests/ and
                     benchmark/ are out of scope

Usage:
  python3 tools/ohpx_lint.py [--root REPO_ROOT]   # lint the repo, exit 0/1
  python3 tools/ohpx_lint.py --self-test          # verify the linter itself
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

# ---------------------------------------------------------------------------
# helpers


def _digit_separator(text: str, i: int) -> bool:
    """True when the `'` at `i` continues a token that starts with a digit:
    a C++14 digit separator (104'000, 0x6f68'7078), not a char literal."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_.'"):
        j -= 1
    return j < i and text[j].isdigit()


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks out comments and string/char literals, preserving newlines.

    Good enough for lint heuristics: handles //, /* */, "..." with escapes,
    '...' with escapes, and raw strings R"delim(...)delim" with any
    delimiter (including the empty one).  A `'` inside a number is a digit
    separator and stays code.  Replaced characters become
    spaces so line/column positions survive.  With `keep_strings` the
    literals stay verbatim, for scans whose subject is a string (span and
    metric names), but they are still lexed: a `//` inside "http://x"
    starts no comment.  Both forms have the same offsets.
    """
    out = []
    i, n = 0, len(text)
    raw_open = re.compile(r'R"([^()\\ \t\n]{0,16})\(')
    next_open = re.compile(r'/[/*]|R"|["\']')

    def blank(segment: str, literal: bool) -> str:
        if literal and keep_strings:
            return segment
        return "".join(ch if ch == "\n" else " " for ch in segment)

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append(blank(text[i : j + 2], literal=False))
            i = j + 2
        elif c == "R" and nxt == '"' and (match := raw_open.match(text, i)):
            # Raw string: runs to `)delim"` for the exact opening delimiter
            # (e.g. R"ohpx(...)ohpx"), so nothing inside — quotes, escapes,
            # a bare )" under a non-empty delimiter — terminates it early.
            closer = ")" + match.group(1) + '"'
            j = text.find(closer, match.end())
            j = n - len(closer) if j == -1 else j
            out.append(blank(text[i : j + len(closer)], literal=True))
            i = j + len(closer)
        elif c == "'" and _digit_separator(text, i):
            out.append(c)
            i += 1
        elif c in ('"', "'"):
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(blank(text[i : min(j, n - 1) + 1], literal=True))
            i = j + 1
        else:
            # Copy plain code through to the next possible opener.
            opener = next_open.search(text, i + 1)
            j = n if opener is None else opener.start()
            out.append(text[i:j])
            i = j
    return "".join(out)


def _call_args(text: str, start: int) -> list[tuple[int, int]]:
    """The (begin, end) offsets of each top-level argument of the call
    whose `(` ends at `start` (handles nested brackets and newlines)."""
    depth, args, begin = 1, [], start
    i = start
    while i < len(text):
        if text[i] in "([{":
            depth += 1
        elif text[i] in ")]}":
            depth -= 1
            if depth == 0:
                break
        elif text[i] == "," and depth == 1:
            args.append((begin, i))
            begin = i + 1
        i += 1
    args.append((begin, i))
    return args


def _body(text: str, pattern: str) -> tuple[str, int]:
    """The brace-balanced body after the first match of `pattern`, and the
    line its `{` is on; ("", 0) if there is none."""
    match = re.search(pattern, text)
    brace = text.find("{", match.end()) if match else -1
    if brace == -1:
        return "", 0
    depth, i = 0, brace
    while i < len(text):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                break
        i += 1
    return text[brace : i + 1], text.count("\n", 0, brace) + 1


SYNC_DIR = "src/ohpx/sync"
TRANSPORT_DIR = "src/ohpx/transport"

BANNED_STD_SYNC = (
    "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex",
    "lock_guard", "unique_lock", "shared_lock", "scoped_lock",
)

BLOCKING_SOCKET_CALLS = (
    "socket", "bind", "listen",
    "connect", "accept", "accept4",
    "send", "sendto", "sendmsg", "recv", "recvfrom", "recvmsg",
    "read", "write", "readv", "writev",
    "poll", "ppoll", "select", "pselect",
)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.findings: set[str] = set()

    def report(self, path: Path, line: int, rule: str, message: str) -> None:
        try:
            shown = path.relative_to(self.root)
        except ValueError:
            shown = path
        self.findings.add(f"{shown}:{line}: [{rule}] {message}")

    def sources(self, top: str = "src", skip: tuple[str, ...] = ()):
        """Yields (path, text) for every .hpp/.cpp under `top`, sorted,
        leaving out the repo-relative `skip` files and directories."""
        for path in sorted((self.root / top).rglob("*.[ch]pp")):
            rel = path.relative_to(self.root).as_posix()
            if not any(rel == s or rel.startswith(s + "/") for s in skip):
                yield path, path.read_text(encoding="utf-8", errors="replace")

    def matches(self, pattern: re.Pattern, skip: tuple[str, ...] = (),
                top: str = "src"):
        """Yields (path, line, match) for each `pattern` match on a line
        under `top` with its comments and literals blanked."""
        for path, text in self.sources(top, skip=skip):
            clean = strip_comments_and_strings(text)
            for lineno, line in enumerate(clean.splitlines(), 1):
                for match in pattern.finditer(line):
                    yield path, lineno, match

    def name_args(self, calls, skip: tuple[str, ...]):
        """Yields (path, line, code, text) for the name argument at each
        src/ call site of `calls`, (pattern, argument index) pairs: the
        argument with its literals blanked, and with them kept."""
        for path, text in self.sources(skip=skip):
            clean = strip_comments_and_strings(text)
            kept = strip_comments_and_strings(text, keep_strings=True)
            for pattern, index in calls:
                for match in pattern.finditer(clean):
                    args = _call_args(clean, match.end())
                    if index < len(args):
                        begin, end = args[index]
                        yield (path, clean.count("\n", 0, match.start()) + 1,
                               clean[begin:end], kept[begin:end])

    def lexed(self, rel: str, keep_strings: bool = False) -> str:
        """The lexed text of the repo-relative file `rel`, or "" if absent."""
        path = self.root / rel
        if not path.is_file():
            return ""
        return strip_comments_and_strings(
            path.read_text(encoding="utf-8", errors="replace"), keep_strings)

    # -- individual checks --------------------------------------------------

    def check_pragma_once(self) -> None:
        for header, text in self.sources():
            if header.suffix == ".hpp" and "#pragma once" not in text:
                self.report(header, 1, "pragma-once",
                            "header lacks `#pragma once`")

    STDIO_RE = re.compile(
        r"std\s*::\s*(cout|cerr)\b|(?<![\w:])(?:f|s|v|vf|vs)?printf\s*\(")
    STDIO_EXEMPT = ("src/ohpx/common/log.cpp",)  # the logger's own sink

    def check_no_stdio(self) -> None:
        for source, lineno, _ in self.matches(self.STDIO_RE,
                                              skip=self.STDIO_EXEMPT):
            self.report(source, lineno, "no-stdio",
                        "direct stdio in src/ — use ohpx::log")

    NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_(:]")
    DELETE_RE = re.compile(r"(?<![\w.])delete\b(\s*\[\s*\])?")

    def check_no_naked_new(self) -> None:
        for source, text in self.sources():
            clean = strip_comments_and_strings(text)
            # `= delete` / `= delete;` declarations are not delete-exprs.
            clean = re.sub(r"=\s*delete\b", "", clean)
            for lineno, line in enumerate(clean.splitlines(), 1):
                if self.NEW_RE.search(line):
                    self.report(source, lineno, "no-naked-new",
                                "naked `new` — use make_shared/make_unique")
                if self.DELETE_RE.search(line):
                    self.report(source, lineno, "no-naked-new",
                                "naked `delete` — owning types manage memory")

    def check_cmake_lists(self) -> None:
        for source, _ in self.sources():
            if source.suffix != ".cpp":
                continue
            # Walk up to the nearest CMakeLists.txt at or above the file.
            listfile = None
            probe = source.parent
            while probe >= self.src.parent:
                candidate = probe / "CMakeLists.txt"
                if candidate.exists():
                    listfile = candidate
                    break
                probe = probe.parent
            if listfile is None:
                self.report(source, 1, "cmake-lists",
                            "no CMakeLists.txt found above file")
                continue
            rel = source.relative_to(listfile.parent).as_posix()
            text = listfile.read_text(encoding="utf-8", errors="replace")
            if not re.search(r"(?<![\w/])" + re.escape(rel) + r"(?![\w.])", text):
                self.report(source, 1, "cmake-lists",
                            f"not listed in {listfile.relative_to(self.root)}"
                            " — it never builds")

    def check_cap_pairs(self) -> None:
        builtin = self.src / "ohpx" / "capability" / "builtin"
        if not builtin.is_dir():
            return
        for header in sorted(builtin.glob("*.hpp")):
            text = strip_comments_and_strings(
                header.read_text(encoding="utf-8", errors="replace"))
            has_process = re.search(r"\bprocess\s*\(", text)
            has_unprocess = re.search(r"\bunprocess\s*\(", text)
            if not (has_process and has_unprocess):
                missing = "process" if not has_process else "unprocess"
                self.report(header, 1, "cap-pairs",
                            f"builtin capability lacks a `{missing}` override"
                            " — the §4 symmetry contract requires the pair")
            impl = header.with_suffix(".cpp")
            if not impl.exists():
                self.report(header, 1, "cap-pairs",
                            "builtin capability has no matching .cpp")
                continue
            impl_text = strip_comments_and_strings(
                impl.read_text(encoding="utf-8", errors="replace"))
            for member in ("process", "unprocess"):
                if not re.search(r"::\s*" + member + r"\s*\(", impl_text):
                    self.report(impl, 1, "cap-pairs",
                                f"does not define `{member}` — every builtin"
                                " defines the process/unprocess pair")

    CHAIN_CPP = "src/ohpx/capability/chain.cpp"

    def check_chain_contract(self) -> None:
        chain = self.root / self.CHAIN_CPP
        text = self.lexed(self.CHAIN_CPP)
        if not text:
            self.report(chain, 1, "chain-contract", "chain.cpp missing")
            return
        outbound, _ = _body(text, "CapabilityChain::process_outbound")
        inbound, _ = _body(text, "CapabilityChain::process_inbound")
        if not outbound or "process(" not in outbound:
            self.report(chain, 1, "chain-contract",
                        "process_outbound must run capability->process() "
                        "front-to-back")
        elif "rbegin" in outbound:
            self.report(chain, 1, "chain-contract",
                        "process_outbound must iterate forward, not reversed")
        if not inbound or "unprocess(" not in inbound:
            self.report(chain, 1, "chain-contract",
                        "process_inbound must run capability->unprocess()")
        elif "rbegin" not in inbound:
            self.report(chain, 1, "chain-contract",
                        "process_inbound must unprocess in reverse "
                        "(rbegin/rend) — the chain composes like function "
                        "application")

    SPAN_NAMES_HPP = "src/ohpx/trace/span_names.hpp"
    # (call pattern, index of its name argument): Span(kind, name) and
    # trace::event(name, annotation).
    SPAN_CALLS = ((re.compile(r"\bSpan\s+\w+\s*\("), 1),
                  (re.compile(r"\b(?:trace\s*::\s*)?event\s*\("), 0))
    LITERAL_RE = re.compile(r'\s*"([^"\\]*)"\s*')

    def _registered_span_names(self) -> dict[str, int]:
        names: dict[str, int] = {}
        in_array = False
        text = self.lexed(self.SPAN_NAMES_HPP, keep_strings=True)
        for lineno, line in enumerate(text.splitlines(), 1):
            if "kRegistered[]" in line:
                in_array = True
            if in_array:
                for match in re.finditer(r'"([^"\\]*)"', line):
                    names.setdefault(match.group(1), lineno)
                if "};" in line:
                    break
        return names

    ANOMALY_HPP = "src/ohpx/introspect/flight_recorder.hpp"
    ANOMALY_CPP = "src/ohpx/introspect/flight_recorder.cpp"
    ANOMALY_EVENT_ARG = "row.event"  # anomaly()'s one non-literal name
    ANOMALY_ROW_RE = re.compile(
        r'\{\s*EventKind\s*::\s*\w+\s*,\s*"[^"]*"\s*,\s*"([^"]*)"\s*,'
        r"\s*\{([^{}]*)\}\s*\}")

    def _anomaly_table(self) -> tuple[dict[str, int], set[str]]:
        """({event name: line}, {counter constant}) of kAnomalyTable's
        rows; both empty when the table is absent."""
        text = self.lexed(self.ANOMALY_HPP, keep_strings=True)
        body, line = _body(text, r"\bkAnomalyTable\s*\[\s*\]\s*=")
        events: dict[str, int] = {}
        counters: set[str] = set()
        for row in self.ANOMALY_ROW_RE.finditer(body):
            events.setdefault(row.group(1),
                              line + body.count("\n", 0, row.start()))
            counters.update(re.findall(r"\bnames\s*::\s*(k\w+)",
                                       row.group(2)))
        return events, counters

    def check_span_names(self) -> None:
        registered = self._registered_span_names()
        table_events, _ = self._anomaly_table()
        used: set[str] = set(table_events)
        for name, lineno in sorted(table_events.items()):
            if name not in registered:
                self.report(
                    self.root / self.ANOMALY_HPP, lineno, "span-names",
                    f'anomaly event name "{name}" is not registered in '
                    f"{self.SPAN_NAMES_HPP} — add it there (sorted) in the "
                    "same change")
        table_site_seen = False
        # src/ohpx/trace/ is the registry and the trace runtime itself.
        for source, lineno, _, arg in self.name_args(
                self.SPAN_CALLS, skip=("src/ohpx/trace",)):
            literal = self.LITERAL_RE.fullmatch(arg)
            if literal is None:
                if (not table_site_seen and table_events
                        and source == self.root / self.ANOMALY_CPP
                        and arg.strip() == self.ANOMALY_EVENT_ARG):
                    table_site_seen = True
                    continue
                self.report(
                    source, lineno, "span-names",
                    "span/event name is not a single string literal — "
                    "SpanRecord keeps a bounded copy of a literal; put "
                    "dynamic detail in annotate() or the event annotation")
                continue
            used.add(literal.group(1))
            if literal.group(1) not in registered:
                self.report(
                    source, lineno, "span-names",
                    f'span/event name "{literal.group(1)}" is not registered '
                    f"in {self.SPAN_NAMES_HPP} — add it there (sorted) in "
                    "the same change")
        for name, lineno in sorted(registered.items()):
            if name not in used:
                self.report(
                    self.root / self.SPAN_NAMES_HPP, lineno, "span-names",
                    f'registered span name "{name}" has no call site left '
                    "in src/ — remove it or restore the span")

    INTROSPECT_DIR = "src/ohpx/introspect"
    # A record call on the recorder: through a FlightRecorder expression in
    # the same statement, or with an EventKind as its first argument.
    RECORD_RE = re.compile(
        r"\bFlightRecorder\b[^;{}]*?\.\s*record\s*\("
        r"|\brecord\s*\(\s*(?:introspect\s*::\s*)?EventKind\s*::")

    def check_anomaly_sites(self) -> None:
        table_events, table_counters = self._anomaly_table()
        skip = (self.INTROSPECT_DIR,)
        for source, text in self.sources(skip=skip):
            clean = strip_comments_and_strings(text)
            for match in self.RECORD_RE.finditer(clean):
                self.report(
                    source, clean.count("\n", 0, match.start()) + 1,
                    "anomaly-sites",
                    "flight-recorder record call outside "
                    f"{self.INTROSPECT_DIR}/ — record the event with "
                    "introspect::anomaly(kind, code, detail)")
        for source, lineno, code, _ in self.name_args(
                self.METRIC_CALLS[:1], skip=skip):
            owned = set(re.findall(r"\b(k\w+)\b", code)) & table_counters
            for name in sorted(owned):
                self.report(
                    source, lineno, "anomaly-sites",
                    f"registry call on {name}, a counter the anomaly table "
                    "owns — bump it through introspect::anomaly()")
        for source, lineno, _, arg in self.name_args(
                self.SPAN_CALLS, skip=skip + ("src/ohpx/trace",)):
            literal = self.LITERAL_RE.fullmatch(arg)
            if literal is not None and literal.group(1) in table_events:
                self.report(
                    source, lineno, "anomaly-sites",
                    f'"{literal.group(1)}" is an anomaly table event — '
                    "emit it through introspect::anomaly()")

    # Metric registry call sites and the index of their name argument:
    # the handle lookups and convenience wrappers take it first, the RAII
    # timer (named-variable or temporary) as ScopedLatency(registry, name).
    METRIC_CALLS = (
        (re.compile(r"\b(?:counter_handle|latency_handle|increment|"
                    r"record_latency)\s*\("), 0),
        (re.compile(r"\bScopedLatency(?:\s+\w+)?\s*\("), 1))
    # Metric names are dotted lowercase ("rmi.calls"); requiring a dot keeps
    # ordinary string arguments from tripping the rule.
    METRIC_LITERAL_RE = re.compile(r'"([a-z0-9_]+(?:\.[a-z0-9_.]+)+)"')

    def check_metric_names(self) -> None:
        # src/ohpx/metrics/ is the registry and metric_names.hpp itself.
        for source, lineno, code, arg in self.name_args(
                self.METRIC_CALLS, skip=("src/ohpx/metrics",)):
            literal = self.METRIC_LITERAL_RE.search(arg)
            if literal is not None:
                self.report(
                    source, lineno, "metric-names",
                    f'raw metric name "{literal.group(1)}" at a registry '
                    "call site — route it through "
                    "src/ohpx/metrics/metric_names.hpp (a names:: constant "
                    "or derived-name builder) so the exporter, ohpx-top and "
                    "the tests share one vocabulary")
            if "+" in code:
                self.report(
                    source, lineno, "metric-names",
                    "metric name built per call — intern a "
                    "counter_handle()/latency_handle() once and bump the "
                    "handle")

    # Wall-clock waits banned from tests/: this_thread sleeps and the C
    # sleep family.  resilience::sleep_for is fine — under a ManualClock it
    # is a pure virtual-time advance, which is exactly the point.
    SLEEP_RE = re.compile(
        r"this_thread\s*::\s*sleep_(?:for|until)\s*\("
        r"|(?<![\w:])u?sleep\s*\("
        r"|(?<![\w:])nanosleep\s*\(")
    SLEEP_ALLOW_MARKER = "ohpx-lint: allow-wall-clock"

    def check_no_test_sleeps(self) -> None:
        for source, text in self.sources("tests"):
            raw_lines = text.splitlines()
            clean = strip_comments_and_strings(text)
            for lineno, line in enumerate(clean.splitlines(), 1):
                if not self.SLEEP_RE.search(line):
                    continue
                if self.SLEEP_ALLOW_MARKER in raw_lines[lineno - 1]:
                    continue
                self.report(
                    source, lineno, "no-test-sleeps",
                    "wall-clock wait in tests/ — install a resilience "
                    "ManualClock and advance virtual time, or append "
                    "`// ohpx-lint: allow-wall-clock (reason)`")

    NAKED_RE = re.compile(
        r"\bstd\s*::\s*(" + "|".join(BANNED_STD_SYNC) + r")\b")

    def check_naked_mutex(self) -> None:
        for source, lineno, match in self.matches(self.NAKED_RE,
                                                  skip=(SYNC_DIR,)):
            self.report(
                source, lineno, "naked-mutex",
                f"std::{match.group(1)} outside ohpx::sync — "
                "declare a named sync::Mutex and lock through "
                "sync::LockGuard/UniqueLock (annotated + order-validated)")

    # Braces, sync guard declarations, and the calls that block for a
    # network roundtrip: Protocol::invoke, transport::dispatch and any
    # roundtrip().
    SCOPE_RE = re.compile(
        r"(?P<open>\{)|(?P<close>\})"
        r"|(?P<guard>\bsync\s*::\s*(?:LockGuard|UniqueLock)\b)"
        r"|\b(?P<roundtrip>roundtrip)\s*\("
        r"|\btransport\s*::\s*(?P<dispatch>dispatch)\s*\("
        r"|(?:->|\.)\s*(?P<invoke>invoke)\s*\(")

    def check_lock_across_send(self) -> None:
        for source, text in self.sources(skip=(TRANSPORT_DIR, SYNC_DIR)):
            clean = strip_comments_and_strings(text)
            # One pass in source order; brace depth approximates each
            # guard's lifetime.
            depth = 0
            guards: list[tuple[int, int]] = []  # (brace depth, line)
            for match in self.SCOPE_RE.finditer(clean):
                kind = match.lastgroup
                if kind == "open":
                    depth += 1
                elif kind == "close":
                    depth -= 1
                    while guards and guards[-1][0] > depth:
                        guards.pop()
                elif kind == "guard":
                    guards.append(
                        (depth, clean.count("\n", 0, match.start()) + 1))
                elif guards:
                    self.report(
                        source, clean.count("\n", 0, match.start()) + 1,
                        "lock-across-send",
                        f"blocking {kind}() with a sync guard in scope "
                        f"(acquired line {guards[-1][1]}) — copy what you "
                        "need, drop the lock, then send")

    # `::name(` where the `::` is global scope — not `Foo::read(` (preceded
    # by an identifier or template argument close) and not `ohpx::send(`.
    BLOCKING_SOCKET_RE = re.compile(
        r"(?<![\w>])::\s*(" + "|".join(BLOCKING_SOCKET_CALLS) + r")\s*\(")

    def check_blocking_socket(self) -> None:
        # The transport layer owns its fds.
        for source, lineno, match in self.matches(self.BLOCKING_SOCKET_RE,
                                                  skip=(TRANSPORT_DIR,)):
            self.report(
                source, lineno, "blocking-socket",
                f"::{match.group(1)}() outside src/ohpx/transport/ "
                "— socket I/O and accepting listeners belong to "
                "the transport layer (Reactor::submit for outbound "
                "TCP, transport::dispatch for in-process and simulated "
                "calls, "
                "TcpListener for accepting sockets); a raw syscall "
                "parks a thread or owns an fd the reactor cannot see")

    ERROR_HPP = "src/ohpx/common/error.hpp"
    ERROR_CPP = "src/ohpx/common/error.cpp"
    RETRY_CPP = "src/ohpx/resilience/retry.cpp"

    def _switch_cases(self, rel: str, function: str) -> tuple[set, bool, int]:
        """(case labels, has default, body line) of the function matched
        by the `function` pattern in `rel`; empty if not found."""
        body, line = _body(self.lexed(rel), function)
        cases = set(re.findall(r"\bcase\s+ErrorCode\s*::\s*(\w+)", body))
        return cases, re.search(r"\bdefault\s*:", body) is not None, line

    def check_error_consistency(self) -> None:
        enum_match = re.search(r"enum\s+class\s+ErrorCode[^{]*\{(.*?)\};",
                               self.lexed(self.ERROR_HPP), re.DOTALL)
        if not enum_match:
            return
        enumerators = re.findall(r"\b([a-z_][a-z0-9_]*)\s*=\s*\d+",
                                 enum_match.group(1))
        to_string_cases, _, to_string_line = self._switch_cases(
            self.ERROR_CPP, r"to_string\s*\(\s*ErrorCode\s+\w+\s*\)")
        retry_cases, retry_default, retry_line = self._switch_cases(
            self.RETRY_CPP, r"\bis_retryable\s*\(\s*ErrorCode\s+\w+\s*\)")
        for enumerator in enumerators:
            if to_string_cases and enumerator not in to_string_cases:
                self.report(
                    self.root / self.ERROR_CPP, to_string_line,
                    "error-consistency",
                    f"ErrorCode::{enumerator} has no name in to_string()")
            if retry_cases and enumerator not in retry_cases:
                self.report(
                    self.root / self.RETRY_CPP, retry_line,
                    "error-consistency",
                    f"ErrorCode::{enumerator} has no explicit verdict in "
                    "is_retryable() — classify it (and say why)")
        if retry_cases and retry_default:
            self.report(
                self.root / self.RETRY_CPP, retry_line, "error-consistency",
                "is_retryable() must stay an exhaustive switch with no "
                "`default:` — a default silently classifies future codes")

    ENDIAN_HPP = "src/ohpx/common/endian.hpp"
    # Packing: a cast to a byte type whose argument is shifted right.
    BYTE_CAST_RE = re.compile(
        r"\bstatic_cast\s*<\s*(?:std\s*::\s*)?(?:u?int8_t|byte|"
        r"(?:(?:un)?signed\s+)?char)\s*>\s*\(")
    RIGHT_SHIFT_RE = re.compile(r">>\s*(\d+)")
    # Unpacking: an indexed byte cast wider, then shifted left.
    INDEXED_SHIFT_RE = re.compile(
        r"\bstatic_cast\s*<[^<>;]*>\s*\(\s*[\w.>-]+\s*\[[^\[\]]*\]\s*\)"
        r"\s*<<\s*(\d+)")

    def check_byte_order(self) -> None:
        def whole_bytes(amount: str) -> bool:
            return int(amount) > 0 and int(amount) % 8 == 0

        for source, text in self.sources(skip=(self.ENDIAN_HPP,)):
            clean = strip_comments_and_strings(text)
            hits = []
            for match in self.BYTE_CAST_RE.finditer(clean):
                begin, end = _call_args(clean, match.end())[0]
                if any(whole_bytes(amount) for amount in
                       self.RIGHT_SHIFT_RE.findall(clean[begin:end])):
                    hits.append(match.start())
            hits += [match.start()
                     for match in self.INDEXED_SHIFT_RE.finditer(clean)
                     if whole_bytes(match.group(1))]
            for at in hits:
                self.report(
                    source, clean.count("\n", 0, at) + 1, "byte-order",
                    "integer packed into or unpacked from bytes by hand — "
                    "use load_be/store_be/load_le/store_le from "
                    f"{self.ENDIAN_HPP}")

    # Selection finds a target's handler once; relay finds its gateway
    # (and the forwarder its target) by name; the registry is transport's.
    ENDPOINT_FINDERS = ("src/ohpx/orb/invocation.cpp",
                        "src/ohpx/protocol/relay.cpp", TRANSPORT_DIR)
    REGISTRY = r"\bEndpointRegistry\s*::\s*instance\s*\(\s*\)"
    ENDPOINT_FIND_RE = re.compile(REGISTRY + r"\s*\.\s*find\s*\(")
    REGISTRY_ALIAS_RE = re.compile(r"(\w+)\s*=\s*[\w:]*" + REGISTRY)

    def check_endpoint_lookup(self) -> None:
        for source, text in self.sources(skip=self.ENDPOINT_FINDERS):
            clean = strip_comments_and_strings(text)
            finds = [m.start() for m in self.ENDPOINT_FIND_RE.finditer(clean)]
            for alias in set(self.REGISTRY_ALIAS_RE.findall(clean)):
                finds += [m.start() for m in re.finditer(
                    r"\b" + alias + r"\s*\.\s*find\s*\(", clean)]
            for at in sorted(finds):
                self.report(
                    source, clean.count("\n", 0, at) + 1, "endpoint-lookup",
                    "endpoint found by name outside selection — dispatch "
                    "to the handle the CallTarget carries (target.handler); "
                    "a find per call takes the registry's process-wide "
                    "mutex")

    PARSE_CPP = "src/ohpx/common/parse.cpp"
    NUMBER_PARSE_RE = re.compile(
        r"\b(sto(?:i|l|ll|ul|ull|f|d|ld)"
        r"|strto(?:l|ll|ul|ull|f|d|ld|imax|umax)|ato(?:i|l|ll|f))\s*\(")

    def check_number_parse(self) -> None:
        for top in ("src", "tools", "bench"):
            for source, lineno, match in self.matches(
                    self.NUMBER_PARSE_RE, skip=(self.PARSE_CPP,), top=top):
                self.report(
                    source, lineno, "number-parse",
                    f"{match.group(1)}() reads a number outside "
                    f"{self.PARSE_CPP} — use parse_number / parse_decimal / "
                    "parse_host_port, which refuse what the text does not "
                    "spell exactly")

    # -- driver -------------------------------------------------------------

    RULES = ("pragma-once", "no-stdio", "no-naked-new", "cmake-lists",
             "cap-pairs", "chain-contract", "span-names", "anomaly-sites",
             "metric-names", "no-test-sleeps", "naked-mutex",
             "lock-across-send", "blocking-socket", "error-consistency",
             "byte-order", "endpoint-lookup", "number-parse")

    def lint(self) -> list[str]:
        """Runs every rule; the findings, deduplicated and sorted."""
        for rule in self.RULES:
            getattr(self, "check_" + rule.replace("-", "_"))()
        return sorted(self.findings)


# ---------------------------------------------------------------------------
# self-test: lint throwaway trees with injected violations and confirm the
# linter flags each one (and stays quiet on a clean tree).


def _span_names_hpp(*names: str) -> str:
    entries = "".join(f'    "{name}",\n' for name in names)
    return ("#pragma once\n"
            "namespace ohpx::trace::names {\n"
            f"inline constexpr const char* kRegistered[] = {{\n{entries}}};\n"
            "}  // namespace ohpx::trace::names\n")


def _anomaly_tree(*events: str) -> dict[str, str]:
    """The anomaly table (one row per event name, each owning the counter
    kRmiBreakerOpened) and anomaly()'s one non-literal trace::event, with
    span_names.hpp registering `events` and rmi.invoke."""
    rows = "".join(
        f'    {{EventKind::kind{i}, "kind{i}", "{event}",\n'
        "     {metrics::names::kRmiBreakerOpened}},\n"
        for i, event in enumerate(events))
    return {
        "src/ohpx/introspect/flight_recorder.hpp":
            "#pragma once\n"
            "namespace ohpx::introspect {\n"
            f"inline constexpr AnomalyRow kAnomalyTable[] = {{\n{rows}}};\n"
            "}  // namespace ohpx::introspect\n",
        "src/ohpx/introspect/flight_recorder.cpp": ANOMALY_CPP,
        "src/ohpx/trace/span_names.hpp":
            _span_names_hpp(*sorted(("rmi.invoke",) + events)),
    }


CLEAN_SOURCE = """\
#include "clean.hpp"
// a comment that says new things and printf-like words is fine
namespace ohpx { int answer() { return 42; } }
"""

CLEAN_CHAIN = """\
#include "ohpx/capability/chain.hpp"
void CapabilityChain::process_outbound(B& b, const C& c) {
  for (const auto& capability : capabilities_) capability->process(b, c);
}
void CapabilityChain::process_inbound(B& b, const C& c) {
  for (auto it = capabilities_.rbegin(); it != capabilities_.rend(); ++it)
    (*it)->unprocess(b, c);
}
"""

CLEAN_CAP_HPP = """\
#pragma once
class DemoCapability {
 public:
  void process(Buffer& b, const CallContext& c);
  void unprocess(Buffer& b, const CallContext& c);
};
"""

CLEAN_CAP_CPP = """\
#include "demo.hpp"
void DemoCapability::process(Buffer& b, const CallContext& c) {}
void DemoCapability::unprocess(Buffer& b, const CallContext& c) {}
"""

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

INPROC_HPP = """\
#pragma once
namespace ohpx::transport {
struct Buffer {};
Buffer roundtrip(const char* endpoint, const Buffer& request);
Buffer dispatch(const char* endpoint, const Buffer& request);
}  // namespace ohpx::transport
"""

TRACE_HPP = """\
#pragma once
namespace ohpx::trace {
struct Span { Span(int, const char*) {} };
void event(const char*, const char*);
}  // namespace ohpx::trace
"""

CLEAN_ORB_CPP = """\
#include "ohpx/sync/mutex.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/inproc.hpp"
namespace ohpx::orb {
class Caller {
 public:
  transport::Buffer call() {
    transport::Buffer request;
    {
      sync::LockGuard lock(mutex_);
      request = pending_;
    }  // guard dropped before the blocking send
    trace::Span span(0, "rmi.invoke");
    return transport::roundtrip("orb.peer", request);
  }
 private:
  sync::Mutex mutex_{"orb.caller"};
  transport::Buffer pending_;
};
}  // namespace ohpx::orb
"""

TRANSPORT_TCP_CPP = """\
#include "ohpx/sync/mutex.hpp"
#include "ohpx/transport/inproc.hpp"
extern "C" long send(int, const void*, unsigned long, int);
namespace ohpx::transport {
class FdLink {
 public:
  Buffer exchange(const Buffer& request) {
    sync::LockGuard lock(io_mutex_);  // exempt: serializes this fd
    Buffer reply = request;
    ::send(fd_, &reply, sizeof(reply), 0);  // exempt: transport owns fds
    return roundtrip("transport.next", reply);  // exempt: guards this hop
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

ANOMALY_CPP = """\
#include "ohpx/introspect/flight_recorder.hpp"
namespace ohpx::introspect {
void anomaly(EventKind kind, ErrorCode code, std::string_view detail) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.record(kind, code, detail);
  const AnomalyRow& row = kAnomalyTable[static_cast<std::size_t>(kind)];
  trace::event(row.event, detail);
}
}  // namespace ohpx::introspect
"""

# A minimal repo every rule accepts; each fixture writes over it.
CLEAN_TREE = {
    "src/CMakeLists.txt":
        "add_library(ohpx clean.cpp ohpx/common/error.cpp\n"
        "  ohpx/orb/caller.cpp ohpx/resilience/retry.cpp\n"
        "  ohpx/transport/tcp.cpp)\n",
    "src/clean.hpp": "#pragma once\nnamespace ohpx { int answer(); }\n",
    "src/clean.cpp": CLEAN_SOURCE,
    "src/ohpx/capability/CMakeLists.txt":
        "add_library(cap chain.cpp builtin/demo.cpp)\n",
    "src/ohpx/capability/chain.cpp": CLEAN_CHAIN,
    "src/ohpx/capability/builtin/demo.hpp": CLEAN_CAP_HPP,
    "src/ohpx/capability/builtin/demo.cpp": CLEAN_CAP_CPP,
    "src/ohpx/sync/mutex.hpp": SYNC_MUTEX_HPP,
    "src/ohpx/trace/trace.hpp": TRACE_HPP,
    "src/ohpx/trace/span_names.hpp": _span_names_hpp("rmi.invoke"),
    "src/ohpx/transport/inproc.hpp": INPROC_HPP,
    "src/ohpx/transport/tcp.cpp": TRANSPORT_TCP_CPP,
    "src/ohpx/orb/caller.cpp": CLEAN_ORB_CPP,
    "src/ohpx/common/error.hpp": ERROR_HPP,
    "src/ohpx/common/error.cpp": ERROR_CPP,
    "src/ohpx/resilience/retry.cpp": RETRY_CPP,
}

METRICS_REGISTRY_STUB = """\
namespace ohpx::metrics {
struct MetricsRegistry {
  static MetricsRegistry& global();
  unsigned long* counter_handle(const char*);
};
}  // namespace ohpx::metrics
"""

# (needles, files): each needle must appear in some finding once `files`
# are written over the clean tree; no needles means it must lint clean.
FIXTURES = [
    # -- injected violations, one rule at a time
    (["[pragma-once]"], {"src/bad.hpp": "int x;\n"}),
    (["[no-stdio]"], {"src/clean.cpp":
        '#include <cstdio>\nvoid f() { printf("hi"); }\n'}),
    (["[no-stdio]"], {"src/clean.cpp":
        "#include <iostream>\nvoid f() { std::cout << 1; }\n"}),
    (["[no-naked-new]"], {"src/clean.cpp":
        "void f() { int* p = new int(3); delete p; }\n"}),
    (["[cmake-lists]"], {"src/orphan.cpp": "int y;\n"}),
    (["[cap-pairs]"], {"src/ohpx/capability/builtin/demo.hpp":
        "#pragma once\nclass DemoCapability {\n public:\n"
        "  void process(Buffer& b, const CallContext& c);\n};\n"}),
    (["[cap-pairs]"], {"src/ohpx/capability/builtin/demo.cpp":
        '#include "demo.hpp"\n'
        "void DemoCapability::process(Buffer& b, const CallContext& c) {}\n"}),
    (["[chain-contract]"], {"src/ohpx/capability/chain.cpp":
        CLEAN_CHAIN.replace(
            "for (auto it = capabilities_.rbegin(); "
            "it != capabilities_.rend(); ++it)\n    (*it)->unprocess(b, c);",
            "for (const auto& capability : capabilities_) "
            "capability->unprocess(b, c);")}),
    (["[metric-names] metric name built per call"],
     {"src/ohpx/orb/hot.cpp":
        "void f(Registry& registry, const char* name) {\n"
        '  registry.increment("rmi.calls." + std::string(name));\n'
        "}\n"}),
    (["[span-names] span/event name is not a single string literal"],
     {"src/ohpx/orb/spanbad.cpp":
        "void f(const char* m) {\n"
        "  trace::Span span(trace::SpanKind::invoke,\n"
        '                   ("rmi." + std::string(m)).c_str());\n'
        "}\n"}),
    (["[span-names] span/event name is not a single string literal"],
     {"src/ohpx/protocol/evbad.cpp":
        "void f(const std::string& why) {\n"
        '  trace::event(("retry." + why).c_str(), "");\n'
        "}\n"}),
    (["[no-test-sleeps]"], {"tests/test_sleepy.cpp":
        "#include <thread>\n"
        "void f() {\n"
        "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
        "}\n"}),
    (["[no-test-sleeps]"], {"tests/test_usleep.cpp":
        "#include <unistd.h>\nvoid f() { usleep(100); }\n"}),
    (["[naked-mutex]"], {"src/ohpx/orb/naked.cpp":
        "#include <mutex>\n"
        "namespace ohpx::orb {\n"
        "class Table {\n"
        "  mutable std::mutex mutex_;\n"
        "};\n"
        "}  // namespace ohpx::orb\n"}),
    (["[naked-mutex]"], {"src/ohpx/orb/guarded.cpp":
        "#include <mutex>\n"
        "namespace ohpx::orb {\n"
        "std::mutex g_m;\n"
        "void f() { std::lock_guard<std::mutex> lock(g_m); }\n"
        "}  // namespace ohpx::orb\n"}),
    # Any roundtrip() call counts, whatever object it is a member of.
    (["[lock-across-send]"], {"src/ohpx/orb/heldsend.cpp":
        '#include "ohpx/sync/mutex.hpp"\n'
        '#include "ohpx/transport/inproc.hpp"\n'
        "namespace ohpx::orb {\n"
        "struct Link { transport::Buffer roundtrip(transport::Buffer b); };\n"
        "class Bad {\n"
        " public:\n"
        "  transport::Buffer call(Link& link) {\n"
        "    sync::LockGuard lock(mutex_);\n"
        "    return link.roundtrip(pending_);  // lock still held\n"
        "  }\n"
        " private:\n"
        '  sync::Mutex mutex_{"orb.bad"};\n'
        "  transport::Buffer pending_;\n"
        "};\n"
        "}  // namespace ohpx::orb\n"}),
    (["[lock-across-send]"], {"src/ohpx/protocol/nested.cpp":
        '#include "ohpx/sync/mutex.hpp"\n'
        '#include "ohpx/transport/inproc.hpp"\n'
        "namespace ohpx::proto {\n"
        "struct Link { transport::Buffer roundtrip(transport::Buffer b); };\n"
        "class Bad {\n"
        " public:\n"
        "  void call(Link& link) {\n"
        "    sync::UniqueLock lock(mutex_);\n"
        "    if (dirty_) {\n"
        "      link.roundtrip(pending_);  // outer guard in scope\n"
        "    }\n"
        "  }\n"
        " private:\n"
        '  sync::Mutex mutex_{"proto.bad"};\n'
        "  bool dirty_ = false;\n"
        "  transport::Buffer pending_;\n"
        "};\n"
        "}  // namespace ohpx::proto\n"}),
    # The in-process bearers' one exchange, as a protocol calls it.
    (["[lock-across-send]"], {"src/ohpx/protocol/heldframe.cpp":
        '#include "ohpx/sync/mutex.hpp"\n'
        '#include "ohpx/transport/inproc.hpp"\n'
        "namespace ohpx::proto {\n"
        "class Bad {\n"
        " public:\n"
        "  transport::Buffer call() {\n"
        "    sync::LockGuard lock(mutex_);\n"
        '    return transport::dispatch("proto.peer", frame_);  // held\n'
        "  }\n"
        " private:\n"
        '  sync::Mutex mutex_{"proto.frame"};\n'
        "  transport::Buffer frame_;\n"
        "};\n"
        "}  // namespace ohpx::proto\n"}),
    # TCP blocks in Protocol::invoke (parked on the reactor's reply), not
    # in a transport::roundtrip.
    (["[lock-across-send]"], {"src/ohpx/orb/heldinvoke.cpp":
        '#include "ohpx/sync/mutex.hpp"\n'
        "namespace ohpx::orb {\n"
        "struct Reply {};\n"
        "struct Protocol { virtual Reply invoke(const Reply& r) = 0; };\n"
        "class Stub {\n"
        " public:\n"
        "  Reply call(Protocol* protocol) {\n"
        "    sync::LockGuard lock(mutex_);\n"
        "    return protocol->invoke(pending_);  // held across the network\n"
        "  }\n"
        " private:\n"
        '  sync::Mutex mutex_{"orb.stub"};\n'
        "  Reply pending_;\n"
        "};\n"
        "}  // namespace ohpx::orb\n"}),
    (["has no name in to_string", "has no explicit verdict in is_retryable"],
     {"src/ohpx/common/error.hpp": ERROR_HPP.replace(
         "  deadline_exceeded = 800,",
         "  deadline_exceeded = 800,\n  brand_new_code = 900,")}),
    (["no explicit verdict", "no `default:`"],
     {"src/ohpx/resilience/retry.cpp": RETRY_CPP.replace(
         "    case ErrorCode::ok:\n"
         "    case ErrorCode::deadline_exceeded:\n"
         "      return false;\n",
         "    default:\n      return false;\n")}),
    (['"orb.mystery" is not registered'], {"src/ohpx/orb/newspan.cpp":
        "namespace ohpx::trace {\n"
        "struct Span { Span(int, const char*) {} };\n"
        "}  // namespace ohpx::trace\n"
        "namespace ohpx::orb {\n"
        'void f() { trace::Span span(0, "orb.mystery"); }\n'
        "}  // namespace ohpx::orb\n"}),
    (['"orb.ghost" has no call site'], {"src/ohpx/trace/span_names.hpp":
        _span_names_hpp("rmi.invoke", "orb.ghost")}),
    (["[blocking-socket]"], {"src/ohpx/protocol/rawsock.cpp":
        'extern "C" long send(int, const void*, unsigned long, int);\n'
        'extern "C" int connect(int, const void*, unsigned int);\n'
        "namespace ohpx::proto {\n"
        "void leak(int fd, const void* buf, unsigned long len) {\n"
        "  ::connect(fd, buf, 0);\n"
        "  ::send(fd, buf, len, 0);\n"
        "}\n"
        "}  // namespace ohpx::proto\n"}),
    (["[blocking-socket]"], {"src/ohpx/naming/rawlisten.cpp":
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
        "}  // namespace ohpx::naming\n"}),
    (['raw metric name "rmi.calls"', 'raw metric name "rmi.latency"'],
     {"src/ohpx/orb/metered.cpp":
        METRICS_REGISTRY_STUB +
        "namespace ohpx::orb {\n"
        "void f() {\n"
        '  metrics::MetricsRegistry::global().counter_handle("rmi.calls");\n'
        "  metrics::ScopedLatency timer(\n"
        '      metrics::MetricsRegistry::global(), "rmi.latency");\n'
        "}\n"
        "}  // namespace ohpx::orb\n"}),
    # -- anomalies: recorded through the table, nowhere else
    (["[anomaly-sites] flight-recorder record call"], {
        **_anomaly_tree("breaker.open"),
        "src/ohpx/orb/recorded.cpp":
            "namespace ohpx::orb {\n"
            "void f(ErrorCode code) {\n"
            "  introspect::FlightRecorder::global().record(\n"
            '      introspect::EventKind::kind0, code, "by hand");\n'
            "}\n"
            "}  // namespace ohpx::orb\n"}),
    (["[anomaly-sites] registry call on kRmiBreakerOpened"], {
        **_anomaly_tree("breaker.open"),
        "src/ohpx/orb/bumped.cpp":
            METRICS_REGISTRY_STUB +
            "namespace ohpx::orb {\n"
            "void f() {\n"
            "  metrics::MetricsRegistry::global().counter_handle(\n"
            "      metrics::names::kRmiBreakerOpened);\n"
            "}\n"
            "}  // namespace ohpx::orb\n"}),
    (['[anomaly-sites] "breaker.open" is an anomaly table event'], {
        **_anomaly_tree("breaker.open"),
        "src/ohpx/orb/emitted.cpp":
            '#include "ohpx/trace/trace.hpp"\n'
            "namespace ohpx::orb {\n"
            'void f() { trace::event("breaker.open", "tcp"); }\n'
            "}  // namespace ohpx::orb\n"}),
    (['anomaly event name "breaker.open" is not registered'], {
        **_anomaly_tree("breaker.open"),
        "src/ohpx/trace/span_names.hpp": _span_names_hpp("rmi.invoke")}),
    (["[span-names] span/event name is not a single string literal"], {
        **_anomaly_tree("breaker.open"),
        "src/ohpx/introspect/flight_recorder.cpp": ANOMALY_CPP.replace(
            "  trace::event(row.event, detail);\n",
            "  trace::event(row.event, detail);\n"
            "  trace::event(row.event, \"again\");\n")}),
    # The table alone is a call site for its events; a histogram's or the
    # trace sink's record() is not a recorder call.
    ([], {
        **_anomaly_tree("breaker.open"),
        "src/ohpx/orb/timed.cpp":
            "namespace ohpx::orb {\n"
            "void f(LatencyHistogram* latency, SpanRecord span) {\n"
            "  latency->record(kTick);\n"
            "  trace::TraceSink::global().record(span);\n"
            "}\n"
            "}  // namespace ohpx::orb\n"}),
    # -- the call-site scans lex string literals, so a `//` inside one
    #    hides nothing and a commented-out call is not a call
    (['"orb.ghost" has no call site'], {
        "src/ohpx/trace/span_names.hpp":
            _span_names_hpp("rmi.invoke", "orb.ghost"),
        "src/ohpx/orb/ghost.cpp":
            '#include "ohpx/trace/trace.hpp"\n'
            '/* retired: trace::event("orb.ghost", ""); */\n'}),
    ([], {
        "src/ohpx/trace/span_names.hpp":
            _span_names_hpp("rmi.invoke", "orb.ghost"),
        "src/ohpx/orb/ghost.cpp":
            '#include "ohpx/trace/trace.hpp"\n'
            "namespace ohpx::orb {\n"
            'void f() { const char* u = "http://x"; '
            'trace::event("orb.ghost", u); }\n'
            "}  // namespace ohpx::orb\n"}),
    ([], {"src/ohpx/orb/retired.cpp":
        "namespace ohpx::orb {\n"
        '/* registry.counter_handle("rmi.calls"); */\n'
        "}  // namespace ohpx::orb\n"}),
    # -- a digit separator is not a char literal: what follows it stays
    #    visible to every rule
    (["[no-test-sleeps]"], {"tests/test_separated.cpp":
        "void f() {\n"
        "  const long total = 104'000;\n"
        "  std::this_thread::sleep_for(kTick);\n"
        "}\n"}),
    (["[blocking-socket]"], {"src/ohpx/naming/magic.cpp":
        'extern "C" int connect(int, const void*, unsigned int);\n'
        "namespace ohpx::naming {\n"
        "constexpr unsigned long long kMagic = 0x6f68'7078'2d6e'616dULL;\n"
        "void dial(int fd, const void* addr) { ::connect(fd, addr, 16); }\n"
        "}  // namespace ohpx::naming\n"}),
    (["[metric-names]"], {"src/ohpx/orb/endpoint.cpp":
        "namespace ohpx::orb {\n"
        "void f(metrics::MetricsRegistry& registry) {\n"
        '  const char* u = "http://x"; registry.counter_handle("rmi.calls");\n'
        "}\n"
        "}  // namespace ohpx::orb\n"}),
    # -- byte order: one seeded violation per form
    (["[byte-order]"], {"src/ohpx/wire/packed.cpp":
        "namespace ohpx::wire {\n"
        "void put(unsigned char* p, unsigned v) {\n"
        "  p[0] = static_cast<std::uint8_t>(v >> 24);\n"
        "}\n"
        "}  // namespace ohpx::wire\n"}),
    (["[byte-order]"], {"src/ohpx/naming/unpacked.cpp":
        "namespace ohpx::naming {\n"
        "unsigned get(const unsigned char* p) {\n"
        "  return (static_cast<std::uint32_t>(p[1]) << 8) | p[0];\n"
        "}\n"
        "}  // namespace ohpx::naming\n"}),
    # -- endpoint-lookup: a bearer finding its endpoint per call, directly
    # and through a reference to the registry
    (["[endpoint-lookup]"], {"src/ohpx/protocol/shm.cpp":
        "namespace ohpx::proto {\n"
        "Reply ShmProtocol::invoke(const Header& h, const Target& target) {\n"
        "  return transport::dispatch(\n"
        "      transport::EndpointRegistry::instance().find(\n"
        "          target.address.endpoint),\n"
        "      target.address.endpoint, h);\n"
        "}\n"
        "}  // namespace ohpx::proto\n"}),
    (["[endpoint-lookup]"], {"src/ohpx/protocol/mcast.cpp":
        "namespace ohpx::proto {\n"
        "Reply McastProtocol::invoke(const Header& h, const Target& target) {\n"
        "  auto& registry = transport::EndpointRegistry::instance();\n"
        "  const auto handler = registry.find(target.address.endpoint);\n"
        "  return transport::dispatch(handler, target.address.endpoint, h);\n"
        "}\n"
        "}  // namespace ohpx::proto\n"}),
    # Selection, relay and the transport find; binding is fine anywhere,
    # and so are other maps' find() and a mention in a comment.
    ([], {"src/ohpx/orb/invocation.cpp":
              "namespace ohpx::orb {\n"
              "Target CallCore::resolve_target() const {\n"
              "  Target target;\n"
              "  target.handler =\n"
              "      transport::EndpointRegistry::instance().find(\n"
              "          target.address.endpoint);\n"
              "  return target;\n"
              "}\n"
              "}  // namespace ohpx::orb\n",
          "src/ohpx/protocol/relay.cpp":
              "namespace ohpx::proto {\n"
              "bool RelayProtocol::applicable(const Target&) const {\n"
              "  auto& registry = transport::EndpointRegistry::instance();\n"
              "  return registry.find(gateway_endpoint_) != nullptr;\n"
              "}\n"
              "}  // namespace ohpx::proto\n",
          "src/ohpx/transport/registry_ok.cpp":
              "namespace ohpx::transport {\n"
              "Handle lookup(const std::string& name) {\n"
              "  return EndpointRegistry::instance().find(name);\n"
              "}\n"
              "}  // namespace ohpx::transport\n",
          "src/ohpx/orb/binds.cpp":
              "namespace ohpx::orb {\n"
              "// not EndpointRegistry::instance().find(name) per call\n"
              "void Binds::bind(const std::string& name) {\n"
              "  auto& registry = transport::EndpointRegistry::instance();\n"
              "  registry.bind(name, handler_);\n"
              "  (void)servants_.find(name);\n"
              "  transport::EndpointRegistry::instance().unbind(name);\n"
              "}\n"
              "}  // namespace ohpx::orb\n"}),
    # -- number-parse: one seeded reader per scanned directory
    (["[number-parse]"], {"src/ohpx/netsim/dsl.cpp":
        "namespace ohpx::netsim {\n"
        "double mbps(const std::string& text) { return std::stod(text); }\n"
        "}  // namespace ohpx::netsim\n"}),
    (["[number-parse]"], {"tools/top.cpp":
        "int port(const char* arg) { return std::atoi(arg); }\n"}),
    (["[number-parse]"], {"bench/bench_hold.cpp":
        "double hold(const char* arg) { return strtod(arg, nullptr); }\n"}),
    # The strict readers themselves, look-alike names, from_chars, a
    # mention in a comment or a string, and tests/, which the rule leaves
    # out.
    ([], {"src/ohpx/common/parse.cpp":
              "namespace ohpx {\n"
              "unsigned long long legacy(const char* s) {\n"
              "  return std::strtoull(s, nullptr, 10);\n"
              "}\n"
              "}  // namespace ohpx\n",
          "tools/flags.cpp":
              "// not std::stoi(text): parse_number(text, 1)\n"
              "void f(unsigned char* p, const char* b, const char* e,\n"
              "       double& v) {\n"
              "  store_be(p, 1u);\n"
              "  std::from_chars(b, e, v);\n"
              '  const char* doc = "atoi(argv[1])";\n'
              "  (void)doc;\n"
              "}\n",
          "tests/test_flags.cpp":
              "int f(const char* s) { return std::atoi(s); }\n"}),
    # -- false-positive guards: each must lint clean
    ([], {"src/clean.cpp":
        '#include "clean.hpp"\n'
        "// registering under a new name; delete old entries\n"
        "/* new delete printf std::cout */\n"
        'const char* kDoc = "use new printf std::cout delete";\n'
        "struct NoCopy { NoCopy(const NoCopy&) = delete; };\n"}),
    # Raw strings with empty *and* non-empty delimiters: an embedded `)"`
    # must not end a non-empty-delimiter literal and leak its tail.
    ([], {"src/clean.cpp":
        '#include "clean.hpp"\n'
        'const char* kEmpty = R"(new delete printf std::cout)";\n'
        'const char* kNamed = R"ohpx(quote )" then new printf\n'
        'std::cerr << delete across lines)ohpx";\n'
        "namespace ohpx { int answer() { return 42; } }\n"}),
    # Interned names are fine, and so is arithmetic on the delta.
    ([], {"src/ohpx/orb/ok.cpp":
        "void f(Registry& registry, unsigned n) {\n"
        "  registry.increment(names::kRmiCalls);\n"
        "  registry.increment(names::kRmiCalls, n + 1);\n"
        "}\n"}),
    # Registered literal names with dynamic *annotations*.
    ([], {"src/ohpx/trace/span_names.hpp":
              _span_names_hpp("retry.stale_ref", "rmi.invoke"),
          "src/ohpx/orb/spanok.cpp":
              "void f(const std::string& proto) {\n"
              '  trace::Span span(trace::SpanKind::invoke, "rmi.invoke");\n'
              '  span.annotate("proto:" + proto);\n'
              '  trace::event("retry.stale_ref", "epoch " + proto);\n'
              "}\n"}),
    # The resilience clock, virtual-time advances, and explicitly marked
    # wall-clock waits.
    ([], {"tests/test_clocked.cpp":
        "void f(resilience::ManualClock& clock) {\n"
        "  resilience::sleep_for(std::chrono::milliseconds(5));\n"
        "  clock.advance(std::chrono::milliseconds(5));\n"
        "  std::this_thread::sleep_for(kTick);"
        "  // ohpx-lint: allow-wall-clock (thread-pool timing)\n"
        "}\n"}),
    ([], {"src/ohpx/orb/reader.cpp":  # a member read() is not the syscall
        "namespace ohpx::orb {\n"
        "struct Codec { long read(void*, unsigned long); };\n"
        "void f(Codec& codec, void* buf) { codec.Codec::read(buf, 1); }\n"
        "}  // namespace ohpx::orb\n"}),
    ([], {"src/ohpx/transport/listener_ok.cpp":  # transport owns its fds
        'extern "C" int socket(int, int, int);\n'
        'extern "C" int listen(int, int);\n'
        "namespace ohpx::transport {\n"
        "int open_listener() {\n"
        "  const int fd = ::socket(2, 1, 0);\n"
        "  ::listen(fd, 8);\n"
        "  return fd;\n"
        "}\n"
        "}  // namespace ohpx::transport\n"}),
    ([], {"src/ohpx/orb/binder.cpp":  # only global-scope ::bind( is
        "namespace std { template <class F> F bind(F f) { return f; } }\n"
        "namespace ohpx::orb {\n"
        "struct Directory { void bind(int); };\n"
        "void f(Directory& directory) {\n"
        "  directory.bind(1);\n"
        "  (void)std::bind(0);\n"
        "}\n"
        "}  // namespace ohpx::orb\n"}),
    ([], {"src/ohpx/orb/metered_ok.cpp":
        "namespace ohpx::metrics::names {\n"
        'inline constexpr const char* kRmiCalls = "rmi.calls";\n'
        "}  // namespace ohpx::metrics::names\n" +
        METRICS_REGISTRY_STUB +
        "namespace ohpx::orb {\n"
        "void f() {\n"
        "  metrics::MetricsRegistry::global().counter_handle(\n"
        "      metrics::names::kRmiCalls);\n"
        "}\n"
        "}  // namespace ohpx::orb\n"}),
    # endian.hpp itself, a computed shift, a shifted scalar that is not
    # an indexed byte, and a non-byte cast of a right shift.
    ([], {"src/ohpx/common/endian.hpp":
              "#pragma once\n"
              "template <class U> U swap16(U v) {\n"
              "  return static_cast<U>((v << 8) | (v >> 8));\n"
              "}\n"
              "inline unsigned char hi(unsigned v) {\n"
              "  return static_cast<unsigned char>(v >> 8);\n"
              "}\n",
          "src/ohpx/crypto/tail.cpp":
              "namespace ohpx::crypto {\n"
              "void tail(unsigned char* p, unsigned long ks, int b,\n"
              "          unsigned id, unsigned long total) {\n"
              "  p[b] ^= static_cast<std::uint8_t>(ks >> (8 * b));\n"
              "  unsigned long key = static_cast<std::uint64_t>(id) << 40;\n"
              "  key |= static_cast<std::uint64_t>(total & 0xff) << 56;\n"
              "  const unsigned half = static_cast<std::uint32_t>(key >> 32);\n"
              "  (void)half;\n"
              "}\n"
              "}  // namespace ohpx::crypto\n"}),
    ([], {"src/ohpx/metrics/metrics.cpp":  # the registry owns the names
        "namespace ohpx::metrics {\n"
        "struct MetricsRegistry { unsigned long* counter_handle(const char*);"
        " };\n"
        "void warm(MetricsRegistry& registry) {\n"
        '  registry.counter_handle("rmi.calls");\n'
        "}\n"
        "}  // namespace ohpx::metrics\n"}),
]


def _lint_tree(files: dict[str, str], register: bool = True) -> list[str]:
    """Lints the clean tree with `files` written over it.  Unless told not
    to, new src/ sources are listed in src/CMakeLists.txt so a fixture
    trips only the rule it targets."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in {**CLEAN_TREE, **files}.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        if register:
            with (root / "src" / "CMakeLists.txt").open("a") as listfile:
                listfile.writelines(rel.removeprefix("src/") + "\n"
                                    for rel in files if rel.endswith(".cpp")
                                    and rel.startswith("src/"))
        return Linter(root).lint()


def self_test() -> int:
    failures: list[str] = []

    def expect(condition: bool, label: str) -> None:
        if not condition:
            failures.append(label)

    violations = _lint_tree({})
    expect(not violations, f"clean tree flagged: {violations}")

    for needles, files in FIXTURES:
        violations = _lint_tree(files, register=needles != ["[cmake-lists]"])
        where = ", ".join(files)
        if not needles:
            expect(not violations,
                   f"{where}: expected a clean tree (got: {violations})")
        for needle in needles:
            expect(any(needle in v for v in violations),
                   f"{where}: expected a finding with {needle!r} "
                   f"(got: {violations})")

    # The stripper on its own: a non-empty raw delimiter runs to its exact
    # closer, and the code around raw strings survives.
    stripped = strip_comments_and_strings(
        'a R"(x " y)" b R"id(close )" new "inner)id" c "s" d')
    expect("new" not in stripped,
           f"non-empty raw delimiter terminated early: {stripped!r}")
    for marker in ("a", "b", "c", "d"):
        expect(re.search(rf"\b{marker}\b", stripped) is not None,
               f"stripper ate code around raw strings: {stripped!r}")

    # Digit separators stay code; char literals, prefixed or not, do not.
    stripped = strip_comments_and_strings(
        "a = 0x6f68'7078ULL; b = 1'000.5'0; c = u8'q'; d = L'\\''; e = '7';")
    for kept in ("0x6f68'7078ULL", "1'000.5'0", "c = u8", "d = L", "e ="):
        expect(kept in stripped,
               f"stripper blanked code {kept!r}: {stripped!r}")
    for blanked in ("'q'", "'7'", "\\'"):
        expect(blanked not in stripped,
               f"char literal {blanked!r} survived: {stripped!r}")

    if failures:
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}")
        return 1
    print(f"ohpx-lint self-test: OK ({1 + len(FIXTURES)} fixtures verified)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the repo containing "
                             "this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter catches injected violations")
    options = parser.parse_args()
    if options.self_test:
        return self_test()
    root = options.root.resolve()
    if not (root / "src").is_dir():
        print(f"ohpx-lint: no src/ under {root}", file=sys.stderr)
        return 2
    violations = Linter(root).lint()
    for violation in violations:
        print(violation)
    if violations:
        print(f"ohpx-lint: {len(violations)} violation(s)")
        return 1
    print(f"ohpx-lint: OK ({len(Linter.RULES)} rules clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
