#!/usr/bin/env python3
"""check_bench_json: gate benchmark JSON emitted by the bench suite.

Every gate is expressed as a *within-run ratio* rather than absolute
nanoseconds: CI runners (and shared-host dev boxes) differ wildly in raw
speed and in neighbor noise, but both arms of a ratio share the same run,
the same machine, and the same noise — so the ratio is the portable
quantity.

  fanin     BENCH_fanin.json must show N pipelined async calls beating
            one-at-a-time sync calls over the same reactor connection by
            at least --min-speedup (reactor/serial calls per second): the
            batching and correlation demux must hide most of the per-call
            roundtrip.  The sync calls must also keep at least
            MIN_SERIAL_OVER_BARE of the bare loopback round-trip rate
            measured in the same run (serial/bare calls per second): the
            ORB's overhead on the sync TCP bearer, end to end minus the
            bare transport.

  naming    BENCH_naming.json must show (a) World::find_context_of staying
            O(1)-ish — the 512-context arm may cost at most
            --max-find-ratio times the 8-context arm, where a linear scan
            would cost ~64x — (b) the NameClient resolve cache still
            earning its keep: the fresh (uncached) resolve must be at
            least --min-cache-speedup times slower than the cached probe —
            and (c) the replicated-directory endpoint walk staying free on
            the healthy path: a 2-endpoint client's fresh resolve may cost
            at most --max-multiendpoint-ratio times a 1-endpoint client's.

  bytes     BENCH_bytes.json pins the per-byte cost of the bulk call path:
            authentication and encryption over 256 KiB, and encode/decode
            of 65,536 int32.  Each arm is taken as a bytes/s ratio to the
            Memcpy/262144 arm of the same bench run (bench_wire and
            bench_capability_kinds each register one), and must stay within
            --tolerance of the committed ratio.  A kernel falling back to a
            byte loop, or a copy creeping back in, drops its ratio; a slow
            runner drops memcpy with it.  --update rewrites the baseline
            from the given runs instead of gating.

  fastpath  BENCH_fastpath.json must keep the selection cache's
            cached-over-uncached speedup within --tolerance of the
            committed baseline's speedup.  A hot-path regression that
            slows *only* the cached arm shrinks the ratio and trips the
            gate; noise that slows the whole run does not (it moves both
            arms together).  This is the "<5% cached-p50 regression"
            budget in ratio form.

Usage:
  python3 tools/check_bench_json.py fanin FANIN.json [--min-speedup 5.0]
  python3 tools/check_bench_json.py naming NAMING.json \
      [--max-find-ratio 8.0] [--min-cache-speedup 3.0] \
      [--max-multiendpoint-ratio 1.2]
  python3 tools/check_bench_json.py fastpath FRESH.json BASELINE.json \
      [--tolerance 0.05]
  python3 tools/check_bench_json.py bytes BASELINE.json FRESH.json... \
      [--tolerance 0.3] [--update]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys


def fail(message: str) -> int:
    print(f"check_bench_json: FAIL: {message}")
    return 1


def load_records(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(fail(f"{path}: {error}"))
    records = doc.get("benchmarks")
    if not isinstance(records, list):
        raise SystemExit(fail(f"{path}: no top-level 'benchmarks' list"))
    return {r.get("name"): r for r in records if isinstance(r, dict)}


def record_value(records: dict, path: str, name: str, key: str) -> float:
    record = records.get(name)
    if record is None:
        raise SystemExit(fail(f"{path}: missing record '{name}'"))
    value = record.get(key)
    if not isinstance(value, (int, float)):
        raise SystemExit(fail(f"{path}: '{name}' lacks numeric '{key}'"))
    return float(value)


# Floor on fanin/speedup's serial_over_bare: under half the lowest of 24
# smoke runs (0.284).  It catches a collapse of the sync TCP path.
MIN_SERIAL_OVER_BARE = 0.14


def check_fanin(options: argparse.Namespace) -> int:
    records = load_records(options.json)
    speedup = record_value(records, options.json, "fanin/speedup",
                           "reactor_over_serial")
    inflight = record_value(records, options.json, "fanin/speedup",
                            "inflight")
    serial_over_bare = record_value(records, options.json, "fanin/speedup",
                                    "serial_over_bare")
    if speedup < options.min_speedup:
        return fail(
            f"fanin speedup {speedup:.2f}x @ {inflight:.0f} in flight is "
            f"below the {options.min_speedup:.2f}x floor")
    if serial_over_bare < MIN_SERIAL_OVER_BARE:
        return fail(
            f"fanin serial/bare {serial_over_bare:.3f} is below the "
            f"{MIN_SERIAL_OVER_BARE:.3f} floor: the ORB's sync TCP "
            f"path lost ground against the bare loopback round trip")
    print(f"check_bench_json: OK: fanin reactor/serial {speedup:.2f}x "
          f"@ {inflight:.0f} in flight (floor {options.min_speedup:.2f}x), "
          f"serial/bare {serial_over_bare:.3f} "
          f"(floor {MIN_SERIAL_OVER_BARE:.3f})")
    return 0


def check_naming(options: argparse.Namespace) -> int:
    records = load_records(options.json)
    find_small = record_value(records, options.json, "Name_FindContext/8",
                              "real_time")
    find_large = record_value(records, options.json, "Name_FindContext/512",
                              "real_time")
    if find_small <= 0:
        return fail("Name_FindContext/8 real_time is not positive")
    find_ratio = find_large / find_small
    if find_ratio > options.max_find_ratio:
        return fail(
            f"find_context_of 512/8-context time ratio {find_ratio:.2f}x "
            f"exceeds {options.max_find_ratio:.2f}x — the context index "
            f"degraded toward a linear scan (~64x)")

    cached = record_value(records, options.json, "Name_ClientResolveCached",
                          "real_time")
    fresh = record_value(records, options.json, "Name_ClientResolveFresh",
                         "real_time")
    if cached <= 0:
        return fail("Name_ClientResolveCached real_time is not positive")
    cache_speedup = fresh / cached
    if cache_speedup < options.min_cache_speedup:
        return fail(
            f"NameClient fresh/cached resolve ratio {cache_speedup:.2f}x is "
            f"below the {options.min_cache_speedup:.2f}x floor — the "
            f"resolve cache stopped paying for itself")
    fresh_2ep = record_value(records, options.json,
                             "Name_ClientResolveFresh2EP", "real_time")
    if fresh <= 0:
        return fail("Name_ClientResolveFresh real_time is not positive")
    multiendpoint_ratio = fresh_2ep / fresh
    if multiendpoint_ratio > options.max_multiendpoint_ratio:
        return fail(
            f"2-endpoint/1-endpoint fresh-resolve ratio "
            f"{multiendpoint_ratio:.2f}x exceeds "
            f"{options.max_multiendpoint_ratio:.2f}x — the replicated-"
            f"directory endpoint walk is taxing the healthy path")

    print(f"check_bench_json: OK: naming find-context 512/8 "
          f"{find_ratio:.2f}x (cap {options.max_find_ratio:.2f}x), "
          f"resolve fresh/cached {cache_speedup:.2f}x "
          f"(floor {options.min_cache_speedup:.2f}x), "
          f"2-endpoint overhead {multiendpoint_ratio:.2f}x "
          f"(cap {options.max_multiendpoint_ratio:.2f}x)")
    return 0


def check_fastpath(options: argparse.Namespace) -> int:
    fresh = load_records(options.json)
    base = load_records(options.baseline)
    fresh_speedup = record_value(fresh, options.json,
                                 "invoke_fastpath/speedup",
                                 "cached_over_uncached")
    base_speedup = record_value(base, options.baseline,
                                "invoke_fastpath/speedup",
                                "cached_over_uncached")
    floor = base_speedup * (1.0 - options.tolerance)
    if fresh_speedup < floor:
        return fail(
            f"fastpath cached/uncached speedup {fresh_speedup:.2f}x fell "
            f"below {floor:.2f}x (baseline {base_speedup:.2f}x minus "
            f"{options.tolerance:.0%} tolerance) — the cached arm "
            f"regressed relative to the uncached arm")
    print(f"check_bench_json: OK: fastpath cached/uncached "
          f"{fresh_speedup:.2f}x vs baseline {base_speedup:.2f}x "
          f"(floor {floor:.2f}x)")
    return 0


# The arms the bytes gate holds, and the memcpy arm each is measured
# against (registered in every bench binary with per-byte arms).
BYTES_ARMS = ("Cap_Authentication/262144", "Cap_Encryption/262144",
              "EncodeIntArray/65536", "DecodeIntArray/65536")
MEMCPY_ARM = "Memcpy/262144"


def bytes_ratios(paths: list) -> dict:
    """Maps each gated arm found in `paths` to its record, with the ratio
    of its bytes/s to the memcpy arm of the same file."""
    found = {}
    for path in paths:
        records = load_records(path)
        arms = [name for name in BYTES_ARMS if name in records]
        if not arms:
            continue
        memcpy = record_value(records, path, MEMCPY_ARM, "bytes_per_second")
        if memcpy <= 0:
            raise SystemExit(fail(f"{path}: {MEMCPY_ARM} bytes_per_second "
                                  f"is not positive"))
        for name in arms:
            rate = record_value(records, path, name, "bytes_per_second")
            found[name] = {"name": name, "over_memcpy": rate / memcpy,
                           "bytes_per_second": rate,
                           "memcpy_bytes_per_second": memcpy}
    missing = [name for name in BYTES_ARMS if name not in found]
    if missing:
        raise SystemExit(fail(f"no run holds {', '.join(missing)}"))
    return found


def check_bytes(options: argparse.Namespace) -> int:
    fresh = bytes_ratios(options.fresh)
    if options.update:
        with open(options.fresh[0], "r", encoding="utf-8") as handle:
            run_context = json.load(handle).get("context", {})
        context = {key: run_context[key]
                   for key in ("num_cpus", "mhz_per_cpu")
                   if key in run_context}
        context.update(machine=platform.machine(), memcpy_arm=MEMCPY_ARM)
        doc = {"context": context,
               "benchmarks": [fresh[name] for name in BYTES_ARMS]}
        with open(options.baseline, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        print(f"check_bench_json: wrote {options.baseline}")
        return 0
    base = load_records(options.baseline)
    failures = []
    for name in BYTES_ARMS:
        base_ratio = record_value(base, options.baseline, name, "over_memcpy")
        floor = base_ratio * (1.0 - options.tolerance)
        ratio = fresh[name]["over_memcpy"]
        verdict = "ok" if ratio >= floor else "BELOW FLOOR"
        print(f"  {name:28s} {ratio:.4f} x memcpy (baseline {base_ratio:.4f}, "
              f"floor {floor:.4f}) {verdict}")
        if ratio < floor:
            failures.append(name)
    if failures:
        return fail(f"per-byte cost regressed on {', '.join(failures)} "
                    f"(more than {options.tolerance:.0%} below the committed "
                    f"bytes/s-over-memcpy ratio)")
    print(f"check_bench_json: OK: bytes arms within {options.tolerance:.0%} "
          f"of the committed ratios")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    fanin = sub.add_parser("fanin", help="gate BENCH_fanin.json")
    fanin.add_argument("json", help="fanin bench JSON")
    fanin.add_argument("--min-speedup", type=float, default=2.0,
                       help="minimum reactor/serial speedup "
                            "(default 2.0)")
    fanin.set_defaults(run=check_fanin)

    naming = sub.add_parser("naming", help="gate BENCH_naming.json")
    naming.add_argument("json", help="naming bench JSON")
    naming.add_argument("--max-find-ratio", type=float, default=8.0,
                        help="maximum find_context_of time ratio between "
                             "the 512- and 8-context arms (default 8.0; a "
                             "linear scan would be ~64)")
    naming.add_argument("--min-cache-speedup", type=float, default=3.0,
                        help="minimum fresh/cached resolve time ratio "
                             "(default 3.0)")
    naming.add_argument("--max-multiendpoint-ratio", type=float, default=1.2,
                        help="maximum fresh-resolve time ratio between a "
                             "2-endpoint client and a 1-endpoint client "
                             "when the first endpoint is healthy "
                             "(default 1.2) — the endpoint walk must cost "
                             "nothing while nothing fails")
    naming.set_defaults(run=check_naming)

    fastpath = sub.add_parser("fastpath", help="gate BENCH_fastpath.json")
    fastpath.add_argument("json", help="freshly produced fastpath JSON")
    fastpath.add_argument("baseline", help="committed baseline JSON")
    fastpath.add_argument("--tolerance", type=float, default=0.05,
                          help="allowed relative speedup loss "
                               "(default 0.05 = 5%%)")
    fastpath.set_defaults(run=check_fastpath)

    bytes_gate = sub.add_parser("bytes", help="gate BENCH_bytes.json")
    bytes_gate.add_argument("baseline", help="committed baseline JSON")
    bytes_gate.add_argument("fresh", nargs="+",
                            help="fresh bench_wire / bench_capability_kinds "
                                 "JSON runs")
    bytes_gate.add_argument("--tolerance", type=float, default=0.3,
                            help="allowed relative loss of an arm's "
                                 "bytes/s-over-memcpy ratio (default 0.3)")
    bytes_gate.add_argument("--update", action="store_true",
                            help="rewrite the baseline from the fresh runs")
    bytes_gate.set_defaults(run=check_bytes)

    options = parser.parse_args()
    return options.run(options)


if __name__ == "__main__":
    sys.exit(main())
