// Shared scaffolding for the benchmark suite.
//
// The Figure 5 benches reproduce the paper's bandwidth-vs-size experiment:
// a client exchanges arrays of int32 with a server over four protocol
// configurations, sizes 1 … 1M elements.  Time per call is the hybrid cost
// model (real CPU time for marshalling/capabilities + modeled wire time for
// the simulated link — DESIGN.md §7); google-benchmark consumes it through
// SetIterationTime/UseManualTime, so the reported "time" and bandwidth are
// the modeled-network numbers, deterministic across runs.
//
// Bandwidth convention: bytes counted in both directions (request payload +
// reply payload), matching a saturation plateau at the link rate.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "ohpx/scenario/figure5.hpp"

namespace ohpx::bench {

using scenario::Figure5World;

/// Array sizes (int32 elements): 1 … 1M in powers of 4, as in Figure 5's
/// log-log sweep.
inline std::vector<std::int64_t> figure5_sizes() {
  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 1; n <= (1 << 20); n *= 4) sizes.push_back(n);
  return sizes;
}

/// Runs the echo exchange for `state` with the hybrid cost model feeding
/// google-benchmark's manual time, and reports Mbps (both directions).
inline void run_echo_series(benchmark::State& state,
                            scenario::EchoPointer& gp) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int32_t> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<std::int32_t>(i);

  double total_seconds = 0.0;
  for (auto _ : state) {
    CostLedger ledger;
    auto reply = gp->echo_with_cost(ledger, values);
    benchmark::DoNotOptimize(reply);
    const double seconds = ledger.total_seconds();
    state.SetIterationTime(seconds);
    total_seconds += seconds;
  }

  const double bytes_per_iter = 2.0 * 4.0 * static_cast<double>(n);
  state.SetBytesProcessed(static_cast<std::int64_t>(
      bytes_per_iter * static_cast<double>(state.iterations())));
  const double mbps = bytes_per_iter * 8.0 *
                      static_cast<double>(state.iterations()) /
                      (total_seconds * 1e6);
  state.counters["Mbps"] = mbps;
  state.counters["bytes"] = bytes_per_iter / 2.0;  // one-way payload size
}

/// The byte-cost floor: memcpy of state.range(0) bytes between two warm
/// buffers.  Every bench with per-byte arms registers it, so the bytes
/// gate (tools/check_bench_json.py bytes) can express each arm as a
/// bytes/s ratio against a memcpy measured in the same run.
inline void Memcpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<std::uint8_t> src(n, 0xab);
  std::vector<std::uint8_t> dst(n);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// ---------------------------------------------------------------------------
// JSON emission.  Every bench binary accepts `--json <path>` in addition to
// the usual --benchmark_* flags; google-benchmark mains route it through
// bench_main() below, hand-rolled mains (bench_invoke_fastpath) write their
// records with write_json_records().  Both produce a top-level
// {"benchmarks": [...]} array so downstream tooling reads either shape.
// ---------------------------------------------------------------------------

/// Strips a `--json <path>` (or `--json=<path>`) flag from argv.
/// Returns the path, or "" when the flag is absent.
inline std::string consume_json_flag(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return path;
}

/// One result row for hand-rolled bench mains: a name plus flat numeric
/// metrics (times in ns, rates in calls/s — whatever the bench reports).
struct JsonRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
};

/// Writes `records` to `path` as {"benchmarks": [{"name": ..., <metric>:
/// <value>, ...}, ...]}.  Non-finite values are emitted as 0 (JSON has no
/// inf/nan).  Returns false when the file cannot be opened.
inline bool write_json_records(const std::string& path,
                               const std::vector<JsonRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << "    {\n      \"name\": \"" << records[i].name << "\"";
    for (const auto& [key, value] : records[i].metrics) {
      char formatted[64];
      std::snprintf(formatted, sizeof(formatted), "%.6g",
                    std::isfinite(value) ? value : 0.0);
      out << ",\n      \"" << key << "\": " << formatted;
    }
    out << "\n    }" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

/// Shared main() for the google-benchmark benches: `--json <path>` tees the
/// run into a JSON file while the console report stays on stdout.  The flag
/// is translated into google-benchmark's own --benchmark_out pair rather
/// than a hand-constructed file reporter: passing a reporter without
/// --benchmark_out is rejected by the library (1.7 errors out), while the
/// flag form works across versions.
inline int bench_main(int argc, char** argv) {
  const std::string json_path = consume_json_flag(argc, argv);
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag;
  if (!json_path.empty()) {
    out_flag = "--benchmark_out=" + json_path;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace ohpx::bench
