// trace_dump: run a representative traced workload and print the recorded
// spans — the quickest way to see what the ohpx::trace subsystem captures
// and to eyeball the exporters without writing a program.
//
// The workload covers the interesting pipeline shapes: plain same-LAN
// calls (nexus-tcp), capability-glued calls (auth + checksum chain), a
// migration mid-stream (cache invalidation + stale-reference retry), and
// a ratio-sampled burst.
//
// Usage:  trace_dump [--format chrome|text] [--out FILE] [--calls N]
//
//   --format chrome   Chrome trace_event JSON (chrome://tracing, Perfetto)
//   --format text     aligned call trees, one per root span (default)
//   --out FILE        write to FILE instead of stdout
//   --calls N         plain calls per phase, 1 to 1,000,000 (default 4)
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "ohpx/common/parse.hpp"
#include "ohpx/ohpx.hpp"
#include "ohpx/scenario/echo.hpp"

namespace {

using namespace ohpx;

int run_workload(int calls) {
  runtime::World world;
  const netsim::LanId lan = world.add_lan("lan");
  const netsim::MachineId m0 = world.add_machine("client", lan);
  const netsim::MachineId m1 = world.add_machine("server-a", lan);
  const netsim::MachineId m2 = world.add_machine("server-b", lan);

  orb::Context& client = world.create_context(m0);
  orb::Context& server_a = world.create_context(m1);
  orb::Context& server_b = world.create_context(m2);

  auto servant = std::make_shared<scenario::EchoServant>();
  orb::ObjectRef ref = orb::RefBuilder(server_a, servant).build();
  scenario::EchoPointer echo(client, ref);
  for (int i = 0; i < calls; ++i) echo->ping();

  // A capability-glued reference: each call shows the cap.process /
  // cap.unprocess spans on both sides of the wire.
  auto auth = std::make_shared<cap::AuthenticationCapability>(
      crypto::Key128::from_passphrase("trace-demo"), "trace-demo",
      cap::Scope::always);
  auto checksum = std::make_shared<cap::ChecksumCapability>();
  orb::ObjectRef glued =
      orb::RefBuilder(server_a, ref.object_id()).glue({auth, checksum}).build();
  scenario::EchoPointer metered(client, glued);
  for (int i = 0; i < calls; ++i) metered->ping();

  // Migrate the object mid-stream: the next call records the fast-path
  // cache invalidation and re-selection in the trace.
  runtime::migrate_shared(ref.object_id(), server_a, server_b);
  for (int i = 0; i < calls; ++i) echo->ping();
  return 3 * calls;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string out_path;
  int calls = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::optional<std::uint64_t> number;
    if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--calls" && i + 1 < argc &&
               (number = parse_number(argv[++i], 1, 1'000'000))) {
      calls = static_cast<int>(*number);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--format chrome|text] [--out FILE] "
                   "[--calls N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (format != "chrome" && format != "text") {
    std::fprintf(stderr, "unknown format '%s' (chrome|text)\n",
                 format.c_str());
    return 2;
  }

  trace::TraceSink::global().set_sampling(trace::Sampling::always);
  const int made = run_workload(calls);
  trace::TraceSink::global().set_sampling(trace::Sampling::off);

  const trace::TraceSnapshot snap = trace::TraceSink::global().snapshot();
  const std::string rendered = format == "chrome"
                                   ? trace::to_chrome_json(snap)
                                   : trace::to_text_tree(snap);
  if (out_path.empty()) {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << rendered;
    std::fprintf(stderr, "%d calls -> %zu spans -> %s\n", made,
                 snap.spans.size(), out_path.c_str());
  }
  return 0;
}
