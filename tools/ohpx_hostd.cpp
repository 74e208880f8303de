// ohpx-hostd — a process-hosted context daemon (docs/deployment.md).
//
// Boots a runtime::ProcessHost from flags/config, serves the scenario
// echo servant, and (with --serve NAME) advertises it as a replica of
// NAME at the ohpx-named directory, heartbeats included.  Several hostd
// processes advertising the same name form a replica set clients fail
// over across.
//
//   ohpx-named --port 7400 &
//   ohpx-hostd --named 127.0.0.1:7400 --machine srv-a --serve svc/echo &
//   ohpx-hostd --named 127.0.0.1:7400 --machine srv-b --serve svc/echo &
//
// stdout protocol (consumed by scripts and the multiprocess test): the
// first line is "READY <pid> <port> <replica-id>", flushed before serving.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/common/parse.hpp"
#include "ohpx/ohpx.hpp"
#include "ohpx/runtime/process_host.hpp"
#include "ohpx/scenario/echo.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace ohpx;

  // Split our own flags (--serve, --run-ms) from the ProcessHostConfig
  // flags, which from_args parses strictly.
  std::string serve_name;
  std::int64_t run_ms = 0;
  std::vector<const char*> config_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--serve" && i + 1 < argc) {
      serve_name = argv[++i];
    } else if (flag == "--run-ms" && i + 1 < argc) {
      const auto parsed = parse_number(argv[++i], 0, kMaxMilliseconds);
      if (!parsed) {
        std::fprintf(stderr,
                     "ohpx-hostd: --run-ms wants a number >= 0, got '%s'\n",
                     argv[i]);
        return 1;
      }
      run_ms = *parsed;
    } else {
      config_args.push_back(argv[i]);
    }
  }

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  try {
    const auto config = runtime::ProcessHostConfig::from_args(
        static_cast<int>(config_args.size()), config_args.data());
    runtime::ProcessHost host(config);

    orb::Context& ctx = host.context();
    auto ref = orb::RefBuilder(ctx, std::make_shared<scenario::EchoServant>())
                   .tcp()
                   .build();

    std::uint64_t replica_id = 0;
    if (!serve_name.empty()) {
      replica_id = host.advertise(serve_name, ref);
    }
    std::printf("READY %d %u %llu\n", static_cast<int>(getpid()), host.port(),
                static_cast<unsigned long long>(replica_id));
    std::printf("ohpx-hostd: machine %s, %zu context(s)%s%s\n",
                config.machine_name.c_str(), host.context_count(),
                serve_name.empty() ? "" : ", serving ",
                serve_name.c_str());
    std::fflush(stdout);

    const auto started = std::chrono::steady_clock::now();
    while (!g_stop) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (run_ms > 0 && std::chrono::steady_clock::now() - started >
                            std::chrono::milliseconds(run_ms)) {
        break;
      }
    }
    std::printf("ohpx-hostd: shutting down\n");
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ohpx-hostd: %s\n", e.what());
    return 1;
  }
}
