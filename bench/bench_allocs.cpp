// Allocation counts per call: heap allocations (a counting global
// operator new, every thread of the process) and pooled wire buffers
// (BufferPool acquisitions, reused or allocated, every thread) per call
// at steady state.  These are counts, not timings:
// tools/check_bench_json.py allocs fails when an arm's count rises over
// its committed BENCH_allocs.json value.  The async arms' heap counts
// are the exception, printed but not gated: they include the reactor's
// per-batch allocations, and batching depends on the runner's timing.
//
// Arms (ROADMAP item 2's table, plus the bulk glued shm call):
//   shm/ping, shm/echo16                 — same-machine sync calls;
//   tcp/ping, glue_quota_tcp/ping        — sync loopback TCP, bare and
//                                          through glue[quota]->tcp;
//   tcp/ping_async256,
//   glue_quota_tcp/ping_async256         — the same with 256 call_async
//                                          futures in flight;
//   glue_auth_enc_shm/echo65536          — glue[authentication,
//                                          encryption]->shm echo of
//                                          65,536 int32.
// Each arm makes 2,000 warm-up calls, then counts over its measured
// calls.
//
// Hand-rolled main (not google-benchmark): the counts need a fixed call
// count per arm, and the async arms a window of futures.  Flags:
// --json <path> (written only when given: the committed baseline is the
// per-arm maximum over several runs, not one run's output).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/wire/buffer_pool.hpp"

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

}  // namespace

// The replaceable global allocation functions, every form, so that no
// allocation in the process goes uncounted.
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ohpx::bench {
namespace {

constexpr std::size_t kWarmup = 2000;
constexpr std::size_t kInflight = 256;

struct Arm {
  std::string name;
  std::uint64_t calls = 0;
  double heap_allocs_per_call = 0.0;
  double pooled_per_call = 0.0;
};

std::uint64_t pooled_draws() {
  const wire::BufferPool::GlobalStats stats = wire::BufferPool::global_stats();
  return stats.reused + stats.allocated;
}

/// Runs `batch` (which makes `calls` calls) once to warm up and once
/// counted.
Arm measure(std::string name, std::uint64_t calls,
            const std::function<void(std::size_t)>& batch) {
  batch(kWarmup);
  const std::uint64_t pooled_before = pooled_draws();
  const std::uint64_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  batch(calls);
  const std::uint64_t heap =
      g_heap_allocs.load(std::memory_order_relaxed) - heap_before;
  const std::uint64_t pooled = pooled_draws() - pooled_before;
  Arm arm;
  arm.name = std::move(name);
  arm.calls = calls;
  arm.heap_allocs_per_call =
      static_cast<double>(heap) / static_cast<double>(calls);
  arm.pooled_per_call =
      static_cast<double>(pooled) / static_cast<double>(calls);
  return arm;
}

/// `calls` pings with kInflight futures in flight, through a ring of
/// futures allocated before any call.
void pings_in_flight(scenario::EchoStub& stub,
                     std::vector<ohpx::Future<std::uint64_t>>& ring,
                     std::size_t calls) {
  for (std::size_t i = 0; i < calls; ++i) {
    auto& slot = ring[i % ring.size()];
    if (i >= ring.size()) slot.get();
    slot = stub.call_async<std::uint64_t>(scenario::EchoServant::kPing);
  }
  for (std::size_t i = calls > ring.size() ? calls - ring.size() : 0;
       i < calls; ++i) {
    ring[i % ring.size()].get();
  }
}

int run(int argc, char** argv) {
  const std::string json_path = consume_json_flag(argc, argv);

  runtime::World world;
  const auto lan = world.add_lan("lan");
  const auto m_client = world.add_machine("client", lan);
  const auto m_server = world.add_machine("server", lan);
  orb::Context& client_ctx = world.create_context(m_client);
  orb::Context& local_ctx = world.create_context(m_client);
  orb::Context& server_ctx = world.create_context(m_server);
  server_ctx.enable_tcp();

  const auto echo = [] { return std::make_shared<scenario::EchoServant>(); };
  // A quota the run never spends: admission runs on every call.
  const auto quota = [] {
    return std::make_shared<cap::QuotaCapability>(
        std::numeric_limits<std::uint64_t>::max());
  };
  const crypto::Key128 key = crypto::Key128::from_seed(0xa110c);

  scenario::EchoStub shm(client_ctx,
                         orb::RefBuilder(local_ctx, echo()).shm().build());
  scenario::EchoStub tcp(client_ctx,
                         orb::RefBuilder(server_ctx, echo()).tcp().build());
  scenario::EchoStub glue_tcp(
      client_ctx,
      orb::RefBuilder(server_ctx, echo()).glue({quota()}, "tcp").build());
  scenario::EchoStub glue_shm(
      client_ctx,
      orb::RefBuilder(local_ctx, echo())
          .glue({std::make_shared<cap::AuthenticationCapability>(
                     key, "allocs-bench", cap::Scope::always),
                 std::make_shared<cap::EncryptionCapability>(
                     key, cap::Scope::always)},
                "shm")
          .build());

  const std::vector<std::int32_t> echo16(16, 7);
  const std::vector<std::int32_t> echo65536(65536, 7);
  std::vector<ohpx::Future<std::uint64_t>> ring(kInflight);

  std::vector<Arm> arms;
  arms.push_back(measure("allocs/shm/ping", 20000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) shm.ping();
  }));
  arms.push_back(measure("allocs/shm/echo16", 20000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) shm.echo(echo16);
  }));
  arms.push_back(measure("allocs/tcp/ping", 20000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) tcp.ping();
  }));
  arms.push_back(
      measure("allocs/glue_quota_tcp/ping", 20000, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) glue_tcp.ping();
      }));
  arms.push_back(
      measure("allocs/tcp/ping_async256", 50000,
              [&](std::size_t n) { pings_in_flight(tcp, ring, n); }));
  arms.push_back(
      measure("allocs/glue_quota_tcp/ping_async256", 50000,
              [&](std::size_t n) { pings_in_flight(glue_tcp, ring, n); }));
  arms.push_back(
      measure("allocs/glue_auth_enc_shm/echo65536", 2000, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) glue_shm.echo(echo65536);
      }));

  std::printf("allocs: per call at steady state, after %zu warm-up calls\n",
              kWarmup);
  std::vector<JsonRecord> records;
  for (const Arm& arm : arms) {
    std::printf("  %-38s %8.3f heap allocs   %6.3f pooled buffers   (%llu "
                "calls)\n",
                arm.name.c_str(), arm.heap_allocs_per_call,
                arm.pooled_per_call,
                static_cast<unsigned long long>(arm.calls));
    records.push_back(JsonRecord{
        arm.name,
        {{"heap_allocs_per_call", arm.heap_allocs_per_call},
         {"pooled_per_call", arm.pooled_per_call},
         {"calls", static_cast<double>(arm.calls)}}});
  }
  if (!json_path.empty()) {
    if (!write_json_records(json_path, records)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ohpx::bench

int main(int argc, char** argv) { return ohpx::bench::run(argc, argv); }
