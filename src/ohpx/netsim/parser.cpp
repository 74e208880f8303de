#include "ohpx/netsim/parser.hpp"

#include <limits>
#include <sstream>
#include <vector>

#include "ohpx/common/parse.hpp"

namespace ohpx::netsim {
namespace {

// A custom link's bounds: a bandwidth up to a petabit per second, and a
// latency whose nanoseconds fit the modeled clock.
constexpr double kMaxMbps = 1e9;
constexpr std::uint64_t kMaxLatencyUs =
    std::numeric_limits<std::int64_t>::max() / 1000;

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw Error(ErrorCode::wire_bad_value,
              "topology line " + std::to_string(line) + ": " + message);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token[0] == '#') break;  // trailing comment
    tokens.push_back(token);
  }
  return tokens;
}

}  // namespace

LanId ParsedTopology::lan(const std::string& name) const {
  const auto it = lans.find(name);
  if (it == lans.end()) {
    throw Error(ErrorCode::wire_bad_value, "unknown LAN '" + name + "'");
  }
  return it->second;
}

MachineId ParsedTopology::machine(const std::string& name) const {
  const auto it = machines.find(name);
  if (it == machines.end()) {
    throw Error(ErrorCode::wire_bad_value, "unknown machine '" + name + "'");
  }
  return it->second;
}

LinkSpec parse_link_spec(std::string_view token) {
  if (token == "ethernet10") return ethernet_10();
  if (token == "ethernet100") return fast_ethernet_100();
  if (token == "atm155") return atm_155();
  if (token == "t3") return wan_t3();
  if (token == "loopback") return loopback();
  if (token.rfind("custom:", 0) == 0) {
    const std::string_view body = token.substr(7);
    const auto colon = body.find(':');
    const auto mbps = parse_decimal(body.substr(0, colon), 0.0, kMaxMbps);
    const auto latency_us =
        colon == std::string_view::npos
            ? std::nullopt
            : parse_number(body.substr(colon + 1), 0, kMaxLatencyUs);
    if (!mbps || *mbps <= 0.0 || !latency_us) {
      throw Error(ErrorCode::wire_bad_value,
                  "custom link needs custom:<mbps>:<latency_us>, mbps a "
                  "decimal in (0, 1e9] and latency_us an integer, got '" +
                      std::string(token) + "'");
    }
    return LinkSpec{"custom-" + std::string(body), *mbps * 1e6,
                    std::chrono::microseconds(*latency_us)};
  }
  throw Error(ErrorCode::wire_bad_value,
              "unknown link spec '" + std::string(token) + "'");
}

ParsedTopology parse_topology(std::string_view text) {
  ParsedTopology out;
  std::istringstream stream{std::string(text)};
  std::string line;
  std::size_t line_number = 0;

  while (std::getline(stream, line)) {
    ++line_number;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "lan") {
      // lan <name> [link-spec] [campus=<n>]
      if (tokens.size() < 2) fail(line_number, "lan needs a name");
      if (out.lans.contains(tokens[1])) {
        fail(line_number, "duplicate LAN '" + tokens[1] + "'");
      }
      const LanId lan = out.topology().add_lan(tokens[1]);
      out.lans[tokens[1]] = lan;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i].rfind("campus=", 0) == 0) {
          const auto campus =
              parse_number(std::string_view(tokens[i]).substr(7), 0,
                           std::numeric_limits<std::uint32_t>::max());
          if (!campus) fail(line_number, "bad campus id '" + tokens[i] + "'");
          out.topology().set_campus(lan, static_cast<std::uint32_t>(*campus));
        } else {
          try {
            out.topology().set_lan_link(lan, parse_link_spec(tokens[i]));
          } catch (const Error& e) {
            fail(line_number, e.what());
          }
        }
      }
    } else if (directive == "machine") {
      // machine <name> <lan>
      if (tokens.size() != 3) fail(line_number, "machine needs <name> <lan>");
      if (out.machines.contains(tokens[1])) {
        fail(line_number, "duplicate machine '" + tokens[1] + "'");
      }
      const auto it = out.lans.find(tokens[2]);
      if (it == out.lans.end()) {
        fail(line_number, "unknown LAN '" + tokens[2] + "'");
      }
      out.machines[tokens[1]] = out.topology().add_machine(tokens[1], it->second);
    } else if (directive == "wan") {
      // wan <lan-a> <lan-b> <link-spec>
      if (tokens.size() != 4) {
        fail(line_number, "wan needs <lan-a> <lan-b> <link>");
      }
      const auto a = out.lans.find(tokens[1]);
      const auto b = out.lans.find(tokens[2]);
      if (a == out.lans.end() || b == out.lans.end()) {
        fail(line_number, "wan references unknown LAN");
      }
      try {
        out.topology().set_wan_link(a->second, b->second,
                                  parse_link_spec(tokens[3]));
      } catch (const Error& e) {
        fail(line_number, e.what());
      }
    } else if (directive == "default_wan") {
      if (tokens.size() != 2) fail(line_number, "default_wan needs <link>");
      try {
        out.topology().set_default_wan_link(parse_link_spec(tokens[1]));
      } catch (const Error& e) {
        fail(line_number, e.what());
      }
    } else if (directive == "loopback") {
      if (tokens.size() != 2) fail(line_number, "loopback needs <link>");
      try {
        out.topology().set_loopback_link(parse_link_spec(tokens[1]));
      } catch (const Error& e) {
        fail(line_number, e.what());
      }
    } else {
      fail(line_number, "unknown directive '" + directive + "'");
    }
  }
  return out;
}

}  // namespace ohpx::netsim
