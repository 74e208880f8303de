// Strict readers for the numbers and addresses that reach the runtime as
// text: daemon and tool flags, process-host config files, bootstrap URIs,
// a standby directory's redirect hint, the capability descriptors another
// process hands over inside an object reference, and topology files.
// Every reader of such a value goes through these, so a value means
// exactly what its characters say or is refused: "7400abc", " 7400",
// "+7400" and "7400.9" are not port 7400, and "nan" is not a bandwidth.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace ohpx {

/// A plain decimal in [min, max]: ASCII digits only, so no sign, no
/// blanks and nothing after the digits ("5s" is refused, not read as 5).
/// The range is unsigned, so a u64 keeps all of it.  nullopt for anything
/// else, a value out of range included.
std::optional<std::uint64_t> parse_number(
    std::string_view text, std::uint64_t min,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// A finite plain decimal fraction in [min, max]: digits, then optionally
/// a '.' and more digits ("622", "0.25", "1000.000000", what
/// std::to_string(double) writes).  No sign, no exponent, no blanks, no
/// "nan" or "inf".  nullopt for anything else, a value out of range
/// included.
std::optional<double> parse_decimal(std::string_view text, double min,
                                    double max);

/// The most milliseconds a duration read from text may hold: any more
/// would overflow once converted to the steady clock's nanoseconds.
inline constexpr std::int64_t kMaxMilliseconds =
    std::numeric_limits<std::int64_t>::max() / 1'000'000;

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Splits "host:port" at its last colon; the port is a parse_number() in
/// [min_port, 65535].  An address a client dials passes 1; a listen
/// address passes 0, which means an ephemeral port.  The host may come
/// back empty (":7400"): callers that need one check.  nullopt when there
/// is no colon or the port is malformed.
std::optional<HostPort> parse_host_port(std::string_view text,
                                        std::uint16_t min_port = 1);

}  // namespace ohpx
