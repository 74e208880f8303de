#include "ohpx/common/parse.hpp"

#include <charconv>
#include <cmath>

namespace ohpx {
namespace {

// from_chars alone would take a leading '-', and for a double also
// "nan", "inf" and a leading '.'.
bool starts_with_digit(std::string_view text) {
  return !text.empty() && text.front() >= '0' && text.front() <= '9';
}

}  // namespace

std::optional<std::uint64_t> parse_number(std::string_view text,
                                          std::uint64_t min,
                                          std::uint64_t max) {
  if (!starts_with_digit(text)) return std::nullopt;
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_decimal(std::string_view text, double min,
                                    double max) {
  if (!starts_with_digit(text)) return std::nullopt;
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] =
      std::from_chars(text.data(), end, value, std::chars_format::fixed);
  if (error != std::errc{} || stop != end || !std::isfinite(value) ||
      value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<HostPort> parse_host_port(std::string_view text,
                                        std::uint16_t min_port) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto port = parse_number(text.substr(colon + 1), min_port, 65535);
  if (!port) return std::nullopt;
  return HostPort{std::string(text.substr(0, colon)),
                  static_cast<std::uint16_t>(*port)};
}

}  // namespace ohpx
