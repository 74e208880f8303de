#include "ohpx/common/exposition_text.hpp"

#include <charconv>
#include <cstdint>

namespace ohpx {
namespace {

bool is_blank(char c) { return c == ' ' || c == '\t'; }

void skip_blanks(std::string_view text, std::size_t& pos) {
  while (pos < text.size() && is_blank(text[pos])) ++pos;
}

// The token at `pos` up to the next blank (or the end), `pos` moved past it.
std::string_view next_token(std::string_view text, std::size_t& pos) {
  const std::size_t start = pos;
  while (pos < text.size() && !is_blank(text[pos])) ++pos;
  return text.substr(start, pos - start);
}

// `{key="value",...}` starting at the '{' at `pos`; `pos` ends past the
// '}'.  False for anything malformed.
bool parse_labels(std::string_view line, std::size_t& pos,
                  std::map<std::string, std::string>& labels) {
  ++pos;  // '{'
  for (;;) {
    skip_blanks(line, pos);
    if (pos < line.size() && line[pos] == '}') {
      ++pos;
      return true;
    }
    const std::size_t eq = line.find('=', pos);
    if (eq == std::string_view::npos || eq == pos || eq + 1 >= line.size() ||
        line[eq + 1] != '"') {
      return false;
    }
    std::string key(line.substr(pos, eq - pos));
    std::string value;
    pos = eq + 2;
    for (; pos < line.size() && line[pos] != '"'; ++pos) {
      if (line[pos] == '\\' && pos + 1 < line.size()) {
        ++pos;
        value.push_back(line[pos] == 'n' ? '\n' : line[pos]);
      } else {
        value.push_back(line[pos]);
      }
    }
    if (pos >= line.size()) return false;  // unterminated value
    ++pos;                                 // closing '"'
    labels.insert_or_assign(std::move(key), std::move(value));
    skip_blanks(line, pos);
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
}

// A float as the format writes it: from_chars reads NaN, Inf and -Inf,
// and the one leading '+' of +Inf is skipped first.
bool parse_value(std::string_view token, double& value) {
  if (!token.empty() && token.front() == '+') token.remove_prefix(1);
  if (token.empty() || token.front() == '+') return false;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  return error == std::errc{} && stop == end;
}

bool is_timestamp(std::string_view token) {
  std::int64_t ms = 0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, ms);
  return !token.empty() && error == std::errc{} && stop == end;
}

}  // namespace

std::optional<ExpositionSample> parse_exposition_line(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::size_t pos = 0;
  skip_blanks(line, pos);
  if (pos == line.size() || line[pos] == '#') return std::nullopt;

  ExpositionSample sample;
  const std::size_t name_start = pos;
  while (pos < line.size() && line[pos] != '{' && !is_blank(line[pos])) {
    ++pos;
  }
  sample.name = std::string(line.substr(name_start, pos - name_start));
  if (sample.name.empty()) return std::nullopt;
  if (pos < line.size() && line[pos] == '{' &&
      !parse_labels(line, pos, sample.labels)) {
    return std::nullopt;
  }

  skip_blanks(line, pos);
  if (!parse_value(next_token(line, pos), sample.value)) return std::nullopt;
  skip_blanks(line, pos);
  if (pos < line.size() && !is_timestamp(next_token(line, pos))) {
    return std::nullopt;
  }
  skip_blanks(line, pos);
  if (pos != line.size()) return std::nullopt;
  return sample;
}

std::vector<ExpositionSample> parse_exposition(std::string_view text) {
  std::vector<ExpositionSample> samples;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    if (auto sample = parse_exposition_line(text.substr(start, end - start))) {
      samples.push_back(std::move(*sample));
    }
    start = end + 1;
  }
  return samples;
}

}  // namespace ohpx
