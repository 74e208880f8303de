// Reader for the Prometheus text exposition format, the payload the
// introspection plane serves (introspect/exposition.hpp) and ohpx-top
// polls.  It lives here, with the other readers of text, so a tool that
// watches another process needs nothing of the runtime but ohpx_common.
//
// A sample line is `name[{label="value",...}] value [timestamp]`: the
// value is the token after the name and labels (a float, or NaN, +Inf,
// -Inf), and an integer timestamp in milliseconds may follow it.  Label
// values are quoted, with \\, \" and \n escaped, so they may hold blanks,
// commas and braces.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ohpx {

struct ExpositionSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// One sample line; nullopt for a blank line, a comment (`# HELP`,
/// `# TYPE`) or anything that is not a well-formed sample.
std::optional<ExpositionSample> parse_exposition_line(std::string_view line);

/// Every sample of a payload, lines that are not samples skipped.
std::vector<ExpositionSample> parse_exposition(std::string_view text);

}  // namespace ohpx
