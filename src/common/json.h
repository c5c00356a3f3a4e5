#ifndef MODELHUB_COMMON_JSON_H_
#define MODELHUB_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace modelhub {

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, newline, carriage return and tab become `\n`, `\r`
/// and `\t`, and every other control character becomes `\u00XX`. Bytes
/// >= 0x20 pass through unchanged (UTF-8 stays UTF-8).
void AppendJsonString(std::string* out, std::string_view s);

/// `s` as a quoted JSON string (see AppendJsonString).
std::string JsonString(std::string_view s);

}  // namespace modelhub

#endif  // MODELHUB_COMMON_JSON_H_
