// Text-escaping helpers shared by every streaming output surface (the
// campaign and verdict rows' CsvValue / JsonValue in sim/result_sink, and
// obs/export's trace and metrics JSON).  One implementation so the formats
// cannot drift.

#ifndef FAIRCHAIN_SUPPORT_ESCAPE_HPP_
#define FAIRCHAIN_SUPPORT_ESCAPE_HPP_

#include <string>

namespace fairchain {

/// RFC 4180 CSV field escaping: returns the field unchanged when it is
/// already safe, otherwise wraps it in double quotes with embedded quotes
/// doubled.  Safe fields (no comma, quote, CR, LF) stay byte-identical, so
/// existing output is unchanged.
std::string EscapeCsvField(const std::string& field);

/// JSON string-body escaping: quotes, backslashes, and control characters
/// (as \uXXXX).  The caller supplies the surrounding quotes.
std::string EscapeJsonString(const std::string& text);

}  // namespace fairchain

#endif  // FAIRCHAIN_SUPPORT_ESCAPE_HPP_
