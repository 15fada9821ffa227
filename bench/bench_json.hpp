#pragma once

/// \file bench_json.hpp
/// The one JSON writer of the bench binaries.
///
/// A document is a list of top-level members, each on its own line
/// and indented two spaces. A member holds a scalar, an inline object
/// on one line, or an array of one-line row objects:
///
///   {
///     "bench": "ablation_faults",
///     "rows": [
///       {"bytes": 64, "latency_s": 1.234560e-06},
///       {"bytes": 1024, "latency_s": 2.345670e-06}
///     ]
///   }
///
/// Every number is formatted the way the caller names it (sci for
/// %.6e, fixed for %.Nf, integer, boolean), so a bench that runs in
/// virtual time writes the same bytes on every host. write() checks
/// the open, the write and the close, and reports a failure on stderr
/// and in its result, so a bench can exit non-zero.

#include <concepts>
#include <cstdio>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tfx::bench_json {

/// One JSON value, already formatted.
struct value {
  std::string text;
};

/// %.6e: the format of every seconds and rate field.
inline value sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6e", v);
  return {buf};
}

/// %.Nf with N = `decimals`.
inline value fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return {buf};
}

inline value integer(std::integral auto v) { return {std::to_string(v)}; }

inline value boolean(bool v) { return {v ? "true" : "false"}; }

/// A quoted string with `"`, `\` and control characters escaped.
inline value string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      out += c;
    }
  }
  return {out + '"'};
}

/// An inline list: [a, b, c].
inline value list(std::span<const value> items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].text;
  }
  return {out + ']'};
}

inline value list(std::initializer_list<value> items) {
  return list(std::span<const value>(items.begin(), items.size()));
}

inline value integer_list(std::span<const int> items) {
  std::vector<value> v;
  for (const int i : items) v.push_back(integer(i));
  return list(v);
}

using field = std::pair<std::string_view, value>;

/// An inline object on one line: {"a": 1, "b": 2}.
inline value object(std::span<const field> fields) {
  std::string out = "{";
  for (const auto& [key, v] : fields) {
    if (out.size() > 1) out += ", ";
    out += string(key).text + ": " + v.text;
  }
  return {out + '}'};
}

inline value object(std::initializer_list<field> fields) {
  return object(std::span<const field>(fields.begin(), fields.size()));
}

/// A document of top-level members, written in the order added.
class document {
 public:
  /// A scalar or inline-object member.
  document& member(std::string_view key, const value& v) {
    begin(key);
    body_ += v.text;
    return *this;
  }

  /// An array of row objects, one per line.
  document& rows(std::string_view key, std::span<const value> rows) {
    begin(key);
    body_ += "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      body_ += "    " + rows[i].text + (i + 1 < rows.size() ? ",\n" : "\n");
    }
    body_ += "  ]";
    return *this;
  }

  /// Write the document to `path`. On failure, report it on stderr and
  /// return false; on success, say so on stdout.
  [[nodiscard]] bool write(const std::string& path) const {
    const std::string text = "{\n" + body_ + "\n}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr;
    if (ok) {
      ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
      ok = std::fclose(f) == 0 && ok;
    }
    if (!ok) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("\nWrote %s\n", path.c_str());
    return true;
  }

 private:
  void begin(std::string_view key) {
    if (!body_.empty()) body_ += ",\n";
    body_ += "  " + string(key).text + ": ";
  }

  std::string body_;
};

}  // namespace tfx::bench_json
