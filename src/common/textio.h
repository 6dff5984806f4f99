// Helpers for the line-oriented artifact formats (profiles, compiled
// models, predictor bundles). LineReader tracks the 1-based line number of
// the stream it consumes so every parse error can name the offending line
// and field — required for debugging hand-edited or corrupted artifacts.
// All failures throw std::runtime_error (not ContractError: malformed
// input is an environment problem, not a programming bug).
#pragma once

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace cocg {

class LineReader {
 public:
  /// `what` names the artifact being parsed, e.g. "model" or "bundle";
  /// it prefixes every diagnostic.
  LineReader(std::istream& is, std::string what)
      : is_(is), what_(std::move(what)) {}

  /// Next line verbatim; throws if the stream ends, naming `key` as the
  /// thing we were looking for.
  std::string line(const std::string& key) {
    std::string l;
    ++line_no_;
    if (!std::getline(is_, l)) {
      fail("truncated before '" + key + "'");
    }
    return l;
  }

  /// Next line must start with `key`; returns a stream over the remainder.
  std::istringstream expect(const std::string& key) {
    std::string l = line(key);
    if (l.rfind(key, 0) != 0) {
      fail("expected '" + key + "', got '" + l + "'");
    }
    return std::istringstream(l.substr(key.size()));
  }

  /// Extract one `>>`-formatted value; throws naming the field.
  template <typename T>
  T field(std::istringstream& ls, const std::string& field_name) {
    T v{};
    if (!(ls >> v)) fail("bad or missing field '" + field_name + "'");
    return v;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    fail_at(line_no_, msg);
  }

  /// For a check that can only be made after later lines are read, but
  /// belongs to an earlier one.
  [[noreturn]] void fail_at(int line, const std::string& msg) const {
    throw std::runtime_error(what_ + " line " + std::to_string(line) + ": " +
                             msg);
  }

  int line_no() const { return line_no_; }

 private:
  std::istream& is_;
  std::string what_;
  int line_no_ = 0;
};

/// Scoped stream precision: doubles round-trip exactly through text when
/// printed with max_digits10 significant digits (the `>>` parse of such a
/// string is correctly rounded back to the original bits).
class FullPrecision {
 public:
  explicit FullPrecision(std::ostream& os)
      : os_(os),
        old_(os.precision(std::numeric_limits<double>::max_digits10)) {}
  ~FullPrecision() { os_.precision(old_); }
  FullPrecision(const FullPrecision&) = delete;
  FullPrecision& operator=(const FullPrecision&) = delete;

 private:
  std::ostream& os_;
  std::streamsize old_;
};

}  // namespace cocg
