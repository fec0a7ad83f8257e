// Comparison of an answered outcome object with its reference, both read
// with the library's JSON reader (io::parseJson). The reader is shared; the
// independence that matters is that the reference comes from a serial,
// uncached solve, not from the run under test.
#pragma once

#include <string>
#include <vector>

#include "pipesched/io/json_reader.hpp"

namespace perfbench {

using Json = pipesched::io::JsonValue;

/// Number member `key` of `object`, or `fallback` when absent or not a number.
[[nodiscard]] double num(const Json& object, const std::string& key, double fallback = 0);

/// Keys left out of an outcome comparison. Top-level keys apply to the
/// outcome object; solver keys to each element of its "solvers" array.
struct Mask {
  std::vector<std::string> topLevel;
  std::vector<std::string> solver;
};

/// Compares two outcome objects key by key, ignoring masked keys. Returns an
/// empty string when they agree, else a description of the first difference.
[[nodiscard]] std::string diffOutcome(const Json& got, const Json& want, const Mask& mask);

}  // namespace perfbench
