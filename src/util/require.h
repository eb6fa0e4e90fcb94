// Precondition helpers for public API boundaries.
//
// Per the error-handling strategy (DESIGN.md §4): public entry points
// validate their arguments and throw; internal invariants use assert().
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

namespace p2p::util {

/// Throws std::invalid_argument with `message` unless `condition` holds.
///
/// The const char* overloads exist so literal messages cost nothing on the
/// success path: the std::string reference parameter would otherwise
/// materialize (and heap-allocate) a temporary on every call, which both
/// slows hot entry points and breaks the batch pipeline's allocation-free
/// tick loop.
inline void require(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}
inline void require(bool condition, const std::string& message) {
  if (!condition) throw std::invalid_argument(message);
}

/// True for a finite x >= 0. Durations and rates that drive a time loop must
/// pass: an infinite one never lets the loop end.
[[nodiscard]] inline bool finite_non_negative(double x) noexcept {
  return std::isfinite(x) && x >= 0.0;
}

/// Throws std::out_of_range with `message` unless `condition` holds.
inline void require_in_range(bool condition, const char* message) {
  if (!condition) throw std::out_of_range(message);
}
inline void require_in_range(bool condition, const std::string& message) {
  if (!condition) throw std::out_of_range(message);
}

}  // namespace p2p::util
