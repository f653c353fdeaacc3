// Lightweight precondition checking (Core Guidelines I.6/E.12 style:
// functions, not macros; throw on contract violation).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace sarbp {

/// Thrown when a sarbp API precondition is violated.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Verifies a caller-supplied precondition; throws PreconditionError with
/// the call site encoded when it does not hold. Used at public API
/// boundaries only — hot inner loops rely on the callers having validated.
/// A literal message stays a pointer until the check fails, so a check
/// that holds allocates nothing.
inline void ensure(bool condition, const char* what,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw PreconditionError(std::string(loc.file_name()) + ":" +
                            std::to_string(loc.line()) + ": " + what);
  }
}

inline void ensure(bool condition, const std::string& what,
                   std::source_location loc = std::source_location::current()) {
  ensure(condition, what.c_str(), loc);
}

}  // namespace sarbp
