//===- support/Result.h - Lightweight error propagation ------------------===//
//
// Part of the genic project, a C++ reproduction of "Automatic Program
// Inversion using Symbolic Transducers" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error handling without exceptions: a Status carrying a message and a
/// Result<T> that is either a value or a Status. Library code returns these;
/// tools unwrap them at the boundary.
///
//===----------------------------------------------------------------------===//

#ifndef GENIC_SUPPORT_RESULT_H
#define GENIC_SUPPORT_RESULT_H

#include <cassert>
#include <cstdlib>
#include <cstdio>
#include <string>
#include <utility>
#include <variant>

namespace genic {

/// Failure classification. Most callers only branch on ok/failed; the
/// robustness layer additionally distinguishes budget exhaustion (Timeout,
/// Cancelled — the run can degrade gracefully and report a partial result)
/// from backend faults (SolverError) and ordinary semantic errors (Error).
enum class StatusCode {
  Ok,
  Error,       // ordinary failure (bad input, semantic negative, ...)
  Timeout,     // a solver query stayed Unknown after the retry policy
  Cancelled,   // the global deadline expired / the token was cancelled
  SolverError, // the backend raised an exception
};

/// Outcome of an operation that can fail with a diagnostic message.
class Status {
public:
  /// Creates a success status.
  Status() = default;

  /// Creates a failure status with \p Message.
  static Status error(std::string Message) {
    return make(StatusCode::Error, std::move(Message));
  }

  /// A query exhausted its time budget (still Unknown after retry).
  static Status timeout(std::string Message) {
    return make(StatusCode::Timeout, std::move(Message));
  }

  /// The global deadline expired or the run was cancelled.
  static Status cancelled(std::string Message) {
    return make(StatusCode::Cancelled, std::move(Message));
  }

  /// The solver backend raised an exception.
  static Status solverError(std::string Message) {
    return make(StatusCode::SolverError, std::move(Message));
  }

  static Status ok() { return Status(); }

  bool isOk() const { return Code == StatusCode::Ok; }
  explicit operator bool() const { return isOk(); }

  StatusCode code() const { return Code; }

  /// True for the codes that mean "ran out of budget" rather than "wrong":
  /// the pipeline degrades on these instead of failing hard.
  bool isBudget() const {
    return Code == StatusCode::Timeout || Code == StatusCode::Cancelled;
  }

  /// Diagnostic message; empty for success statuses.
  const std::string &message() const { return Message; }

  /// The same failure, its message prefixed by \p Context.
  Status withContext(const std::string &Context) const {
    return make(Code, Context + Message);
  }

private:
  static Status make(StatusCode C, std::string Message) {
    Status S;
    S.Code = C;
    S.Message = std::move(Message);
    return S;
  }

  StatusCode Code = StatusCode::Ok;
  std::string Message;
};

/// A value of type T or a failure Status.
template <typename T> class Result {
public:
  /// Constructs a success result. Intentionally implicit so functions can
  /// `return Value;`.
  Result(T Value) : Storage(std::move(Value)) {}

  /// Constructs a failure result from an error status. Intentionally
  /// implicit so functions can `return Status::error(...);`.
  Result(Status S) : Storage(std::move(S)) {
    assert(!std::get<Status>(Storage).isOk() &&
           "Result constructed from a success Status carries no value");
  }

  bool isOk() const { return std::holds_alternative<T>(Storage); }
  explicit operator bool() const { return isOk(); }

  /// The error status. Only valid when !isOk().
  const Status &status() const {
    assert(!isOk() && "status() on a success Result");
    return std::get<Status>(Storage);
  }

  /// The contained value. Only valid when isOk().
  T &value() {
    assert(isOk() && "value() on a failed Result");
    return std::get<T>(Storage);
  }
  const T &value() const {
    assert(isOk() && "value() on a failed Result");
    return std::get<T>(Storage);
  }

  T &operator*() { return value(); }
  const T &operator*() const { return value(); }
  T *operator->() { return &value(); }
  const T *operator->() const { return &value(); }

  /// Returns the value, or aborts with the error message. For tool code.
  T &unwrap() {
    if (!isOk()) {
      std::fprintf(stderr, "fatal: %s\n", status().message().c_str());
      std::abort();
    }
    return value();
  }

private:
  std::variant<T, Status> Storage;
};

/// Aborts with a message. Used for internal invariant violations that are
/// bugs, not user errors (the genic analogue of llvm_unreachable).
[[noreturn]] inline void unreachable(const char *Message) {
  std::fprintf(stderr, "internal error: %s\n", Message);
  std::abort();
}

} // namespace genic

#endif // GENIC_SUPPORT_RESULT_H
