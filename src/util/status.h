#ifndef EHNA_UTIL_STATUS_H_
#define EHNA_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace ehna {

/// Error codes used across the library. Modeled after the RocksDB/Arrow
/// convention: library code never throws; fallible operations return a
/// `Status` (or a `Result<T>` when they also produce a value).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kIoError,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  kResourceExhausted,
};

/// Returns a human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// A success-or-error value. Cheap to copy in the success case (no
/// allocation); the error case carries a code and a message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

/// A value-or-error. Accessing the value of an errored Result aborts, so
/// callers must check `ok()` (or use `ValueOr`) first.
template <typename T>
class Result {
 public:
  /// Implicit from value: allows `return value;` in functions returning
  /// Result<T>.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from error status: allows `return Status::...;`. Constructing
  /// a Result from an OK status is a programming error and is normalized to
  /// an Internal error so the bug is observable rather than silent.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }

  /// The error (OK when a value is present).
  const Status& status() const { return status_; }

  /// The contained value; requires `ok()`.
  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  /// Returns the value, or `fallback` if this Result holds an error.
  T ValueOr(T fallback) const {
    return ok() ? value_.value() : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ present.
};

/// Propagates an error status out of the current function.
#define EHNA_RETURN_NOT_OK(expr)            \
  do {                                      \
    ::ehna::Status _st = (expr);            \
    if (!_st.ok()) return _st;              \
  } while (false)

/// Assigns the value of a Result-returning expression to `lhs`, or
/// propagates the error. `lhs` may declare a new variable.
#define EHNA_ASSIGN_OR_RETURN(lhs, expr)      \
  EHNA_ASSIGN_OR_RETURN_IMPL_(                \
      EHNA_STATUS_CONCAT_(_res_, __LINE__), lhs, expr)

#define EHNA_STATUS_CONCAT_INNER_(a, b) a##b
#define EHNA_STATUS_CONCAT_(a, b) EHNA_STATUS_CONCAT_INNER_(a, b)
#define EHNA_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

}  // namespace ehna

#endif  // EHNA_UTIL_STATUS_H_
