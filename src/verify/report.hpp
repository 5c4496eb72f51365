// Structured diagnostics for the independent verifier (aislint).
//
// Every check in src/verify emits Diagnostics into a Report instead of
// asserting, so callers (the aislint CLI, the --verify driver flag, tests)
// can distinguish *which* invariant failed: mutation tests demand a specific
// diagnostic code, not just "something went wrong".
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ais::verify {

enum class Severity { kError, kWarning, kNote };

const char* severity_name(Severity s);

/// One finding.  `code` is a stable kebab-case identifier (e.g. "dep-order",
/// "cross-block-motion") that tests and tooling key on; `message` is the
/// human explanation.  `block` and `subject` locate the finding when they
/// apply (-1 / empty otherwise).
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;
  std::string message;
  int block = -1;
  std::string subject;

  /// "error[dep-order] block 1 (MUL r0, r6, r0): ..." rendering.
  std::string to_string() const;
};

class Report {
 public:
  void add(Severity severity, std::string code, std::string message,
           int block = -1, std::string subject = {});
  void error(std::string code, std::string message, int block = -1,
             std::string subject = {});
  void warning(std::string code, std::string message, int block = -1,
               std::string subject = {});
  void note(std::string code, std::string message, int block = -1,
            std::string subject = {});

  /// Appends all of `other`'s diagnostics and tallies; each finding's
  /// verify.diag.<code> count stays the one `other` made when recording it.
  void merge(const Report& other);

  /// True when no error-severity diagnostic was recorded (warnings/notes
  /// do not fail verification).
  bool ok() const { return num_errors_ == 0; }

  std::size_t num_errors() const { return num_errors_; }
  std::size_t num_warnings() const { return num_warnings_; }

  /// True when some diagnostic (any severity) carries `code`.
  bool has(std::string_view code) const;

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  /// One diagnostic per line; empty string for a clean report.
  std::string to_string() const;

 private:
  std::vector<Diagnostic> diags_;
  std::size_t num_errors_ = 0;
  std::size_t num_warnings_ = 0;
};

}  // namespace ais::verify
