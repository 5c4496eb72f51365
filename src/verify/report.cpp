#include "verify/report.hpp"

#include <sstream>

#include "obs/obs.hpp"

namespace ais::verify {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  std::ostringstream os;
  os << severity_name(severity) << '[' << code << ']';
  if (block >= 0) os << " block " << block;
  if (!subject.empty()) os << " (" << subject << ')';
  os << ": " << message;
  return os.str();
}

void Report::add(Severity severity, std::string code, std::string message,
                 int block, std::string subject) {
  if (severity == Severity::kError) ++num_errors_;
  if (severity == Severity::kWarning) ++num_warnings_;
  // Telemetry: findings per diagnostic code ("verify.diag.<code>").
  AIS_OBS_COUNT_DYN(std::string(obs::ctr::kVerifyDiagPrefix) + code, 1);
  diags_.push_back(Diagnostic{severity, std::move(code), std::move(message),
                              block, std::move(subject)});
}

void Report::error(std::string code, std::string message, int block,
                   std::string subject) {
  add(Severity::kError, std::move(code), std::move(message), block,
      std::move(subject));
}

void Report::warning(std::string code, std::string message, int block,
                     std::string subject) {
  add(Severity::kWarning, std::move(code), std::move(message), block,
      std::move(subject));
}

void Report::note(std::string code, std::string message, int block,
                  std::string subject) {
  add(Severity::kNote, std::move(code), std::move(message), block,
      std::move(subject));
}

void Report::merge(const Report& other) {
  // `other` counted its findings when it recorded them; counting them again
  // here would bump verify.diag.<code> once per report they pass through.
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
  num_errors_ += other.num_errors_;
  num_warnings_ += other.num_warnings_;
}

bool Report::has(std::string_view code) const {
  for (const Diagnostic& d : diags_) {
    if (d.code == code) return true;
  }
  return false;
}

std::string Report::to_string() const {
  std::ostringstream os;
  for (const Diagnostic& d : diags_) os << d.to_string() << '\n';
  return os.str();
}

}  // namespace ais::verify
