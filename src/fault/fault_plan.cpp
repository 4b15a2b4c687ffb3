#include "fault/fault_plan.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace zero::fault {
namespace {

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  return parts;
}

std::string Trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// A whole-string decimal count in [0, max]: digits only (no sign, no
// trailing text), no overflow. `what` names the field, `rule` the rule
// (or seed clause) it came from.
std::uint64_t ParseCount(const std::string& field, const char* what,
                         const std::string& rule, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (field.empty() || ec != std::errc() || ptr != end || value > max) {
    throw ConfigError("ZERO_FAULT: bad " + std::string(what) + " '" + field +
                      "' in '" + rule + "'");
  }
  return value;
}

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

FaultKind ParseKind(const std::string& name, const std::string& spec) {
  if (name == "crash") return FaultKind::kCrash;
  if (name == "hang") return FaultKind::kHang;
  if (name == "slow") return FaultKind::kSlow;
  if (name == "drop") return FaultKind::kDrop;
  if (name == "delay") return FaultKind::kDelay;
  if (name == "dup") return FaultKind::kDup;
  throw ConfigError("ZERO_FAULT: unknown fault kind '" + name + "' in '" +
                    spec + "'");
}

std::uint64_t ParseDurationNs(const std::string& text,
                              const std::string& spec) {
  ZERO_CHECK(!text.empty(), "ZERO_FAULT: empty duration in '" + spec + "'");
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw ConfigError("ZERO_FAULT: bad duration '" + text + "' in '" + spec +
                      "'");
  }
  const std::string unit = text.substr(pos);
  double scale = 1e6;  // bare numbers are milliseconds
  if (unit == "ns") {
    scale = 1.0;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "ms" || unit.empty()) {
    scale = 1e6;
  } else if (unit == "s") {
    scale = 1e9;
  } else {
    throw ConfigError("ZERO_FAULT: bad duration unit '" + unit + "' in '" +
                      spec + "'");
  }
  ZERO_CHECK(value >= 0.0, "ZERO_FAULT: negative duration in '" + spec + "'");
  return static_cast<std::uint64_t>(value * scale);
}

FaultRule ParseRule(const std::string& text, const std::string& spec) {
  const std::size_t at = text.find('@');
  if (at == std::string::npos) {
    throw ConfigError("ZERO_FAULT: rule '" + text + "' is missing '@rank'");
  }
  FaultRule rule;
  rule.kind = ParseKind(text.substr(0, at), spec);

  // Everything after '@' is rank then optional :site #occ %prob =dur in
  // any order (each introduced by its own marker character).
  std::string rest = text.substr(at + 1);
  std::size_t pos = std::min(rest.find_first_of(":#%="), rest.size());
  if (pos == 0) {
    throw ConfigError("ZERO_FAULT: rule '" + text + "' has no rank after '@'");
  }
  rule.rank = static_cast<int>(
      ParseCount(rest.substr(0, pos), "rank", text,
                 static_cast<std::uint64_t>(std::numeric_limits<int>::max())));

  while (pos < rest.size()) {
    const char marker = rest[pos];
    std::size_t end = rest.find_first_of(":#%=", pos + 1);
    if (end == std::string::npos) end = rest.size();
    const std::string field = rest.substr(pos + 1, end - pos - 1);
    switch (marker) {
      case ':':
        ZERO_CHECK(IsPointFault(rule.kind),
                   "ZERO_FAULT: site only applies to point faults "
                   "(crash/hang/slow): '" +
                       text + "'");
        rule.site = field;
        break;
      case '#':
        rule.occurrence = ParseCount(field, "occurrence", text, kU64Max);
        break;
      case '%':
        try {
          rule.probability = std::stod(field);
        } catch (const std::exception&) {
          throw ConfigError("ZERO_FAULT: bad probability '" + field +
                            "' in '" + text + "'");
        }
        ZERO_CHECK(rule.probability >= 0.0 && rule.probability <= 1.0,
                   "ZERO_FAULT: probability must be in [0,1]: '" + text + "'");
        break;
      case '=':
        rule.duration_ns = ParseDurationNs(field, spec);
        break;
      default:
        throw ConfigError("ZERO_FAULT: unexpected '" +
                          std::string(1, marker) + "' in '" + text + "'");
    }
    pos = end;
  }
  return rule;
}

}  // namespace

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kHang: return "hang";
    case FaultKind::kSlow: return "slow";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDup: return "dup";
  }
  return "?";
}

bool IsPointFault(FaultKind kind) {
  return kind == FaultKind::kCrash || kind == FaultKind::kHang ||
         kind == FaultKind::kSlow;
}

std::string FaultRule::ToSpec() const {
  std::ostringstream out;
  out << ToString(kind) << '@' << rank;
  if (!site.empty()) out << ':' << site;
  if (occurrence != 0) out << '#' << occurrence;
  if (probability != 1.0) out << '%' << probability;
  if (duration_ns != 0) out << '=' << duration_ns << "ns";
  return out.str();
}

std::string FaultPlan::ToSpec() const {
  std::ostringstream out;
  out << "seed=" << seed;
  for (const FaultRule& rule : rules) out << ';' << rule.ToSpec();
  return out.str();
}

FaultPlan FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& raw : SplitOn(spec, ';')) {
    const std::string part = Trim(raw);
    if (part.empty()) continue;
    if (part.rfind("seed=", 0) == 0) {
      plan.seed = ParseCount(part.substr(5), "seed", part, kU64Max);
      continue;
    }
    plan.rules.push_back(ParseRule(part, spec));
  }
  return plan;
}

}  // namespace zero::fault
