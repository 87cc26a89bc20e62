#include "txallo/common/spec.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>

namespace txallo::common {

namespace {

Status BadValue(const std::string& key, const std::string& value,
                const std::string& expected) {
  return Status::InvalidArgument("option '" + key + "' expects " + expected +
                                 ", got '" + value + "'");
}

// Decimal digits only, parsed in full, at most `max`.
Status ReadUnsigned(const OptionMap& options, const std::string& key,
                    uint64_t max, uint64_t* out) {
  auto it = options.find(key);
  if (it == options.end()) return Status::OK();
  const std::string& value = it->second;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  // strtoull would accept "-1" (wrapping it to 2^64 - 1) and clamp an
  // overflow to ULLONG_MAX with ERANGE; neither is a valid count or seed.
  if (value.empty() || value[0] < '0' || value[0] > '9' || *end != '\0' ||
      errno == ERANGE || v > max) {
    return BadValue(key, value,
                    "an integer in [0, " + std::to_string(max) + "]");
  }
  *out = v;
  return Status::OK();
}

}  // namespace

Result<std::map<std::string, std::string>> ParseOptionList(
    const std::string& spec) {
  std::map<std::string, std::string> options;
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(start, end - start);
    start = end + 1;
    if (clause.empty()) continue;
    const size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("malformed option clause '" + clause +
                                     "' (expected key=value)");
    }
    const std::string key = clause.substr(0, eq);
    if (options.count(key) > 0) {
      return Status::InvalidArgument("duplicate option key '" + key + "'");
    }
    options[key] = clause.substr(eq + 1);
  }
  return options;
}

Result<ParsedSpec> ParseSpec(const std::string& spec) {
  ParsedSpec parsed;
  const size_t colon = spec.find(':');
  parsed.name = spec.substr(0, colon);
  if (parsed.name.empty()) {
    return Status::InvalidArgument("empty name in spec '" + spec + "'");
  }
  if (colon != std::string::npos) {
    Result<std::map<std::string, std::string>> options =
        ParseOptionList(spec.substr(colon + 1));
    if (!options.ok()) return options.status();
    parsed.options = std::move(options.value());
  }
  return parsed;
}

Status ReadUint64(const OptionMap& options, const std::string& key,
                  uint64_t* out) {
  return ReadUnsigned(options, key, UINT64_MAX, out);
}

Status ReadUint32(const OptionMap& options, const std::string& key,
                  uint32_t* out) {
  uint64_t v = *out;
  TXALLO_RETURN_NOT_OK(ReadUnsigned(options, key, UINT32_MAX, &v));
  *out = static_cast<uint32_t>(v);
  return Status::OK();
}

Status ReadInt64(const OptionMap& options, const std::string& key,
                 int64_t* out) {
  auto it = options.find(key);
  if (it == options.end()) return Status::OK();
  const std::string& value = it->second;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    return BadValue(key, value, "a 64-bit integer");
  }
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status ReadDouble(const OptionMap& options, const std::string& key,
                  double* out) {
  auto it = options.find(key);
  if (it == options.end()) return Status::OK();
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return BadValue(key, it->second, "a number");
  }
  *out = v;
  return Status::OK();
}

Status ExpectOnly(const std::string& owner, const OptionMap& options,
                  const std::vector<std::string_view>& known) {
  for (const auto& [key, value] : options) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::string list;
      for (std::string_view k : known) {
        if (!list.empty()) list += ", ";
        list += k;
      }
      return Status::InvalidArgument(
          "unknown option '" + key + "' for " + owner +
          " (known: " + (list.empty() ? "<none>" : list) + ")");
    }
  }
  return Status::OK();
}

}  // namespace txallo::common
