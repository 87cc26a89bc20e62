// Shared "name[:key=value,key=value...]" spec-string parsing, used by both
// the allocator registry (--allocator=) and the workload scenario registry
// (--scenario=). This layer guarantees the uniform grammar — clauses split
// on ',', each clause is key=value with a non-empty key, and duplicate keys
// are rejected (never last-one-wins) — plus the strict readers both
// registries use for values and the unknown-key check. Which names and
// keys exist is the registries' business.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "txallo/common/status.h"

namespace txallo::common {

/// A parsed "name[:key=value,...]" spec.
struct ParsedSpec {
  std::string name;
  std::map<std::string, std::string> options;
};

/// Parses "key=value,key=value" (empty string = no options). Fails on a
/// clause without '=', an empty key, or a duplicate key.
Result<std::map<std::string, std::string>> ParseOptionList(
    const std::string& spec);

/// Parses "name" or "name:key=value,...". The name must be non-empty.
Result<ParsedSpec> ParseSpec(const std::string& spec);

using OptionMap = std::map<std::string, std::string>;

/// Strict typed readers. An absent key leaves `*out` untouched. A present
/// value must parse in full and fit the type, otherwise the reader returns
/// InvalidArgument naming key and value — nothing is truncated, wrapped or
/// clamped. The unsigned readers take decimal digits only, so a leading
/// '-', '+' or space is rejected rather than wrapped modulo 2^64.
Status ReadUint64(const OptionMap& options, const std::string& key,
                  uint64_t* out);
Status ReadUint32(const OptionMap& options, const std::string& key,
                  uint32_t* out);
Status ReadInt64(const OptionMap& options, const std::string& key,
                 int64_t* out);
Status ReadDouble(const OptionMap& options, const std::string& key,
                  double* out);

/// Rejects any key outside `known`, so a typo'd option never silently falls
/// back to its default. `owner` labels the error, e.g. "allocator 'metis'".
Status ExpectOnly(const std::string& owner, const OptionMap& options,
                  const std::vector<std::string_view>& known);

}  // namespace txallo::common
