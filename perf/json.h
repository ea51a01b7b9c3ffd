// A small JSON reader for BENCHMARK.json and the result files of
// `flower_perf run`: objects, arrays, strings (with \uXXXX escapes below
// U+0080), numbers, booleans and null.
#ifndef FLOWER_PERF_JSON_H_
#define FLOWER_PERF_JSON_H_

#include <string>
#include <utility>
#include <vector>

namespace perf {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// The member `key` of an object, or nullptr.
  const Json* Find(const std::string& key) const;
};

/// Parses `path`; on failure returns false with a message in `error`.
bool ReadJsonFile(const std::string& path, Json* out, std::string* error);

/// `s` as a JSON string literal, quotes included.
std::string JsonQuote(const std::string& s);

}  // namespace perf

#endif  // FLOWER_PERF_JSON_H_
