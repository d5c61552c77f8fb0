// Tiny argv helpers behind the dcolor-bench CLI.
#pragma once

#include <cstring>
#include <string>
#include <vector>

namespace dcolor::benchkit {

// True iff `flag` (e.g. "--json") appears among the arguments.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Value of "--name value" or "--name=value"; fallback when absent.
inline std::string flag_value(int argc, char** argv, const char* name,
                              const std::string& fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[i + 1];
  }
  return fallback;
}

// "a,b,c" -> {"a","b","c"}; empty tokens skipped.
inline std::vector<std::string> parse_string_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > pos) out.push_back(csv.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

}  // namespace dcolor::benchkit
