#include "common/config.hpp"

#include <sstream>
#include <stdexcept>

namespace cloudburst {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

/// Parse all of `text` with `parse` (std::stoll, std::stod); no digits,
/// trailing junk or an out-of-range value all fail naming the key.
template <typename T, typename Parse>
T parse_all(const std::string& key, const std::string& text, const char* kind, Parse parse) {
  std::size_t pos = std::string::npos;
  T v{};
  try {
    v = parse(text, &pos);
  } catch (const std::logic_error&) {
  }
  if (pos != text.size()) {
    throw std::invalid_argument("config key " + key + " is not " + kind + ": " + text);
  }
  return v;
}

}  // namespace

Config Config::from_args(const std::vector<std::string>& args) {
  Config cfg;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("expected key=value, got: " + arg);
    }
    cfg.set(trim(arg.substr(0, eq)), trim(arg.substr(eq + 1)));
  }
  return cfg;
}

Config Config::from_args(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return from_args(args);
}

Config Config::from_string(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("config line is not key=value: " + line);
    }
    cfg.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) { values_[key] = value; }

bool Config::contains(const std::string& key) const { return values_.count(key) != 0; }

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_all<std::int64_t>(key, it->second, "a 64-bit integer",
                                 [](const std::string& s, std::size_t* pos) {
                                   return std::stoll(s, pos);
                                 });
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_all<double>(key, it->second, "a number",
                           [](const std::string& s, std::size_t* pos) {
                             return std::stod(s, pos);
                           });
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("config key " + key + " is not a bool: " + v);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace cloudburst
