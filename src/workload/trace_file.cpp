#include "workload/trace_file.hpp"

#include <cctype>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "des/sim_time.hpp"

namespace cloudburst::workload {
namespace {

[[noreturn]] void fail(const std::string& path, std::size_t line,
                       const std::string& reason) {
  throw std::runtime_error(path + ":" + std::to_string(line) + ": " + reason);
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(trim(field));
  if (!line.empty() && line.back() == ',') fields.push_back("");
  return fields;
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  std::size_t consumed = 0;
  try {
    out = std::stod(s, &consumed);
  } catch (const std::exception&) {
    return false;
  }
  return consumed == s.size();
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  std::size_t consumed = 0;
  try {
    out = std::stoull(s, &consumed);
  } catch (const std::exception&) {
    return false;
  }
  return consumed == s.size();
}

}  // namespace

std::vector<TraceRecord> load_arrival_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path, 0, "cannot open arrival trace file");

  std::vector<TraceRecord> records;
  std::string line;
  std::size_t lineno = 0;
  bool saw_data = false;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;

    std::vector<std::string> fields = split_fields(trimmed);
    if (fields.size() != 3) {
      fail(path, lineno,
           "expected 3 columns (submit_seconds,tenant,job_bytes), got " +
               std::to_string(fields.size()));
    }

    double submit = 0.0;
    if (!parse_double(fields[0], submit)) {
      // A non-numeric first field on the first data row is a header.
      if (!saw_data) {
        saw_data = true;  // only one header allowed
        continue;
      }
      fail(path, lineno, "submit_seconds is not a number: '" + fields[0] + "'");
    }
    saw_data = true;
    if (!des::valid_seconds(submit)) {
      fail(path, lineno, std::string("submit_seconds ") + des::kSecondsRule);
    }
    if (fields[1].empty()) fail(path, lineno, "tenant must not be empty");
    std::uint64_t bytes = 0;
    if (!parse_u64(fields[2], bytes)) {
      fail(path, lineno, "job_bytes is not an unsigned integer: '" + fields[2] + "'");
    }
    if (bytes == 0) fail(path, lineno, "job_bytes must be positive");

    records.push_back(TraceRecord{submit, fields[1], bytes});
  }
  return records;
}

ArrivalTrace to_arrival_trace(const std::vector<TraceRecord>& records) {
  std::vector<double> times;
  times.reserve(records.size());
  for (const auto& r : records) times.push_back(r.submit_seconds);
  return ArrivalTrace::replay(std::move(times));
}

}  // namespace cloudburst::workload
