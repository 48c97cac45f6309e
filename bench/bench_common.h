// Shared helpers for the table/figure reproduction binaries.
//
// Every binary accepts:
//   --datasets=slashdot,epinions,wikipedia   which datasets to run
//   --scale=<0..1>       scale factor for the large synthetic datasets
//   --seed=<n>           dataset + experiment seed
//   --graph=<path>       use a real signed edge list instead (with
//                        --num_skills=<n> Zipf skills)
//   --csv                additionally emit CSV rows

#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/data/datasets.h"
#include "src/util/flags.h"

namespace tfsn::bench {

/// Minimal writer for the repo's BENCH_*.json trajectory files: a JSON
/// array of flat objects, one object per measurement (see README, "Bench
/// JSON output"). Usage:
///   JsonArrayWriter json;
///   json.BeginObject();
///   json.Field("bench", "micro_compat");
///   json.Field("rows_per_sec", 1234.5);
///   json.EndObject();
///   json.WriteFile(path);
class JsonArrayWriter {
 public:
  void BeginObject() {
    out_ += first_object_ ? "\n  {" : ",\n  {";
    first_object_ = false;
    first_field_ = true;
  }
  void EndObject() { out_ += "}"; }

  void Field(const std::string& key, const std::string& value) {
    std::string quoted;
    quoted += '"';
    quoted += Escaped(value);
    quoted += '"';
    Raw(key, quoted);
  }
  void Field(const std::string& key, const char* value) {
    Field(key, std::string(value));
  }
  void Field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    Raw(key, buf);
  }
  void Field(const std::string& key, uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void Field(const std::string& key, uint32_t value) {
    Raw(key, std::to_string(value));
  }
  void Field(const std::string& key, int value) {
    Raw(key, std::to_string(value));
  }
  void Field(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
  }

  std::string ToString() const { return "[" + out_ + "\n]\n"; }

  /// Writes the array to `path`; reports and returns false on IO failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write JSON to %s\n", path.c_str());
      return false;
    }
    const std::string text = ToString();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  void Raw(const std::string& key, const std::string& value) {
    if (!first_field_) out_ += ", ";
    first_field_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\": ";
    out_ += value;
  }
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string out_;
  bool first_object_ = true;
  bool first_field_ = true;
};

/// Host provenance for a JSON row: nproc, compiler and build type
/// (bench/CMakeLists.txt defines TFSN_BENCH_COMPILER and
/// TFSN_BENCH_BUILD_TYPE for every bench binary).
inline void HardwareFields(JsonArrayWriter* json) {
  json->Field("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json->Field("compiler", TFSN_BENCH_COMPILER);
  json->Field("build_type", TFSN_BENCH_BUILD_TYPE);
}

/// Splits a comma-separated list.
inline std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Resolves the datasets requested on the command line. `default_scale`
/// applies to epinions/wikipedia only — slashdot is tiny and always full
/// size — unless --scale overrides it.
inline std::vector<Dataset> LoadDatasets(const Flags& flags,
                                         double default_scale,
                                         const std::string& default_names) {
  std::vector<Dataset> out;
  DatasetOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 2020));

  if (flags.Has("graph")) {
    auto ds = LoadDatasetFromEdgeList(
        flags.GetString("graph"),
        static_cast<uint32_t>(flags.GetInt("num_skills", 500)), options);
    ds.status().CheckOK();
    out.push_back(std::move(ds).ValueOrDie());
    return out;
  }

  double scale = flags.GetDouble("scale", default_scale);
  for (const std::string& name :
       SplitCsv(flags.GetString("datasets", default_names))) {
    DatasetOptions opt = options;
    opt.scale = name == "slashdot" ? 1.0 : scale;
    auto ds = MakeDatasetByName(name, opt);
    ds.status().CheckOK();
    out.push_back(std::move(ds).ValueOrDie());
  }
  return out;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Parses --threads as a comma-separated list of worker counts (a sweep);
/// malformed or empty entries fall back to {1} with a warning rather than
/// throwing out of main.
inline std::vector<uint32_t> ThreadSweepOf(const Flags& flags) {
  std::vector<uint32_t> counts;
  for (const std::string& tok : SplitCsv(flags.GetString("threads", "1"))) {
    char* end = nullptr;
    unsigned long v = std::strtoul(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || v > 1024) {
      std::fprintf(stderr, "ignoring bad --threads entry '%s'\n", tok.c_str());
      continue;
    }
    counts.push_back(static_cast<uint32_t>(v));
  }
  if (counts.empty()) counts.push_back(1);
  return counts;
}

}  // namespace tfsn::bench
