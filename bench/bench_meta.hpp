// Machine / build provenance for benchmark JSON records.
//
// Every bench JSON record carries a `partita-bench-v2` schema tag plus the
// machine metadata needed to interpret a number a month later: git SHA, CPU
// model, core count and the compiler flags the binary was built with. The
// perf trajectory (BENCH_<date>.json files at the repo root) is only
// comparable when this block says the runs are.
#pragma once

#include <string>

namespace partita::bench {

/// Schema tag stamped into every bench JSON record.
inline constexpr const char* kBenchSchema = "partita-bench-v2";

struct MachineMeta {
  std::string schema = kBenchSchema;
  std::string git_sha;     // "unknown" outside a git checkout
  std::string cpu_model;   // /proc/cpuinfo model name; "unknown" elsewhere
  int cores = 0;           // std::thread::hardware_concurrency
  std::string build_type;  // CMAKE_BUILD_TYPE
  std::string build_flags; // compiler id + CXX flags
  std::string date;        // ISO-8601 UTC date of the run
};

/// Collects the metadata once (runs `git rev-parse`, reads /proc/cpuinfo).
MachineMeta collect_machine_meta();

/// Renders the block as a JSON object (no trailing newline).
std::string meta_json(const MachineMeta& meta);

}  // namespace partita::bench
