// Frozen request lists (perfbench-list-v1).
//
// A list is the complete, committed input of one workload: the instances
// (a built-in app by name or a wire spec reference), the requests over them
// (gains, single or batch) with their expected answers, and the ops each
// session issues. Each instance carries an FNV-1a hash of its rendered KL
// and IP-library text, so a change to a built-in app or to the spec
// generator fails the run instead of silently moving the numbers.
//
// The run seed only reorders each session's ops (a repeat always comes after
// the op that first issued its instance) and the requests inside an op; the
// multiset of requests and the class counts are those of the file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "select/selection.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

inline constexpr const char* kListSchema = "perfbench-list-v1";

struct Instance {
  std::string builtin;                 // built-in app name, or ""
  std::optional<partita::net::SpecRef> spec;  // generated instance otherwise
  std::string text_hash;               // hash of rendered KL + library text
};

struct Expect {
  bool feasible = false;
  double area = 0.0;  // ip_area + interface_area
  std::string rung;
};

struct Request {
  std::size_t instance = 0;
  /// One gain: a single request (-1 derives max_feasible_gain / 2). Batch:
  /// one ticket per gain through the wire `gains` list.
  std::vector<std::int64_t> gains;
  bool batch = false;
  std::vector<Expect> expect;  // one per gain
  std::string oracle;          // "agrees" or "skipped"
};

/// One timed op: a whole paper sweep (six batch submits) or one request.
/// `cls` is "sweep", "unique", or, on the cached workload, "first" (cold
/// miss), "hit" (exact repeat of a first) or "neighbor" (gain-perturbed
/// repeat of a first).
struct Op {
  std::string tenant;
  std::string cls;
  std::vector<std::size_t> requests;
};

struct FrozenList {
  std::string workload;
  bool cache = false;
  /// Tail percentile reported as latency_tail_ms.
  int tail_percentile = 90;
  /// Ops of the first session replayed by the traced run.
  int trace_ops = 1;
  std::vector<Instance> instances;
  std::vector<Request> requests;
  std::vector<Op> warmup;  // issued before timing, under "warmup.*" tenants
  std::vector<Op> ops;
};

bool load_list(const std::string& path, FrozenList* out, std::string* error);
std::string render_list(const FrozenList& list);

/// Rebuilds the instance's workload (the same generator the server runs).
partita::workloads::Workload build_workload(const Instance& inst);
/// FNV-1a over the rendered KL and IP-library text of the instance.
std::string instance_text_hash(const Instance& inst);
/// Re-renders every instance and compares its hash; false names the first
/// instance whose text changed.
bool verify_hashes(const FrozenList& list, std::string* error);

/// The wire submit verb of one request.
partita::net::WireRequest submit_verb(const FrozenList& list, const Request& req,
                                      const std::string& tenant);

/// True when the answer matches the expectation (area to 1e-9 relative).
bool matches(const Expect& e, bool feasible, double area, const std::string& rung);
Expect expect_of(const partita::select::Selection& s);

/// One session's ops in seed order, with each op's requests in seed order.
struct SessionOp {
  const Op* op = nullptr;
  std::vector<std::size_t> requests;
};
/// Sessions in order of first tenant appearance in `ops`.
std::vector<std::vector<SessionOp>> session_streams(const FrozenList& list,
                                                    const std::vector<Op>& ops,
                                                    std::uint64_t seed);

}  // namespace perfbench
