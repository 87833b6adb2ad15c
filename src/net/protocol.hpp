// partita-wire-v1: the request/response schema of the solve-service socket
// front-end.
//
// Every frame payload (see frame.hpp) is one compact JSON object tagged
// `"v": "partita-wire-v1"`. Requests carry a client-chosen correlation `id`
// that the server echoes on the matching response -- responses may arrive
// out of submission order (a `wait` answers when its ticket turns terminal,
// while later `status` calls answer immediately), so the id is what
// multiplexes many in-flight verbs over one connection.
//
// Verbs:
//   ping    liveness probe; echoes ok.
//   submit  one SolveRequest: a built-in workload by name or a generated
//           spec by seed, plus scheduling metadata (tenant, priority class,
//           deadline) and solver budget. Batch mode via `gains`.
//   cancel  cancel a ticket (queued: immediate; running: within one wave).
//   status  non-blocking terminal/progress snapshot of a ticket.
//   wait    blocks server-side until the ticket is terminal, then answers.
//   stats   service + scheduler + server counters.
//   drain   stop admission, block until everything admitted is terminal.
//
// Numbers are serialized with %.17g (support::json::fmt_double), so doubles
// -- areas, gains, gaps -- survive the wire bit-exactly: a Selection
// round-tripped through the socket compares identical to the in-process
// one. The differential harness (net_service_test) relies on this.
//
// Error taxonomy on the wire: `error.kind` is one of the support::ErrorKind
// names ("permanent", "transient", "cancelled") for solve-side failures, or
// "protocol" for malformed frames/JSON/unknown verbs -- the one kind the
// in-process API cannot produce.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "service/solve_service.hpp"

namespace partita::net {

inline constexpr const char* kWireSchema = "partita-wire-v1";

/// Error kind string for protocol-level failures (bad frame, bad JSON,
/// unknown verb/workload) -- outside the ErrorKind taxonomy on purpose.
inline constexpr const char* kProtocolErrorKind = "protocol";

struct WireError {
  std::string kind;  // "" = no error
  std::string message;
};

/// Generated-instance reference: the server rebuilds the workload from the
/// deterministic spec generator, so the wire never carries KL text.
struct SpecRef {
  std::uint64_t seed = 1;
  int scalls = 6;
  int kernels = 4;
  int ips = 5;
  /// Hardness knobs (see workloads::InstanceGenParams): path count is
  /// 2^branch_groups; hierarchy_depth > 0 exercises IMP flattening.
  int branch_groups = 1;
  int hierarchy_depth = 0;
};

struct WireRequest {
  std::uint64_t id = 0;
  std::string verb;

  // --- submit --------------------------------------------------------------
  std::string workload;  // built-in name; "" when spec is set
  std::optional<SpecRef> spec;
  std::string label;
  std::string tenant;
  int priority = service::kPriorityStandard;
  double deadline_seconds = 0.0;        // 0 = none
  std::int64_t required_gain = -1;      // single mode
  std::vector<std::int64_t> gains;      // batch mode (non-empty wins)
  double time_limit_seconds = 0.0;      // solver budget; 0 = none
  std::size_t memory_limit_mb = 0;      // solver memory cap; 0 = default

  // --- cancel / status / wait ---------------------------------------------
  std::uint64_t ticket = 0;
};

/// Selection summary carried on the wire. Field-for-field from
/// select::Selection; key() gives a canonical one-line rendering used by the
/// differential tests to assert socket == in-process == one-shot.
struct WireSelection {
  bool feasible = false;
  std::vector<std::int64_t> chosen;
  std::vector<std::int64_t> ips_used;
  double ip_area = 0.0;
  double interface_area = 0.0;
  double ip_power = 0.0;
  double interface_power = 0.0;
  std::int64_t min_path_gain = 0;
  int s_instructions = 0;
  int selected_scalls = 0;
  std::string rung;
  bool truncated = false;
  bool greedy_fallback = false;
  double optimality_gap = 0.0;

  /// Canonical rendering of every solution-defining field (doubles via
  /// %.17g); equal keys <=> bit-identical selections.
  std::string key() const;
};

/// Terminal (or in-flight) record of one ticket, the `status`/`wait` answer.
struct WireResult {
  std::uint64_t ticket = 0;
  std::string label;
  std::string state;
  int attempts = 0;
  double retry_after_seconds = 0.0;
  WireError error;
  std::optional<WireSelection> selection;
  /// Solution-cache outcome ("", "bypass", "hit", "neighbor", "miss"); see
  /// service::SolveResponse::cache. Empty when the service runs cacheless.
  std::string cache;
  /// True when the answering request was replayed from the write-ahead
  /// journal after a crash (service::SolveResponse::recovered).
  bool recovered = false;
};

struct WireResponse {
  std::uint64_t id = 0;
  std::string verb;
  bool ok = true;
  WireError error;  // set iff !ok

  // --- submit --------------------------------------------------------------
  std::vector<std::uint64_t> tickets;
  std::string state;  // "queued" | "rejected"
  double retry_after_seconds = 0.0;
  std::string reject_reason;

  // --- cancel --------------------------------------------------------------
  bool cancelled = false;

  // --- status / wait -------------------------------------------------------
  std::optional<WireResult> result;

  // --- stats ---------------------------------------------------------------
  std::map<std::string, double> stats;
  std::string policy;
};

// --- codec -----------------------------------------------------------------

std::string encode_request(const WireRequest& req);
/// nullopt on malformed JSON, wrong/missing schema tag or missing verb;
/// `error` gets a one-line reason.
std::optional<WireRequest> decode_request(const std::string& payload, std::string* error);

std::string encode_response(const WireResponse& resp);
std::optional<WireResponse> decode_response(const std::string& payload, std::string* error);

// --- service-type bridges --------------------------------------------------

WireSelection to_wire(const select::Selection& s);
WireResult to_wire(const service::SolveResponse& r);

/// Resolves the request's workload: a workloads::builtin by name or the
/// deterministic spec generator. Fills `out` (and `out.spec` for spec
/// requests); false with a one-line reason on an unknown name.
bool resolve_workload(const WireRequest& req, service::SolveRequest* out,
                      std::string* error);

/// Builds the full service request (workload + scheduling metadata + solver
/// budget) from a submit verb. False + reason on unknown workload. Also
/// stamps SolveRequest::journal_payload with the canonical encoding of the
/// verb, so a journaling service can persist the exact envelope.
bool to_service_request(const WireRequest& req, service::SolveRequest* out,
                        std::string* error);

/// Rebuilds a journaled submit payload into a boot-recovery re-admission:
/// decode_request + to_service_request, with journal_seq pinned to the
/// original admit record and the recovered flag set. False + reason when
/// the payload is not a well-formed submit verb.
bool from_journal_payload(const std::string& payload, std::uint64_t seq,
                          service::SolveRequest* out, std::string* error);

}  // namespace partita::net
