#include "net/protocol.hpp"

#include <utility>

#include "support/json.hpp"

namespace partita::net {

namespace json = support::json;
using json::fmt_double;
using json::quote;

namespace {

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }
std::string fmt_i64(std::int64_t v) { return std::to_string(v); }

void append_field(std::string& out, const char* key, const std::string& rendered) {
  out += ',';
  out += quote(key);
  out += ':';
  out += rendered;
}

std::string error_json(const WireError& e) {
  return std::string("{\"kind\":") + quote(e.kind) +
         ",\"message\":" + quote(e.message) + "}";
}

template <typename T>
std::string int_array_json(const std::vector<T>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += fmt_i64(static_cast<std::int64_t>(xs[i]));
  }
  out += ']';
  return out;
}

std::string selection_json(const WireSelection& s) {
  std::string out = "{\"feasible\":";
  out += s.feasible ? "true" : "false";
  append_field(out, "chosen", int_array_json(s.chosen));
  append_field(out, "ips_used", int_array_json(s.ips_used));
  append_field(out, "ip_area", fmt_double(s.ip_area));
  append_field(out, "interface_area", fmt_double(s.interface_area));
  append_field(out, "ip_power", fmt_double(s.ip_power));
  append_field(out, "interface_power", fmt_double(s.interface_power));
  append_field(out, "min_path_gain", fmt_i64(s.min_path_gain));
  append_field(out, "s_instructions", fmt_i64(s.s_instructions));
  append_field(out, "selected_scalls", fmt_i64(s.selected_scalls));
  append_field(out, "rung", quote(s.rung));
  append_field(out, "truncated", s.truncated ? "true" : "false");
  append_field(out, "greedy_fallback", s.greedy_fallback ? "true" : "false");
  append_field(out, "optimality_gap", fmt_double(s.optimality_gap));
  out += '}';
  return out;
}

std::string result_json(const WireResult& r) {
  std::string out = "{\"ticket\":" + fmt_u64(r.ticket);
  append_field(out, "label", quote(r.label));
  append_field(out, "state", quote(r.state));
  append_field(out, "attempts", fmt_i64(r.attempts));
  append_field(out, "retry_after_s", fmt_double(r.retry_after_seconds));
  if (!r.cache.empty()) append_field(out, "cache", quote(r.cache));
  if (r.recovered) append_field(out, "recovered", "true");
  if (!r.error.kind.empty()) append_field(out, "error", error_json(r.error));
  if (r.selection) append_field(out, "selection", selection_json(*r.selection));
  out += '}';
  return out;
}

WireError decode_error(const json::Object* o) {
  WireError e;
  if (o) {
    e.kind = json::string_or(*o, "kind", "");
    e.message = json::string_or(*o, "message", "");
  }
  return e;
}

std::vector<std::int64_t> decode_i64s(const json::Array* a) {
  std::vector<std::int64_t> out;
  if (a) {
    for (const auto& v : *a) {
      if (v.is_number()) out.push_back(static_cast<std::int64_t>(v.number()));
    }
  }
  return out;
}

std::optional<WireSelection> decode_selection(const json::Object* o) {
  if (!o) return std::nullopt;
  WireSelection s;
  s.feasible = json::bool_or(*o, "feasible", false);
  s.chosen = decode_i64s(json::array_or_null(*o, "chosen"));
  s.ips_used = decode_i64s(json::array_or_null(*o, "ips_used"));
  s.ip_area = json::num_or(*o, "ip_area", 0.0);
  s.interface_area = json::num_or(*o, "interface_area", 0.0);
  s.ip_power = json::num_or(*o, "ip_power", 0.0);
  s.interface_power = json::num_or(*o, "interface_power", 0.0);
  s.min_path_gain = json::int_or(*o, "min_path_gain", 0);
  s.s_instructions = static_cast<int>(json::int_or(*o, "s_instructions", 0));
  s.selected_scalls = static_cast<int>(json::int_or(*o, "selected_scalls", 0));
  s.rung = json::string_or(*o, "rung", "");
  s.truncated = json::bool_or(*o, "truncated", false);
  s.greedy_fallback = json::bool_or(*o, "greedy_fallback", false);
  s.optimality_gap = json::num_or(*o, "optimality_gap", 0.0);
  return s;
}

std::optional<WireResult> decode_result(const json::Object* o) {
  if (!o) return std::nullopt;
  WireResult r;
  r.ticket = static_cast<std::uint64_t>(json::int_or(*o, "ticket", 0));
  r.label = json::string_or(*o, "label", "");
  r.state = json::string_or(*o, "state", "");
  r.attempts = static_cast<int>(json::int_or(*o, "attempts", 0));
  r.retry_after_seconds = json::num_or(*o, "retry_after_s", 0.0);
  r.cache = json::string_or(*o, "cache", "");
  r.recovered = json::bool_or(*o, "recovered", false);
  r.error = decode_error(json::object_or_null(*o, "error"));
  r.selection = decode_selection(json::object_or_null(*o, "selection"));
  return r;
}

/// Parses the payload and checks the schema tag; null + reason on failure.
const json::Object* parse_envelope(const std::string& payload, std::optional<json::Value>& hold,
                                   std::string* error) {
  std::string why;
  hold = json::parse(payload, &why);
  if (!hold) {
    if (error) *error = "malformed JSON: " + why;
    return nullptr;
  }
  if (!hold->is_object()) {
    if (error) *error = "payload is not a JSON object";
    return nullptr;
  }
  const json::Object& o = hold->object();
  if (json::string_or(o, "v", "") != kWireSchema) {
    if (error) *error = std::string("missing or unknown schema tag (want ") + kWireSchema + ")";
    return nullptr;
  }
  return &o;
}

}  // namespace

std::string WireSelection::key() const {
  // Every solution-defining field, doubles via %.17g: equal keys iff the
  // selections are bit-identical.
  std::string k = feasible ? "feasible" : "infeasible";
  k += "|chosen=" + int_array_json(chosen);
  k += "|ips=" + int_array_json(ips_used);
  k += "|area=" + fmt_double(ip_area) + "+" + fmt_double(interface_area);
  k += "|power=" + fmt_double(ip_power) + "+" + fmt_double(interface_power);
  k += "|gain=" + fmt_i64(min_path_gain);
  k += "|S=" + fmt_i64(s_instructions) + "|O=" + fmt_i64(selected_scalls);
  k += "|rung=" + rung;
  return k;
}

std::string encode_request(const WireRequest& req) {
  std::string out = "{\"v\":" + quote(kWireSchema);
  append_field(out, "id", fmt_u64(req.id));
  append_field(out, "verb", quote(req.verb));
  if (req.verb == "submit") {
    if (req.spec) {
      std::string spec = "{\"seed\":" + fmt_u64(req.spec->seed);
      append_field(spec, "scalls", fmt_i64(req.spec->scalls));
      append_field(spec, "kernels", fmt_i64(req.spec->kernels));
      append_field(spec, "ips", fmt_i64(req.spec->ips));
      append_field(spec, "branch_groups", fmt_i64(req.spec->branch_groups));
      append_field(spec, "hierarchy_depth", fmt_i64(req.spec->hierarchy_depth));
      spec += '}';
      append_field(out, "spec", spec);
    } else {
      append_field(out, "workload", quote(req.workload));
    }
    if (!req.label.empty()) append_field(out, "label", quote(req.label));
    if (!req.tenant.empty()) append_field(out, "tenant", quote(req.tenant));
    append_field(out, "priority", quote(service::priority_name(req.priority)));
    if (req.deadline_seconds > 0) {
      append_field(out, "deadline_s", fmt_double(req.deadline_seconds));
    }
    if (!req.gains.empty()) {
      append_field(out, "gains", int_array_json(req.gains));
    } else {
      append_field(out, "required_gain", fmt_i64(req.required_gain));
    }
    if (req.time_limit_seconds > 0) {
      append_field(out, "time_limit_s", fmt_double(req.time_limit_seconds));
    }
    if (req.memory_limit_mb > 0) {
      append_field(out, "memory_limit_mb", fmt_u64(req.memory_limit_mb));
    }
  } else if (req.verb == "cancel" || req.verb == "status" || req.verb == "wait") {
    append_field(out, "ticket", fmt_u64(req.ticket));
  }
  out += '}';
  return out;
}

std::optional<WireRequest> decode_request(const std::string& payload, std::string* error) {
  std::optional<json::Value> hold;
  const json::Object* o = parse_envelope(payload, hold, error);
  if (!o) return std::nullopt;

  WireRequest req;
  req.id = static_cast<std::uint64_t>(json::int_or(*o, "id", 0));
  req.verb = json::string_or(*o, "verb", "");
  if (req.verb.empty()) {
    if (error) *error = "missing verb";
    return std::nullopt;
  }
  req.workload = json::string_or(*o, "workload", "");
  if (const json::Object* spec = json::object_or_null(*o, "spec")) {
    SpecRef ref;
    ref.seed = static_cast<std::uint64_t>(json::int_or(*spec, "seed", 1));
    ref.scalls = static_cast<int>(json::int_or(*spec, "scalls", ref.scalls));
    ref.kernels = static_cast<int>(json::int_or(*spec, "kernels", ref.kernels));
    ref.ips = static_cast<int>(json::int_or(*spec, "ips", ref.ips));
    ref.branch_groups = static_cast<int>(json::int_or(*spec, "branch_groups", ref.branch_groups));
    ref.hierarchy_depth = static_cast<int>(json::int_or(*spec, "hierarchy_depth", ref.hierarchy_depth));
    req.spec = ref;
  }
  req.label = json::string_or(*o, "label", "");
  req.tenant = json::string_or(*o, "tenant", "");
  // Priority travels as a class name; numerals are accepted too.
  if (auto it = o->find("priority"); it != o->end()) {
    int p = -1;
    if (it->second.is_string()) p = service::parse_priority(it->second.string());
    else if (it->second.is_number()) p = static_cast<int>(it->second.number());
    if (p < 0) {
      if (error) *error = "unknown priority class";
      return std::nullopt;
    }
    req.priority = service::clamp_priority(p);
  }
  req.deadline_seconds = json::num_or(*o, "deadline_s", 0.0);
  req.required_gain = json::int_or(*o, "required_gain", -1);
  req.gains = decode_i64s(json::array_or_null(*o, "gains"));
  req.time_limit_seconds = json::num_or(*o, "time_limit_s", 0.0);
  req.memory_limit_mb = static_cast<std::size_t>(json::int_or(*o, "memory_limit_mb", 0));
  req.ticket = static_cast<std::uint64_t>(json::int_or(*o, "ticket", 0));
  return req;
}

std::string encode_response(const WireResponse& resp) {
  std::string out = "{\"v\":" + quote(kWireSchema);
  append_field(out, "id", fmt_u64(resp.id));
  append_field(out, "verb", quote(resp.verb));
  append_field(out, "ok", resp.ok ? "true" : "false");
  if (!resp.ok) append_field(out, "error", error_json(resp.error));
  if (!resp.tickets.empty()) {
    append_field(out, "tickets", int_array_json(resp.tickets));
  }
  if (!resp.state.empty()) append_field(out, "state", quote(resp.state));
  if (resp.retry_after_seconds > 0) {
    append_field(out, "retry_after_s", fmt_double(resp.retry_after_seconds));
  }
  if (!resp.reject_reason.empty()) {
    append_field(out, "reject_reason", quote(resp.reject_reason));
  }
  if (resp.verb == "cancel") {
    append_field(out, "cancelled", resp.cancelled ? "true" : "false");
  }
  if (resp.result) append_field(out, "result", result_json(*resp.result));
  if (!resp.stats.empty()) {
    std::string stats = "{";
    bool first = true;
    for (const auto& [k, v] : resp.stats) {
      if (!first) stats += ',';
      first = false;
      stats += quote(k) + ":" + fmt_double(v);
    }
    stats += '}';
    append_field(out, "stats", stats);
  }
  if (!resp.policy.empty()) append_field(out, "policy", quote(resp.policy));
  out += '}';
  return out;
}

std::optional<WireResponse> decode_response(const std::string& payload, std::string* error) {
  std::optional<json::Value> hold;
  const json::Object* o = parse_envelope(payload, hold, error);
  if (!o) return std::nullopt;

  WireResponse resp;
  resp.id = static_cast<std::uint64_t>(json::int_or(*o, "id", 0));
  resp.verb = json::string_or(*o, "verb", "");
  resp.ok = json::bool_or(*o, "ok", false);
  resp.error = decode_error(json::object_or_null(*o, "error"));
  if (const json::Array* ts = json::array_or_null(*o, "tickets")) {
    for (const auto& v : *ts) {
      if (v.is_number()) resp.tickets.push_back(static_cast<std::uint64_t>(v.number()));
    }
  }
  resp.state = json::string_or(*o, "state", "");
  resp.retry_after_seconds = json::num_or(*o, "retry_after_s", 0.0);
  resp.reject_reason = json::string_or(*o, "reject_reason", "");
  resp.cancelled = json::bool_or(*o, "cancelled", false);
  resp.result = decode_result(json::object_or_null(*o, "result"));
  if (const json::Object* stats = json::object_or_null(*o, "stats")) {
    for (const auto& [k, v] : *stats) {
      if (v.is_number()) resp.stats[k] = v.number();
    }
  }
  resp.policy = json::string_or(*o, "policy", "");
  return resp;
}

WireSelection to_wire(const select::Selection& s) {
  WireSelection w;
  w.feasible = s.feasible;
  w.chosen.assign(s.chosen.begin(), s.chosen.end());
  w.ips_used.reserve(s.ips_used.size());
  for (const iplib::IpId ip : s.ips_used) w.ips_used.push_back(ip.value);
  w.ip_area = s.ip_area;
  w.interface_area = s.interface_area;
  w.ip_power = s.ip_power;
  w.interface_power = s.interface_power;
  w.min_path_gain = s.min_path_gain;
  w.s_instructions = s.s_instructions;
  w.selected_scalls = s.selected_scalls;
  w.rung = select::to_string(s.rung);
  w.truncated = s.truncated;
  w.greedy_fallback = s.greedy_fallback;
  w.optimality_gap = s.optimality_gap;
  return w;
}

WireResult to_wire(const service::SolveResponse& r) {
  WireResult w;
  w.ticket = r.ticket;
  w.label = r.label;
  w.state = service::to_string(r.state);
  w.attempts = r.attempts;
  w.retry_after_seconds = r.retry_after_seconds;
  w.cache = r.cache;
  w.recovered = r.recovered;
  if (r.state == service::RequestState::kFailed ||
      r.state == service::RequestState::kRejected) {
    w.error.kind = support::to_string(r.error.kind);
    w.error.message = r.error.message;
  }
  if (r.state == service::RequestState::kCompleted) w.selection = to_wire(r.selection);
  return w;
}

bool resolve_workload(const WireRequest& req, service::SolveRequest* out,
                      std::string* error) {
  if (req.spec) {
    workloads::InstanceGenParams p;
    p.scalls = req.spec->scalls;
    p.kernels = req.spec->kernels;
    p.ips = req.spec->ips;
    p.branch_groups = req.spec->branch_groups;
    p.max_hierarchy_depth = req.spec->hierarchy_depth;
    workloads::InstanceSpec spec = workloads::random_instance_spec(p, req.spec->seed);
    out->label = req.label.empty() ? "spec_" + std::to_string(req.spec->seed) : req.label;
    out->workload = workloads::spec_workload(spec);
    out->spec = std::move(spec);
    return true;
  }
  std::optional<workloads::Workload> w = workloads::builtin(req.workload);
  if (!w) {
    if (error) *error = "unknown workload '" + req.workload + "'";
    return false;
  }
  out->workload = std::move(*w);
  out->label = req.label.empty() ? req.workload : req.label;
  return true;
}

bool to_service_request(const WireRequest& req, service::SolveRequest* out,
                        std::string* error) {
  if (!resolve_workload(req, out, error)) return false;
  out->required_gains =
      req.gains.empty() ? std::vector<std::int64_t>{req.required_gain} : req.gains;
  out->tenant = req.tenant;
  out->priority = req.priority;
  out->deadline_seconds = req.deadline_seconds;
  if (req.time_limit_seconds > 0) {
    out->options.ilp.budget.time_limit_seconds = req.time_limit_seconds;
  }
  if (req.memory_limit_mb > 0) {
    out->options.ilp.budget.memory_limit_bytes = req.memory_limit_mb << 20;
  }
  // Canonical re-encoding, not the raw frame: what the journal persists is
  // exactly what decode_request understood, so replays cannot drift from
  // the admitted interpretation.
  out->journal_payload = encode_request(req);
  return true;
}

bool from_journal_payload(const std::string& payload, std::uint64_t seq,
                          service::SolveRequest* out, std::string* error) {
  std::optional<WireRequest> req = decode_request(payload, error);
  if (!req) return false;
  if (req->verb != "submit") {
    if (error) *error = "journaled payload is not a submit verb";
    return false;
  }
  if (!to_service_request(*req, out, error)) return false;
  out->journal_seq = seq;  // the admit record already exists; never re-append
  out->recovered = true;
  return true;
}

}  // namespace partita::net
