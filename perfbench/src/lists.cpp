#include "lists.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <set>

#include "iplib/loader.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "workloads/random_workload.hpp"

namespace perfbench {

namespace json = partita::support::json;
using partita::net::SpecRef;
using partita::net::WireRequest;

namespace {

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

partita::workloads::InstanceGenParams gen_params(const SpecRef& s) {
  // Mirrors net::resolve_workload, so the hash covers what the server runs.
  partita::workloads::InstanceGenParams p;
  p.scalls = s.scalls;
  p.kernels = s.kernels;
  p.ips = s.ips;
  p.branch_groups = s.branch_groups;
  p.max_hierarchy_depth = s.hierarchy_depth;
  return p;
}

std::string i64_array(const std::vector<std::int64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

std::string size_array(const std::vector<std::size_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

std::string render_ops(const std::vector<Op>& ops) {
  std::string out = "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"tenant\":" + json::quote(op.tenant) + ",\"class\":" + json::quote(op.cls) +
           ",\"requests\":" + size_array(op.requests) + "}";
  }
  return out + "\n  ]";
}

bool parse_ops(const json::Array& arr, std::size_t n_requests, std::vector<Op>* out,
               std::string* error) {
  for (const json::Value& v : arr) {
    if (!v.is_object()) {
      *error = "op is not an object";
      return false;
    }
    const json::Object& o = v.object();
    Op op;
    op.tenant = json::string_or(o, "tenant", "");
    op.cls = json::string_or(o, "class", "");
    const json::Array* reqs = json::array_or_null(o, "requests");
    if (op.tenant.empty() || op.cls.empty() || reqs == nullptr || reqs->empty()) {
      *error = "op needs tenant, class and requests";
      return false;
    }
    for (const json::Value& r : *reqs) {
      if (!r.is_number() || r.number() < 0 || r.number() >= static_cast<double>(n_requests)) {
        *error = "op references an unknown request";
        return false;
      }
      op.requests.push_back(static_cast<std::size_t>(r.number()));
    }
    out->push_back(std::move(op));
  }
  return true;
}

}  // namespace

partita::workloads::Workload build_workload(const Instance& inst) {
  WireRequest req;
  req.workload = inst.builtin;
  req.spec = inst.spec;
  partita::service::SolveRequest out;
  std::string error;
  if (!partita::net::resolve_workload(req, &out, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::exit(2);
  }
  return std::move(out.workload);
}

std::string instance_text_hash(const Instance& inst) {
  std::string text;
  if (inst.spec) {
    const partita::workloads::InstanceSpec spec =
        partita::workloads::random_instance_spec(gen_params(*inst.spec), inst.spec->seed);
    text = partita::workloads::spec_kl(spec) + "\n--library--\n" +
           partita::workloads::spec_library(spec);
  } else {
    text = partita::workloads::workload_source(inst.builtin) + "\n--library--\n" +
           partita::iplib::save_library(build_workload(inst).library);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fnv1a(text)));
  return buf;
}

bool verify_hashes(const FrozenList& list, std::string* error) {
  for (std::size_t i = 0; i < list.instances.size(); ++i) {
    const std::string h = instance_text_hash(list.instances[i]);
    if (h != list.instances[i].text_hash) {
      *error = "instance " + std::to_string(i) + " renders to hash " + h +
               ", the list froze " + list.instances[i].text_hash +
               ": the generator or a built-in app changed; re-freeze the lists";
      return false;
    }
  }
  return true;
}

bool load_list(const std::string& path, FrozenList* out, std::string* error) {
  std::string text;
  if (!partita::support::io::read_file(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  std::optional<json::Value> doc = json::parse(text, error);
  if (!doc || !doc->is_object()) return false;
  const json::Object& root = doc->object();
  if (json::string_or(root, "schema", "") != kListSchema) {
    *error = path + ": not a " + std::string(kListSchema) + " document";
    return false;
  }
  FrozenList l;
  l.workload = json::string_or(root, "workload", "");
  l.cache = json::bool_or(root, "cache", false);
  l.tail_percentile = static_cast<int>(json::int_or(root, "tail_percentile", 90));
  l.trace_ops = static_cast<int>(json::int_or(root, "trace_ops", 1));
  const json::Array* insts = json::array_or_null(root, "instances");
  const json::Array* reqs = json::array_or_null(root, "requests");
  const json::Array* warm = json::array_or_null(root, "warmup");
  const json::Array* ops = json::array_or_null(root, "ops");
  if (insts == nullptr || reqs == nullptr || warm == nullptr || ops == nullptr) {
    *error = path + ": missing instances/requests/warmup/ops";
    return false;
  }
  for (const json::Value& v : *insts) {
    const json::Object& o = v.object();
    Instance inst;
    inst.builtin = json::string_or(o, "builtin", "");
    if (const json::Object* s = json::object_or_null(o, "spec")) {
      SpecRef r;
      r.seed = static_cast<std::uint64_t>(json::int_or(*s, "seed", 1));
      r.scalls = static_cast<int>(json::int_or(*s, "scalls", r.scalls));
      r.kernels = static_cast<int>(json::int_or(*s, "kernels", r.kernels));
      r.ips = static_cast<int>(json::int_or(*s, "ips", r.ips));
      r.branch_groups = static_cast<int>(json::int_or(*s, "branch_groups", r.branch_groups));
      r.hierarchy_depth =
          static_cast<int>(json::int_or(*s, "hierarchy_depth", r.hierarchy_depth));
      inst.spec = r;
    }
    inst.text_hash = json::string_or(o, "text_hash", "");
    l.instances.push_back(std::move(inst));
  }
  for (const json::Value& v : *reqs) {
    const json::Object& o = v.object();
    Request r;
    const double idx = json::num_or(o, "instance", -1);
    if (idx < 0 || idx >= static_cast<double>(l.instances.size())) {
      *error = path + ": request references an unknown instance";
      return false;
    }
    r.instance = static_cast<std::size_t>(idx);
    r.batch = json::bool_or(o, "batch", false);
    r.oracle = json::string_or(o, "oracle", "skipped");
    if (const json::Array* g = json::array_or_null(o, "gains")) {
      for (const json::Value& x : *g) r.gains.push_back(static_cast<std::int64_t>(x.number()));
    }
    if (const json::Array* e = json::array_or_null(o, "expect")) {
      for (const json::Value& x : *e) {
        const json::Object& eo = x.object();
        r.expect.push_back({json::bool_or(eo, "feasible", false),
                            json::num_or(eo, "area", 0.0),
                            json::string_or(eo, "rung", "")});
      }
    }
    if (r.gains.empty() || r.gains.size() != r.expect.size() ||
        (!r.batch && r.gains.size() != 1)) {
      *error = path + ": request needs one expected answer per gain";
      return false;
    }
    l.requests.push_back(std::move(r));
  }
  if (!parse_ops(*warm, l.requests.size(), &l.warmup, error) ||
      !parse_ops(*ops, l.requests.size(), &l.ops, error)) {
    *error = path + ": " + *error;
    return false;
  }
  if (l.ops.empty()) {
    *error = path + ": no ops";
    return false;
  }
  *out = std::move(l);
  return true;
}

std::string render_list(const FrozenList& list) {
  std::string out = "{\n  \"schema\": " + json::quote(kListSchema) + ",\n";
  out += "  \"workload\": " + json::quote(list.workload) + ",\n";
  out += std::string("  \"cache\": ") + (list.cache ? "true" : "false") + ",\n";
  out += "  \"tail_percentile\": " + std::to_string(list.tail_percentile) + ",\n";
  out += "  \"trace_ops\": " + std::to_string(list.trace_ops) + ",\n";
  out += "  \"instances\": [";
  for (std::size_t i = 0; i < list.instances.size(); ++i) {
    const Instance& inst = list.instances[i];
    out += i ? ",\n    {" : "\n    {";
    if (inst.spec) {
      const SpecRef& s = *inst.spec;
      out += "\"spec\":{\"seed\":" + std::to_string(s.seed) +
             ",\"scalls\":" + std::to_string(s.scalls) +
             ",\"kernels\":" + std::to_string(s.kernels) +
             ",\"ips\":" + std::to_string(s.ips) +
             ",\"branch_groups\":" + std::to_string(s.branch_groups) +
             ",\"hierarchy_depth\":" + std::to_string(s.hierarchy_depth) + "}";
    } else {
      out += "\"builtin\":" + json::quote(inst.builtin);
    }
    out += ",\"text_hash\":" + json::quote(inst.text_hash) + "}";
  }
  out += "\n  ],\n  \"requests\": [";
  for (std::size_t i = 0; i < list.requests.size(); ++i) {
    const Request& r = list.requests[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"instance\":" + std::to_string(r.instance) + ",\"gains\":" + i64_array(r.gains) +
           ",\"batch\":" + (r.batch ? "true" : "false") +
           ",\"oracle\":" + json::quote(r.oracle) + ",\"expect\":[";
    for (std::size_t k = 0; k < r.expect.size(); ++k) {
      const Expect& e = r.expect[k];
      if (k) out += ",";
      out += std::string("{\"feasible\":") + (e.feasible ? "true" : "false") +
             ",\"area\":" + json::fmt_double(e.area) + ",\"rung\":" + json::quote(e.rung) +
             "}";
    }
    out += "]}";
  }
  out += "\n  ],\n  \"warmup\": " + render_ops(list.warmup) + ",\n";
  out += "  \"ops\": " + render_ops(list.ops) + "\n}\n";
  return out;
}

WireRequest submit_verb(const FrozenList& list, const Request& req, const std::string& tenant) {
  WireRequest w;
  w.verb = "submit";
  const Instance& inst = list.instances[req.instance];
  w.workload = inst.builtin;
  w.spec = inst.spec;
  w.tenant = tenant;
  if (req.batch) {
    w.gains = req.gains;
  } else {
    w.required_gain = req.gains.front();
  }
  return w;
}

bool matches(const Expect& e, bool feasible, double area, const std::string& rung) {
  return e.feasible == feasible && e.rung == rung &&
         std::abs(e.area - area) <= 1e-9 * std::max(1.0, std::abs(e.area));
}

Expect expect_of(const partita::select::Selection& s) {
  return {s.feasible, s.total_area(), partita::select::to_string(s.rung)};
}

std::vector<std::vector<SessionOp>> session_streams(const FrozenList& list,
                                                    const std::vector<Op>& ops,
                                                    std::uint64_t seed) {
  std::vector<std::string> tenants;
  for (const Op& op : ops) {
    if (std::find(tenants.begin(), tenants.end(), op.tenant) == tenants.end()) {
      tenants.push_back(op.tenant);
    }
  }
  std::vector<std::vector<SessionOp>> out;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + t + 1);
    std::vector<const Op*> left;
    for (const Op& op : ops) {
      if (op.tenant == tenants[t]) left.push_back(&op);
    }
    // A repeat ("hit"/"neighbor") is eligible once a "first" op of its
    // instance has been issued; every other op is always eligible.
    std::set<std::size_t> seen;
    std::vector<SessionOp> stream;
    while (!left.empty()) {
      std::vector<std::size_t> eligible;
      for (std::size_t i = 0; i < left.size(); ++i) {
        const Op& op = *left[i];
        const bool repeat = op.cls == "hit" || op.cls == "neighbor";
        if (!repeat || seen.count(list.requests[op.requests.front()].instance)) {
          eligible.push_back(i);
        }
      }
      if (eligible.empty()) {
        std::fprintf(stderr, "perfbench: tenant %s has a repeat without its first op\n",
                     tenants[t].c_str());
        std::exit(2);
      }
      const std::size_t pick = eligible[rng() % eligible.size()];
      SessionOp so;
      so.op = left[pick];
      so.requests = so.op->requests;
      std::shuffle(so.requests.begin(), so.requests.end(), rng);
      for (const std::size_t r : so.requests) seen.insert(list.requests[r].instance);
      stream.push_back(std::move(so));
      left.erase(left.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    out.push_back(std::move(stream));
  }
  return out;
}

}  // namespace perfbench
