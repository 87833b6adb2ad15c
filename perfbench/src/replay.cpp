#include "replay.hpp"

#include <algorithm>
#include <chrono>

#include "cdfg/cdfg.hpp"
#include "cdfg/paths.hpp"
#include "ilp/fingerprint.hpp"
#include "isel/enumerate.hpp"
#include "isel/scall.hpp"
#include "net/frame.hpp"
#include "profile/profile.hpp"
#include "select/selector.hpp"

namespace perfbench {

namespace net = partita::net;
namespace ilp = partita::ilp;
namespace sel = partita::select;
using partita::service::SolveResponse;

namespace {

/// Points the "gain_path<k>" rows of a token-gain model at `gains`, the
/// retargeting Selector::select_batch_per_path applies between batch items.
void retarget(ilp::Model& m, const std::vector<std::int64_t>& gains) {
  for (std::size_t r = 0; r < m.row_count(); ++r) {
    const ilp::Row& row = m.row(static_cast<ilp::RowIndex>(r));
    if (row.name.rfind("gain_path", 0) != 0) continue;
    const std::size_t p = std::stoul(row.name.substr(sizeof("gain_path") - 1));
    double floor = -1.0;
    for (const ilp::Term& t : row.terms) floor += std::min(0.0, t.coeff);
    m.set_rhs(static_cast<ilp::RowIndex>(r),
              gains[p] > 0 ? static_cast<double>(gains[p]) : floor);
  }
}

/// Encodes and decodes every payload of one request's conversation (submit,
/// its answer, one wait and one answer per ticket); returns the framed bytes.
std::size_t codec_roundtrip(const net::WireRequest& submit,
                            const std::vector<SolveResponse>& answers) {
  std::size_t bytes = 0;
  std::string error;
  auto req = [&](const net::WireRequest& w) {
    const std::string p = net::encode_request(w);
    (void)net::decode_request(p, &error);
    bytes += net::encode_frame(p).size();
  };
  auto resp = [&](const net::WireResponse& w) {
    const std::string p = net::encode_response(w);
    (void)net::decode_response(p, &error);
    bytes += net::encode_frame(p).size();
  };
  req(submit);
  net::WireResponse sub;
  sub.verb = "submit";
  sub.state = "queued";
  for (const SolveResponse& a : answers) sub.tickets.push_back(a.ticket);
  resp(sub);
  for (const SolveResponse& a : answers) {
    net::WireRequest w;
    w.verb = "wait";
    w.ticket = a.ticket;
    req(w);
    net::WireResponse r;
    r.verb = "wait";
    r.result = net::to_wire(a);
    resp(r);
  }
  return bytes;
}

void add_stats(LayerTotals& t, const ilp::SolverStats& s) {
  t.nodes += s.nodes;
  t.lp_iterations += s.lp_iterations;
  t.root_lp_iterations += s.root_lp_iterations;
  t.waves += s.waves;
  t.warm_starts += s.warm_starts;
  t.cold_starts += s.cold_starts;
  t.cuts_separated += s.cuts_separated;
  t.cuts_applied += s.cuts_applied;
}

void count_model(LayerTotals& t, const ilp::Model& m) {
  t.models += 1.0;
  t.rows += static_cast<double>(m.row_count());
  t.cols += static_cast<double>(m.var_count());
}

}  // namespace

LayerTotals replay_traced(const FrozenList& list, const std::vector<SessionOp>& stream,
                          partita::service::SolveService& local, Stack& wire, SpanLog& log) {
  LayerTotals t;
  const sel::SelectOptions opt;  // what a wire submit without budgets solves with
  int id = 0;
  for (const SessionOp& sop : stream) {
    if (id >= list.trace_ops) break;
    bool ok = true;
    std::string error;
    auto fail = [&](const std::string& why) {
      if (ok && t.first_error.empty()) t.first_error = why;
      ok = false;
    };
    auto timed = [&](const char* name, auto&& fn) {
      const int s = log.open(name, id);
      fn();
      log.close(s);
      const Span& sp = log.spans()[static_cast<std::size_t>(s)];
      return static_cast<double>(sp.end_ns - sp.start_ns) / 1e6;
    };
    const int root = log.open("op", id);
    for (const std::size_t ri : sop.requests) {
      const Request& req = list.requests[ri];
      const net::WireRequest verb = submit_verb(list, req, sop.op->tenant);

      // In-process service (submit -> wait, resolve done beforehand) and the
      // same request over the socket. Odd ops swap the order, so whichever
      // runs first and meets the instance's data cold does not bias
      // net.overhead_ms.
      std::vector<SolveResponse> answers;
      double local_ms = 0.0, wire_ms = 0.0;
      auto run_local = [&] {
        partita::service::SolveRequest sr;
        if (!net::to_service_request(verb, &sr, &error)) fail(error);
        local_ms = timed("service.local", [&] {
          const partita::service::SubmitOutcome out = local.submit(std::move(sr));
          for (const std::uint64_t ticket : out.tickets) answers.push_back(local.wait(ticket));
        });
      };
      auto run_wire = [&] {
        timed("net.wire", [&] {
          const OpResult w = run_wire_op(*wire.clients.front(), list, SessionOp{sop.op, {ri}},
                                         sop.op->tenant);
          if (!w.ok) fail(w.error);
          wire_ms = w.latency_ms;
        });
      };
      if (id % 2 == 0) {
        run_local();
        run_wire();
      } else {
        run_wire();
        run_local();
      }
      for (std::size_t k = 0; k < answers.size() && k < req.expect.size(); ++k) {
        const SolveResponse& a = answers[k];
        if (a.state != partita::service::RequestState::kCompleted ||
            !matches(req.expect[k], a.selection.feasible, a.selection.total_area(),
                     sel::to_string(a.selection.rung))) {
          fail("in-process answer differs from the frozen expectation");
        }
      }
      if (answers.size() != req.gains.size()) fail("in-process submit was not admitted");
      const std::string marker = answers.empty() ? "" : answers.front().cache;
      if (marker == "hit") {
        t.hit_ms += local_ms;
        ++t.hits;
      }
      const double codec_ms = timed("net.codec", [&] { t.wire_bytes += codec_roundtrip(verb, answers); });

      // The layers, called directly.
      double layers_ms = 0.0, resolve_ms = 0.0;
      const int rs = log.open("replay", id);
      partita::service::SolveRequest resolved;
      resolve_ms = timed("frontend.resolve", [&] {
        if (!net::resolve_workload(verb, &resolved, &error)) fail(error);
      });
      const partita::ir::Module& module = resolved.workload.module;
      const partita::iplib::IpLibrary& lib = resolved.workload.library;
      partita::profile::ModuleProfile prof;
      layers_ms += timed("profile.profile", [&] { prof = partita::profile::profile_module(module); });
      std::unique_ptr<partita::cdfg::Cdfg> cdfg;
      std::vector<partita::cdfg::ExecPath> paths;
      layers_ms += timed("cdfg.paths", [&] {
        cdfg = std::make_unique<partita::cdfg::Cdfg>(module, module.function(module.entry()));
        cdfg->annotate_call_cycles([&](partita::ir::FuncId f) { return prof.cycles_of(f); });
        paths = partita::cdfg::enumerate_paths(*cdfg);
      });
      std::unique_ptr<partita::isel::ImpDatabase> db;
      layers_ms += timed("isel.impdb", [&] {
        const auto scalls = partita::isel::find_scalls(module, prof, lib, *cdfg);
        db = std::make_unique<partita::isel::ImpDatabase>(module, prof, lib, *cdfg, paths, scalls);
      });
      t.paths += static_cast<double>(paths.size());
      t.imps += static_cast<double>(db->imps().size());
      const sel::Selector selector(*db, lib, *cdfg, paths);
      const std::vector<std::int64_t> token(paths.size(), 1);

      if (list.cache) {
        // The cache key, as the service derives it for every cached request.
        ilp::Model key_model;
        layers_ms += timed("select.build_model", [&] { key_model = selector.build_model(token, opt); });
        count_model(t, key_model);
        layers_ms += timed("ilp.fingerprint", [&] {
          ilp::Fingerprint fp = ilp::fingerprint_model(key_model);
          fp.lo = ilp::fp_mix(fp.lo ^ selector.answer_map_digest());
          (void)fp;
        });
      }
      if (marker != "hit") {
        std::vector<std::int64_t> gains = req.gains;
        if (!req.batch && gains.front() < 0) {
          layers_ms += timed("ilp.gmax", [&] { gains.front() = selector.max_feasible_gain(opt) / 2; });
        }
        // Batches and cached solves build one token-gain model and retarget
        // its gain rows; an uncached single request builds at its gains.
        const bool token_model = req.batch || list.cache;
        double build_ms = 0.0, solve_ms = 0.0, call_ms = 0.0;
        auto direct = [&] {
          ilp::Model m;
          build_ms = timed("select.build_model", [&] {
            m = token_model ? selector.build_model(token, opt)
                            : selector.build_model(
                                  std::vector<std::int64_t>(paths.size(), gains.front()), opt);
          });
          count_model(t, m);
          ilp::BatchContext ctx;
          ctx.carry_search_state = list.cache;
          for (const std::int64_t g : gains) {
            if (token_model) retarget(m, std::vector<std::int64_t>(paths.size(), g));
            ilp::IlpResult r;
            solve_ms += timed("ilp.solve", [&] {
              r = token_model ? ilp::solve_ilp(m, opt.ilp, &ctx) : ilp::solve_ilp(m, opt.ilp);
            });
            add_stats(t, r.stats);
          }
        };
        // The Selector call the service makes; its time minus build and
        // solve is the decode.
        auto call = [&] {
          std::vector<sel::Selection> got;
          call_ms = timed("select.call", [&] {
            if (req.batch) {
              got = selector.select_batch(gains, opt);
            } else if (list.cache) {
              ilp::BatchContext fresh;
              fresh.carry_search_state = true;
              got.push_back(selector.select_seeded(
                  std::vector<std::int64_t>(paths.size(), gains.front()), opt, &fresh));
            } else {
              got.push_back(selector.select(gains.front(), opt));
            }
          });
          for (std::size_t k = 0; k < got.size() && k < req.expect.size(); ++k) {
            if (!matches(req.expect[k], got[k].feasible, got[k].total_area(),
                         sel::to_string(got[k].rung))) {
              fail("direct selector answer differs from the frozen expectation");
            }
          }
        };
        if (id % 2 == 0) {
          direct();
          call();
        } else {
          call();
          direct();
        }
        const double decode_ms = call_ms - build_ms - solve_ms;
        t.decode_ms += decode_ms;
        layers_ms += build_ms + solve_ms + decode_ms;
      }
      log.close(rs);

      t.wire_ms += wire_ms;
      t.service_overhead_ms += local_ms - layers_ms;
      t.net_overhead_ms += wire_ms - local_ms - resolve_ms;
      t.attributed_ms += resolve_ms + layers_ms + codec_ms;
    }
    log.close(root);
    for (const auto& [name, ms] : log.self_ms(id)) t.self_ms[name] += ms;
    ++t.ops;
    if (!ok) ++t.failed;
    ++id;
  }
  t.spans = static_cast<int>(log.spans().size());
  return t;
}

double span_cost_ms() {
  SpanLog scratch;
  constexpr int kSpans = 20000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) scratch.close(scratch.open("ilp.solve", 0));
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count() /
         kSpans;
}

}  // namespace perfbench
