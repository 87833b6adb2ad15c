#include "isel/enumerate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/assert.hpp"

namespace partita::isel {

ImpDatabase::ImpDatabase(const ir::Module& module, const profile::ModuleProfile& prof,
                         const iplib::IpLibrary& lib, const cdfg::Cdfg& entry_cdfg,
                         const std::vector<cdfg::ExecPath>& /*paths*/,
                         const std::vector<SCall>& scalls, const EnumerateOptions& opts)
    : module_(module),
      prof_(prof),
      lib_(lib),
      entry_cdfg_(entry_cdfg),
      opts_(opts),
      scalls_(scalls) {
  for (const SCall& sc : scalls_) build_for_scall(sc);
  prune_dominated();
}

void ImpDatabase::prune_dominated() {
  // A dominates B when both implement the same s-call on the same IP, A's
  // gain is no smaller, its interface no bigger, and it conflicts with no
  // more s-calls. Dropping B never removes an optimal solution because any
  // selection using B can swap in A without violating a constraint or
  // raising the objective (the shared-IP fixed charge is identical).
  auto subset = [](const std::vector<ir::CallSiteId>& a,
                   const std::vector<ir::CallSiteId>& b) {
    for (ir::CallSiteId c : a) {
      if (std::find(b.begin(), b.end(), c) == b.end()) return false;
    }
    return true;
  };

  std::vector<bool> dead(imps_.size(), false);
  for (std::size_t a = 0; a < imps_.size(); ++a) {
    if (dead[a]) continue;
    for (std::size_t b = 0; b < imps_.size(); ++b) {
      if (a == b || dead[b]) continue;
      const Imp& A = imps_[a];
      const Imp& B = imps_[b];
      if (A.scall != B.scall || A.ip != B.ip) continue;
      const bool dominates =
          A.gain_per_exec >= B.gain_per_exec && A.interface_area <= B.interface_area &&
          subset(A.pc_consumed_scalls, B.pc_consumed_scalls);
      const bool strictly =
          A.gain_per_exec > B.gain_per_exec || A.interface_area < B.interface_area ||
          A.pc_consumed_scalls.size() < B.pc_consumed_scalls.size() || a < b;
      if (dominates && strictly) dead[b] = true;
    }
  }

  std::vector<Imp> kept;
  kept.reserve(imps_.size());
  for (std::size_t i = 0; i < imps_.size(); ++i) {
    if (dead[i]) continue;
    Imp imp = std::move(imps_[i]);
    imp.index = static_cast<ImpIndex>(kept.size());
    kept.push_back(std::move(imp));
  }
  imps_ = std::move(kept);
}

std::vector<ImpIndex> ImpDatabase::imps_for(ir::CallSiteId sc) const {
  std::vector<ImpIndex> out;
  for (const Imp& imp : imps_) {
    if (imp.scall == sc) out.push_back(imp.index);
  }
  return out;
}

const SCall* ImpDatabase::scall_of(ir::CallSiteId sc) const {
  auto it = std::find_if(scalls_.begin(), scalls_.end(),
                         [&](const SCall& s) { return s.site == sc; });
  return it == scalls_.end() ? nullptr : &*it;
}

std::unordered_map<std::uint32_t, double> ImpDatabase::local_callee_counts(
    const ir::Function& fn) const {
  std::unordered_map<std::uint32_t, double> counts;
  // Walk the statement tree with a frequency multiplier, mirroring the
  // profiler but relative to ONE invocation of fn.
  struct Walker {
    const ir::Function& fn;
    std::unordered_map<std::uint32_t, double>& counts;
    void seq(const std::vector<ir::StmtId>& stmts, double mult) {
      for (ir::StmtId id : stmts) visit(fn.stmt(id), mult);
    }
    void visit(const ir::Stmt& s, double mult) {
      switch (s.kind) {
        case ir::StmtKind::kSeg:
          break;
        case ir::StmtKind::kCall:
          counts[s.callee.value()] += mult;
          break;
        case ir::StmtKind::kIf:
          seq(s.then_stmts, mult * s.taken_prob);
          seq(s.else_stmts, mult * (1 - s.taken_prob));
          break;
        case ir::StmtKind::kLoop:
          seq(s.body_stmts, mult * static_cast<double>(s.trip_count));
          break;
      }
    }
  } w{fn, counts};
  w.seq(fn.body(), 1.0);
  return counts;
}

const std::vector<ImpDatabase::FuncImp>& ImpDatabase::function_imps(ir::FuncId f,
                                                                    int depth) {
  auto it = func_imp_cache_.find(f.value());
  if (it != func_imp_cache_.end()) return it->second;

  std::vector<FuncImp> result;
  const ir::Function& fn = module_.function(f);
  const std::int64_t t_sw = prof_.cycles_of(f);

  // --- direct IMPs: some IP executes this very function -------------------
  if (fn.ip_mappable()) {
    for (const iplib::Implementor& impl : lib_.implementors_of(fn.name())) {
      const iplib::IpDescriptor& ip = lib_.ip(impl.ip);
      for (iface::InterfaceType type : opts_.allowed_types) {
        if (!iface::applicable(type, ip, opts_.kernel).ok) continue;
        FuncImp fi;
        fi.ip = impl.ip;
        fi.ip_function = impl.function;
        fi.type = type;
        fi.timing = iface::interface_timing(type, ip, *impl.function, 0, opts_.kernel);
        fi.saved_per_exec = t_sw - fi.timing.total_cycles;
        fi.interface_area =
            iface::interface_cost(type, ip, *impl.function, opts_.kernel).total();
        fi.interface_power = iface::interface_power(type, ip, opts_.kernel);
        // Keep even non-positive direct entries: an IP slower than software
        // can still win once parallel code overlaps it (Section 3's "a
        // slower IP with a parallel code may be better"). Useless variants
        // are filtered at emission.
        result.push_back(fi);
      }
    }
  }

  // --- flattened IMPs: keep fn in software, lift a descendant's IMP -------
  if (depth < opts_.max_flatten_depth && !fn.body().empty()) {
    for (const auto& [callee_raw, count] : local_callee_counts(fn)) {
      if (count <= 0) continue;
      const ir::FuncId callee{callee_raw};
      for (const FuncImp& inner : function_imps(callee, depth + 1)) {
        if (inner.saved_per_exec <= 0) continue;  // lifting cannot rescue it
        FuncImp fi = inner;
        fi.flattened = true;
        fi.depth = inner.depth + 1;
        fi.inner_per_exec = inner.inner_per_exec * count;
        fi.saved_per_exec = static_cast<std::int64_t>(
            std::llround(static_cast<double>(inner.saved_per_exec) * count));
        // One interface instance serves every inner execution.
        fi.interface_area = inner.interface_area;
        if (fi.saved_per_exec > 0) result.push_back(fi);
      }
    }
  }

  auto [ins, ok] = func_imp_cache_.emplace(f.value(), std::move(result));
  PARTITA_ASSERT(ok);
  return ins->second;
}

void ImpDatabase::add_imp(Imp imp) {
  // Deduplicate: identical (scall, ip, type, pc_use, gain) adds nothing.
  for (const Imp& e : imps_) {
    if (e.scall == imp.scall && e.ip == imp.ip && e.iface_type == imp.iface_type &&
        e.pc_use == imp.pc_use && e.gain == imp.gain && e.flattened == imp.flattened) {
      return;
    }
  }
  imp.index = static_cast<ImpIndex>(imps_.size());
  imps_.push_back(std::move(imp));
}

void ImpDatabase::build_for_scall(const SCall& sc) {
  // Parallel-code variants from the caller's CDFG (top-level context): the
  // Problem 1 PC, then under Problem 2 one PC per consumption prefix.
  std::vector<std::pair<PcUse, cdfg::ParallelCode>> pcs;
  if (sc.node != cdfg::kInvalidNode) {
    cdfg::PcOptions opt;
    opt.is_scall = [this](ir::CallSiteId c) { return scall_of(c) != nullptr; };
    const cdfg::ParallelCode plain = cdfg::parallel_code(entry_cdfg_, sc.node, opt);
    if (plain.cycles > 0) pcs.emplace_back(PcUse::kPlain, plain);
    // One variant per consumption prefix: consuming fewer s-calls yields
    // less overlap but leaves the rest free for their own IPs.
    opt.allow_scall_software = true;
    const std::size_t consumable =
        opts_.problem2 ? cdfg::parallel_code(entry_cdfg_, sc.node, opt).consumed_scalls.size() : 0;
    for (std::size_t k = 1; k <= consumable; ++k) {
      opt.max_consumed = k;
      cdfg::ParallelCode pc = cdfg::parallel_code(entry_cdfg_, sc.node, opt);
      if (pc.cycles > plain.cycles && !pc.consumed_scalls.empty()) {
        pcs.emplace_back(PcUse::kWithScallSw, std::move(pc));
      }
    }
  }

  for (const FuncImp& fi : function_imps(sc.callee, 0)) {
    const iplib::IpDescriptor& ip = lib_.ip(fi.ip);

    auto emit = [&](PcUse use, const cdfg::ParallelCode* pc) {
      Imp imp;
      imp.scall = sc.site;
      imp.ip = fi.ip;
      imp.ip_function = fi.ip_function;
      imp.iface_type = fi.type;
      imp.flattened = fi.flattened;
      imp.flatten_depth = fi.depth;
      imp.inner_calls_per_exec = fi.inner_per_exec;
      imp.pc_use = use;

      if (use == PcUse::kNone) {
        imp.timing = fi.timing;
        imp.gain_per_exec = fi.saved_per_exec;
      } else {
        PARTITA_ASSERT(pc != nullptr && !fi.flattened);
        imp.parallel_cycles = pc->cycles;
        imp.pc_nodes = pc->nodes;
        imp.pc_consumed_scalls = pc->consumed_scalls;
        imp.timing = iface::interface_timing(fi.type, ip, *fi.ip_function, pc->cycles,
                                             opts_.kernel);
        imp.gain_per_exec = sc.t_sw - imp.timing.total_cycles;
      }
      imp.interface_area = fi.interface_area;
      imp.interface_power = fi.interface_power;
      imp.gain = static_cast<std::int64_t>(
          std::llround(static_cast<double>(imp.gain_per_exec) * sc.frequency));
      if (imp.gain_per_exec > 0) add_imp(std::move(imp));
    };

    emit(PcUse::kNone, nullptr);

    // PC variants only make sense on buffered interfaces of direct IMPs.
    if (!fi.flattened && iface::supports_parallel_execution(fi.type)) {
      for (const auto& [use, pc] : pcs) emit(use, &pc);
    }
  }
}

std::string ImpDatabase::dump(const iplib::IpLibrary& lib) const {
  std::ostringstream os;
  os << "IMP database: " << imps_.size() << " IMPs for " << scalls_.size()
     << " s-calls\n";
  for (const SCall& sc : scalls_) {
    os << "  SC" << sc.site.value() << " = " << sc.callee_name << " (T_SW=" << sc.t_sw
       << ", freq=" << sc.frequency << ")\n";
    for (ImpIndex i : imps_for(sc.site)) {
      os << "    IMP" << i << ": " << imps_[i].describe(lib) << '\n';
    }
  }
  return os.str();
}

}  // namespace partita::isel
