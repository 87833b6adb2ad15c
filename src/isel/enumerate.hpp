// IMP enumeration: building the IMP database (Section 4).
//
// For every top-level s-call SC_i the database holds all IMP_ij:
//
//  * direct IMPs -- each (IP implementing the callee) x (applicable interface
//    type), with the Section 3 timing/area model;
//  * parallel-code variants -- for buffered interfaces, the same IMP with the
//    caller's PC_i overlapped (Problem 1 PC, and under Problem 2 also a PC
//    that absorbs the software bodies of other s-calls, recording the
//    SC-PC conflict partners);
//  * flattened IMPs (hierarchy) -- the callee stays in software and a
//    descendant's IMP is lifted: IMPs of dct1d() are considered when
//    computing those of dct2d(), and so on ("IMP flatten").
//
// Only IMPs with a strictly positive per-execution gain survive; the
// selector treats "no IMP selected" as the pure-software fallback.
#pragma once

#include <unordered_map>
#include <vector>

#include "cdfg/parallel.hpp"
#include "cdfg/paths.hpp"
#include "iface/kernel.hpp"
#include "isel/imp.hpp"
#include "isel/scall.hpp"

namespace partita::isel {

struct EnumerateOptions {
  iface::KernelParams kernel;
  /// Problem 2: allow software bodies of other s-calls inside a PC and
  /// (in the selector) differing implementations per call site.
  bool problem2 = true;
  /// Interface types the design may use (ablation hook).
  std::vector<iface::InterfaceType> allowed_types{
      iface::kAllInterfaceTypes.begin(), iface::kAllInterfaceTypes.end()};
  /// Maximum hierarchy depth for IMP flattening.
  int max_flatten_depth = 6;
};

class ImpDatabase {
 public:
  /// Builds the database. `entry_cdfg` must describe the module's entry
  /// function, with call cycles annotated from the profile. The unused path
  /// list stays only while the perfbench replay passes it.
  ImpDatabase(const ir::Module& module, const profile::ModuleProfile& prof,
              const iplib::IpLibrary& lib, const cdfg::Cdfg& entry_cdfg,
              const std::vector<cdfg::ExecPath>& /*paths*/,
              const std::vector<SCall>& scalls, const EnumerateOptions& opts = {});

  const std::vector<Imp>& imps() const { return imps_; }
  const std::vector<SCall>& scalls() const { return scalls_; }

  /// Indices of the IMPs implementing one s-call.
  std::vector<ImpIndex> imps_for(ir::CallSiteId sc) const;

  const SCall* scall_of(ir::CallSiteId sc) const;

  /// Multi-line description of the whole database.
  std::string dump(const iplib::IpLibrary& lib) const;

 private:
  /// Context-free implementation method for one *function* execution.
  struct FuncImp {
    iplib::IpId ip;
    const iplib::IpFunction* ip_function = nullptr;
    iface::InterfaceType type = iface::InterfaceType::kType0;
    std::int64_t saved_per_exec = 0;
    double interface_area = 0;
    double interface_power = 0;
    bool flattened = false;
    int depth = 0;
    double inner_per_exec = 1.0;
    iface::InterfaceTiming timing;
  };

  const std::vector<FuncImp>& function_imps(ir::FuncId f, int depth);
  std::unordered_map<std::uint32_t, double> local_callee_counts(const ir::Function& fn) const;
  void build_for_scall(const SCall& sc);
  void add_imp(Imp imp);
  /// Drops IMPs strictly dominated by a same-s-call, same-IP alternative
  /// (no worse gain, no bigger interface, no extra conflicts).
  void prune_dominated();

  const ir::Module& module_;
  const profile::ModuleProfile& prof_;
  const iplib::IpLibrary& lib_;
  const cdfg::Cdfg& entry_cdfg_;
  EnumerateOptions opts_;

  std::vector<SCall> scalls_;
  std::vector<Imp> imps_;
  std::unordered_map<std::uint32_t, std::vector<FuncImp>> func_imp_cache_;
};

}  // namespace partita::isel
