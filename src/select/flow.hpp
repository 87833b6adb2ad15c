// End-to-end flow facade.
//
// Owns every analysis stage between a parsed module + IP library and the
// selector: profile, entry-function CDFG (with call cycles annotated),
// execution paths, s-call discovery and the IMP database. Benches, examples
// and integration tests all drive this one object instead of wiring the
// stages by hand.
#pragma once

#include <memory>

#include "isel/enumerate.hpp"
#include "select/greedy.hpp"
#include "select/selector.hpp"
#include "support/result.hpp"

namespace partita::select {

class Flow {
 public:
  /// Fallible factory for user-input paths: verifies the module and checks
  /// module/IP-library consistency, returning either a ready Flow or the
  /// full diagnostic list. Never aborts. References must outlive the Flow.
  static support::Result<std::unique_ptr<Flow>> create(
      const ir::Module& module, const iplib::IpLibrary& library,
      const isel::EnumerateOptions& opts = {});

  /// Asserting convenience constructor for programmatic callers that
  /// guarantee a verified module (tests, benches, built-in workloads).
  /// Anything fed from parsed user input must go through create().
  Flow(const ir::Module& module, const iplib::IpLibrary& library,
       const isel::EnumerateOptions& opts = {});

  const ir::Module& module() const { return *module_; }
  const iplib::IpLibrary& library() const { return *library_; }
  const profile::ModuleProfile& profile() const { return profile_; }
  const cdfg::Cdfg& entry_cdfg() const { return *entry_cdfg_; }
  const std::vector<cdfg::ExecPath>& paths() const { return paths_; }
  const std::vector<isel::SCall>& scalls() const { return db_->scalls(); }
  const isel::ImpDatabase& imp_database() const { return *db_; }
  const Selector& selector() const { return *selector_; }

  /// Optimal selection with uniform required gain.
  Selection select(std::int64_t required_gain, const SelectOptions& opt = {}) const {
    return selector_->select(required_gain, opt);
  }

  /// Batch of uniform-gain selections sharing one model build, clique table
  /// and chained root bases; bit-identical to calling select() per gain.
  std::vector<Selection> select_batch(const std::vector<std::int64_t>& required_gains,
                                      const SelectOptions& opt = {}) const {
    return selector_->select_batch(required_gains, opt);
  }

  Selection greedy(std::int64_t required_gain) const {
    return greedy_select(*db_, *library_, *entry_cdfg_, selector_->cond_tree(),
                         required_gain);
  }

  /// The pre-paper baseline: the exact ILP on the IMPs prior_art_allows keeps.
  Selection prior_art(std::int64_t required_gain) const {
    SelectOptions opt;
    opt.imp_filter = prior_art_allows;
    return selector_->select(required_gain, opt);
  }

  /// Largest uniform required gain that is still feasible: maximizes the
  /// minimum per-path gain subject to the same constraint system (one ILP
  /// solve with an auxiliary continuous variable).
  std::int64_t max_feasible_gain(const SelectOptions& opt = {}) const;

 private:
  Flow() = default;

  /// Runs verification + all analysis stages; false (with diagnostics) when
  /// the input is unusable.
  bool init(const ir::Module& module, const iplib::IpLibrary& library,
            const isel::EnumerateOptions& opts, support::DiagnosticEngine& diags);

  const ir::Module* module_ = nullptr;
  const iplib::IpLibrary* library_ = nullptr;
  profile::ModuleProfile profile_;
  std::unique_ptr<cdfg::Cdfg> entry_cdfg_;
  std::vector<cdfg::ExecPath> paths_;
  std::unique_ptr<isel::ImpDatabase> db_;
  std::unique_ptr<Selector> selector_;
};

}  // namespace partita::select
