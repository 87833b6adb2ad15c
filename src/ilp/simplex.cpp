#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/assert.hpp"
#include "support/fault_injection.hpp"

namespace partita::ilp {

namespace {

/// Per-variable primal feasibility tolerance.
constexpr double kFeasTol = 1e-7;
/// Pivot elements below this magnitude poison the kernel inverse; the step
/// still happens (the row genuinely blocks), but the factorization is rebuilt
/// immediately afterwards instead of compounding 1/alpha roundoff.
constexpr double kPivotTol = 1e-7;
/// Total phase-1 infeasibility below this counts as feasible (matches the
/// old dense implementation's phase-1 exit test).
constexpr double kPhase1Tol = 1e-6;
/// Pivots between refactorizations (numerical hygiene).
// 32 keeps the product-form kernel honest on ill-conditioned cut-augmented
// bases (at 128 the accumulated update roundoff was enough to leak wrong
// bounds into branch & bound on ~800-row models); the Gauss-Jordan rebuild is
// k^3 on the reduced k x k kernel only, so the amortized cost is small.
constexpr int kRefactorInterval = 32;

}  // namespace

// Reduced-basis kernel
// --------------------
// Every basis consists of k structural columns plus m-k logical (unit)
// columns. Instead of a dense m x m inverse we keep only the k x k matrix
//
//   M = A[R, S],   R = rows whose logical column is nonbasic,
//                  S = the basic structural columns,  |R| = |S| = k,
//
// and its inverse. With the invariant "a basic logical always occupies its
// own row's basis slot", B decomposes (up to row permutation) as
// [[M, 0], [C, I]], so every ftran/btran/xb computation reduces to one k x k
// multiply plus sparse column or row scans, and each pivot is one of four
// O(k^2) rank-1 updates on M^-1 (grow / column replace / shrink / row replace).
// For the selection models the row count m (one gain row per execution path)
// dwarfs the variable count n, so k <= n makes iterations O(k^2 + nnz)
// instead of O(m^2) and refactorizations O(k^3) instead of O(m^3).
class SimplexSolver::Impl {
 public:
  explicit Impl(const Model& model) : model_(model) {
    n_ = model.var_count();
    m_ = model.row_count();
    total_ = n_ + m_;
    sign_ = model.sense() == Sense::kMinimize ? 1.0 : -1.0;

    // Equilibration: power-of-2 row and column scale factors bring every
    // matrix entry to O(1), so the absolute pivot / feasibility tolerances
    // below stay meaningful when gain rows carry coefficients in the 1e6
    // range (gain-per-exec times loop frequency). Powers of two make the
    // scaling exact -- no rounding is introduced anywhere.
    const auto pow2_inverse_scale = [](double mag) {
      return mag > 0.0 && std::isfinite(mag) ? std::exp2(-std::ilogb(mag)) : 1.0;
    };
    row_scale_.assign(m_, 1.0);
    for (std::size_t i = 0; i < m_; ++i) {
      double maxc = 0.0;
      for (const Term& t : model.row(static_cast<RowIndex>(i)).terms) {
        maxc = std::max(maxc, std::abs(t.coeff));
      }
      row_scale_[i] = pow2_inverse_scale(maxc);
    }

    // Transpose the row-wise model into sparse columns; logical column n+i
    // is the unit column of row i with sense-encoded bounds. Entries within
    // a column are in increasing row order (the build loop runs over rows).
    std::vector<int> col_nnz(total_, 0);
    for (std::size_t i = 0; i < m_; ++i) {
      for (const Term& t : model.row(static_cast<RowIndex>(i)).terms) ++col_nnz[t.var];
    }
    col_start_.assign(total_ + 1, 0);
    for (std::size_t j = 0; j < n_; ++j) col_start_[j + 1] = col_start_[j] + col_nnz[j];
    for (std::size_t j = n_; j < total_; ++j) col_start_[j + 1] = col_start_[j] + 1;
    col_entries_.resize(col_start_[total_]);
    std::vector<int> fill(n_, 0);
    rhs_.resize(m_);
    logical_lb_.resize(m_);
    logical_ub_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      const Row& row = model.row(static_cast<RowIndex>(i));
      for (const Term& t : row.terms) {
        col_entries_[col_start_[t.var] + fill[t.var]++] = {static_cast<int>(i),
                                                          t.coeff * row_scale_[i]};
      }
      col_entries_[col_start_[n_ + i]] = {static_cast<int>(i), 1.0};
      rhs_[i] = row.rhs * row_scale_[i];
      switch (row.sense) {
        case RowSense::kLessEqual:
          logical_lb_[i] = 0.0;
          logical_ub_[i] = kInfinity;
          break;
        case RowSense::kGreaterEqual:
          logical_lb_[i] = -kInfinity;
          logical_ub_[i] = 0.0;
          break;
        case RowSense::kEqual:
          logical_lb_[i] = 0.0;
          logical_ub_[i] = 0.0;
          break;
      }
    }

    // Column pass of the equilibration: internal variable j holds
    // x_j / col_scale_[j], so entries and the objective pick up the factor
    // and bounds (in run()) divide it back out. Columns left O(1) by the
    // row pass keep a factor of exactly 1.
    col_scale_.assign(total_, 1.0);
    for (std::size_t j = 0; j < n_; ++j) {
      double maxe = 0.0;
      for (int e = col_start_[j]; e < col_start_[j + 1]; ++e) {
        maxe = std::max(maxe, std::abs(col_entries_[e].second));
      }
      const double cs = pow2_inverse_scale(maxe);
      if (cs != 1.0) {
        col_scale_[j] = cs;
        for (int e = col_start_[j]; e < col_start_[j + 1]; ++e) {
          col_entries_[e].second *= cs;
        }
      }
    }

    // Row-major mirror (CSR) of the scaled matrix, for pricing scans driven
    // by the *support of the dual vector* instead of per-column dots. Built
    // from col_entries_ so the stored values are the same scaled doubles.
    row_start_.assign(m_ + 1, 0);
    for (const auto& e : col_entries_) ++row_start_[e.first + 1];
    for (std::size_t i = 0; i < m_; ++i) row_start_[i + 1] += row_start_[i];
    row_entries_.resize(col_entries_.size());
    std::vector<int> rfill(m_, 0);
    for (std::size_t j = 0; j < total_; ++j) {
      for (int e = col_start_[j]; e < col_start_[j + 1]; ++e) {
        const int i = col_entries_[e].first;
        row_entries_[row_start_[i] + rfill[i]++] = {static_cast<int>(j),
                                                    col_entries_[e].second};
      }
    }

    cost_.assign(total_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      cost_[j] = sign_ * model.var(static_cast<VarIndex>(j)).objective * col_scale_[j];
    }

    lb_.resize(total_);
    ub_.resize(total_);
    status_.resize(total_);
    basis_.resize(m_);
    xb_.resize(m_);
    y_.resize(m_);
    alpha_.assign(m_, 0.0);
    alpha_mark_.assign(m_, 0);
    alpha_nz_.reserve(m_);
    rho_.resize(m_);
    work_.resize(m_);
    arho_.assign(total_, 0.0);
    ay_.assign(total_, 0.0);
    resid_.assign(m_, 0.0);  // stays all-zero between ftran_accurate calls
    ban_mark_.assign(total_, 0);

    kcap_ = std::min(n_, m_);
    minv_.resize(kcap_ * kcap_);
    rows_.resize(kcap_);
    cols_.resize(kcap_);
    col_slot_.resize(kcap_);
    row_pos_.assign(m_, -1);
    col_pos_.assign(n_, -1);
    red_.resize(kcap_);
    gwork_.resize(kcap_);
    twork_.resize(kcap_);
    kwork_.resize(kcap_);
  }

  LpResult run(const std::vector<double>& lower, const std::vector<double>& upper,
               const LpOptions& opt, const Basis* warm, Basis* out_basis) {
    opt_ = opt;
    cand_.clear();  // solves must not depend on a previous solve's list
    cand_scans_ = 0;
    cand_refreshes_ = 0;
    LpResult res;

    for (std::size_t j = 0; j < n_; ++j) {
      if (lower[j] > upper[j] + kLpEps) {
        res.status = LpStatus::kInfeasible;  // empty domain from branching
        return res;
      }
      lb_[j] = lower[j] / col_scale_[j];
      ub_[j] = upper[j] / col_scale_[j];
      PARTITA_ASSERT_MSG(std::isfinite(lb_[j]) || std::isfinite(ub_[j]),
                         "structural vars need at least one finite bound");
    }
    for (std::size_t i = 0; i < m_; ++i) {
      lb_[n_ + i] = logical_lb_[i];
      ub_[n_ + i] = logical_ub_[i];
    }

    bool warm_ok = warm != nullptr && load_warm_basis(*warm);
    if (!warm_ok) load_cold_basis();
    res.warm_started = warm_ok;
    compute_xb();

    LpStatus status;
    if (warm_ok) {
      status = dual_simplex(res.iterations);
      // Dual simplex ends primal feasible (or proves infeasibility); a short
      // primal phase-2 run certifies optimality and mops up any residual
      // dual infeasibility from tolerance drift.
      if (status == LpStatus::kOptimal) status = primal(/*phase=*/2, res.iterations);
      if (status == LpStatus::kIterationLimit &&
          res.iterations < kMaxLpIterations) {
        // The imported basis led into a numerical dead end (singular kernel
        // or tiny-pivot ban-out) before the real budget ran out: restart
        // cold, which takes a different pivot trajectory entirely.
        load_cold_basis();
        compute_xb();
        res.warm_started = false;
        status = LpStatus::kOptimal;
        if (total_infeasibility() > kPhase1Tol) {
          status = primal(/*phase=*/1, res.iterations);
        }
        if (status == LpStatus::kOptimal) status = primal(/*phase=*/2, res.iterations);
      }
    } else {
      status = LpStatus::kOptimal;
      if (total_infeasibility() > kPhase1Tol) {
        status = primal(/*phase=*/1, res.iterations);
      }
      if (status == LpStatus::kOptimal) status = primal(/*phase=*/2, res.iterations);
    }
    res.status = status;
    res.candidate_scans = cand_scans_;
    res.pricing_refreshes = cand_refreshes_;
    if (status != LpStatus::kOptimal) {
      have_factorization_ = false;
      return res;
    }

    res.x.assign(n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      if (status_[j] != BasisStatus::kBasic) res.x[j] = nonbasic_value(j);
    }
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < static_cast<int>(n_)) res.x[basis_[i]] = xb_[i];
    }
    for (std::size_t j = 0; j < n_; ++j) res.x[j] *= col_scale_[j];
    double obj = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      obj += model_.var(static_cast<VarIndex>(j)).objective * res.x[j];
    }
    res.objective = obj;

    if (out_basis) {
      out_basis->status.assign(status_.begin(), status_.end());
    }
    return res;
  }

 private:
  double nonbasic_value(std::size_t j) const {
    return status_[j] == BasisStatus::kAtLower ? lb_[j] : ub_[j];
  }

  // --- basis management -----------------------------------------------------

  void load_cold_basis() {
    for (std::size_t j = 0; j < n_; ++j) {
      status_[j] = std::isfinite(lb_[j]) ? BasisStatus::kAtLower : BasisStatus::kAtUpper;
    }
    for (std::size_t i = 0; i < m_; ++i) {
      status_[n_ + i] = BasisStatus::kBasic;
      basis_[i] = static_cast<int>(n_ + i);
      row_pos_[i] = -1;
    }
    std::fill(col_pos_.begin(), col_pos_.end(), -1);
    k_ = 0;  // all-logical basis: M is empty and B is the identity
    have_factorization_ = true;
    pivots_since_refactor_ = 0;
  }

  /// Imports a basis snapshot; returns false (leaving the solver ready for a
  /// cold start) when the snapshot is unusable.
  bool load_warm_basis(const Basis& warm) {
    if (warm.status.size() != total_) return false;
    // Test-only forced refactorization failure: the imported basis is
    // treated as numerically singular, which must route the solve through
    // the cold-start fallback (still correct, just slower).
    if (support::fault_should_trip("simplex.warm_refactor")) return false;

    // Reuse the current basis *structure* when the imported basis is the one
    // we just solved with -- the common case when branch & bound plunges into
    // a child right after its parent. The inverse itself is recomputed unless
    // it is pristine: product-form updates accumulated across earlier solves
    // drift, and a stale M^-1 here silently corrupts every node LP downstream
    // (wrong bounds, even false infeasibility -- found by the differential
    // oracle harness).
    if (have_factorization_ &&
        std::equal(warm.status.begin(), warm.status.end(), status_.begin())) {
      sanitize_nonbasic_statuses();
      if (pivots_since_refactor_ == 0) return true;
      if (refactorize()) return true;
      have_factorization_ = false;  // singular: rebuild from the snapshot below
    }

    std::copy(warm.status.begin(), warm.status.end(), status_.begin());
    sanitize_nonbasic_statuses();

    // Rebuild the reduced representation: rows whose logical is nonbasic
    // host the basic structural columns, one each.
    std::vector<int> basic_structs;
    basic_structs.reserve(kcap_);
    for (std::size_t j = 0; j < n_; ++j) {
      if (status_[j] == BasisStatus::kBasic) basic_structs.push_back(static_cast<int>(j));
    }
    std::vector<int> open_rows;
    for (std::size_t i = 0; i < m_; ++i) {
      if (status_[n_ + i] != BasisStatus::kBasic) open_rows.push_back(static_cast<int>(i));
    }
    if (basic_structs.size() > open_rows.size()) return false;  // overfull snapshot
    if (basic_structs.size() > kcap_) return false;
    // Repair a deficient snapshot by promoting logicals (deterministically:
    // lowest open rows first).
    std::size_t excess = open_rows.size() - basic_structs.size();
    for (std::size_t t = 0; t < excess; ++t) {
      status_[n_ + open_rows[t]] = BasisStatus::kBasic;
    }
    open_rows.erase(open_rows.begin(), open_rows.begin() + excess);

    std::fill(row_pos_.begin(), row_pos_.end(), -1);
    std::fill(col_pos_.begin(), col_pos_.end(), -1);
    k_ = basic_structs.size();
    for (std::size_t i = 0; i < m_; ++i) basis_[i] = static_cast<int>(n_ + i);
    for (std::size_t idx = 0; idx < k_; ++idx) {
      rows_[idx] = open_rows[idx];
      cols_[idx] = basic_structs[idx];
      col_slot_[idx] = open_rows[idx];
      row_pos_[open_rows[idx]] = static_cast<int>(idx);
      col_pos_[basic_structs[idx]] = static_cast<int>(idx);
      basis_[open_rows[idx]] = basic_structs[idx];
    }
    if (!refactorize()) return false;
    return true;
  }

  /// A nonbasic column may not rest at an infinite bound.
  void sanitize_nonbasic_statuses() {
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == BasisStatus::kBasic) continue;
      if (status_[j] == BasisStatus::kAtUpper && !std::isfinite(ub_[j])) {
        status_[j] = BasisStatus::kAtLower;
      } else if (status_[j] == BasisStatus::kAtLower && !std::isfinite(lb_[j])) {
        status_[j] = BasisStatus::kAtUpper;
      }
    }
  }

  /// Rebuilds minv_ = M^-1 by Gauss-Jordan with partial pivoting on the
  /// k x k active matrix A[rows_, cols_].
  bool refactorize() {
    if (k_ == 0) {
      have_factorization_ = true;
      pivots_since_refactor_ = 0;
      return true;
    }
    std::vector<double>& mat = scratch_mat_;
    mat.assign(kcap_ * kcap_, 0.0);
    for (std::size_t b = 0; b < k_; ++b) {
      const int col = cols_[b];
      for (int e = col_start_[col]; e < col_start_[col + 1]; ++e) {
        const int a = row_pos_[col_entries_[e].first];
        if (a >= 0) mat[static_cast<std::size_t>(a) * kcap_ + b] = col_entries_[e].second;
      }
    }
    for (std::size_t b = 0; b < k_; ++b) {
      double* row = &minv_[b * kcap_];
      std::fill(row, row + k_, 0.0);
      row[b] = 1.0;
    }

    for (std::size_t p = 0; p < k_; ++p) {
      std::size_t piv_row = p;
      double piv = std::abs(mat[p * kcap_ + p]);
      for (std::size_t a = p + 1; a < k_; ++a) {
        const double v = std::abs(mat[a * kcap_ + p]);
        if (v > piv) {
          piv = v;
          piv_row = a;
        }
      }
      if (piv < 1e-9) return false;  // singular snapshot
      if (piv_row != p) {
        for (std::size_t c = 0; c < k_; ++c) {
          std::swap(mat[piv_row * kcap_ + c], mat[p * kcap_ + c]);
          std::swap(minv_[piv_row * kcap_ + c], minv_[p * kcap_ + c]);
        }
      }
      const double inv = 1.0 / mat[p * kcap_ + p];
      for (std::size_t c = 0; c < k_; ++c) {
        mat[p * kcap_ + c] *= inv;
        minv_[p * kcap_ + c] *= inv;
      }
      for (std::size_t a = 0; a < k_; ++a) {
        if (a == p) continue;
        const double f = mat[a * kcap_ + p];
        if (f == 0.0) continue;
        for (std::size_t c = 0; c < k_; ++c) {
          mat[a * kcap_ + c] -= f * mat[p * kcap_ + c];
          minv_[a * kcap_ + c] -= f * minv_[p * kcap_ + c];
        }
      }
    }
    have_factorization_ = true;
    pivots_since_refactor_ = 0;
    return true;
  }

  /// xb = B^-1 (b - N x_N), from scratch via the reduced inverse.
  void compute_xb() {
    std::vector<double>& r = work_;
    std::copy(rhs_.begin(), rhs_.end(), r.begin());
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == BasisStatus::kBasic) continue;
      const double xj = nonbasic_value(j);
      if (xj == 0.0) continue;
      for (int e = col_start_[j]; e < col_start_[j + 1]; ++e) {
        r[col_entries_[e].first] -= col_entries_[e].second * xj;
      }
    }
    // u = M^-1 r[R]; structural basics take u, each logical basic takes its
    // row's residual minus the structural contribution.
    for (std::size_t b = 0; b < k_; ++b) {
      double v = 0;
      const double* mrow = &minv_[b * kcap_];
      for (std::size_t a = 0; a < k_; ++a) v += mrow[a] * r[rows_[a]];
      twork_[b] = v;
    }
    for (std::size_t i = 0; i < m_; ++i) xb_[i] = r[i];
    for (std::size_t b = 0; b < k_; ++b) {
      const double u = twork_[b];
      if (u == 0.0) continue;
      const int col = cols_[b];
      for (int e = col_start_[col]; e < col_start_[col + 1]; ++e) {
        const int row = col_entries_[e].first;
        if (row_pos_[row] < 0) xb_[row] -= col_entries_[e].second * u;
      }
    }
    for (std::size_t b = 0; b < k_; ++b) xb_[col_slot_[b]] = twork_[b];
  }

  double total_infeasibility() const {
    double t = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      const int j = basis_[i];
      if (xb_[i] < lb_[j] - kFeasTol) t += lb_[j] - xb_[i];
      else if (xb_[i] > ub_[j] + kFeasTol) t += xb_[i] - ub_[j];
    }
    return t;
  }

  // --- shared linear algebra -------------------------------------------------

  // Kernel invariant: every kernel below sums each output element's terms in
  // ascending index order (the order of the textbook column formula) and
  // skips only terms that are exactly zero, which can change nothing but the
  // sign of a zero. Pivots, node counts and answers therefore do not depend
  // on how the loops are arranged; lp_trajectory_test pins them.

  /// w[b] = A[r, cols_[b]]: row r of the basic structural columns, read
  /// from the row's CSR entries in one pass.
  void kernel_row(std::size_t r, double* w) const {
    std::fill(w, w + k_, 0.0);
    for (int e = row_start_[r]; e < row_start_[r + 1]; ++e) {
      const std::size_t j = static_cast<std::size_t>(row_entries_[e].first);
      if (j < n_ && col_pos_[j] >= 0) w[col_pos_[j]] = row_entries_[e].second;
    }
  }

  /// out^T = w^T M^-1, as axpys over M^-1's contiguous rows in ascending b,
  /// so each out[a] still accumulates w[b] * M^-1[b][a] in ascending b.
  void row_times_minv(const double* w, double* out) const {
    std::fill(out, out + k_, 0.0);
    for (std::size_t b = 0; b < k_; ++b) {
      const double wb = w[b];
      if (wb == 0.0) continue;
      const double* mrow = &minv_[b * kcap_];
      for (std::size_t a = 0; a < k_; ++a) out[a] += wb * mrow[a];
    }
  }

  /// y = cb^T B^-1 for the given slot-indexed basic costs. With the slot
  /// invariant this is y_i = cb_i on logical-basic rows plus one k x k
  /// transpose solve for the active rows. The right-hand side
  /// g_b = cb[slot_b] - sum_i y_i A[i, cols_b] walks only the CSR rows of
  /// nonzero y_i outside R: structurals sit in R's slots, so in phase 2
  /// that is no row at all, and in phase 1 only the infeasible logicals.
  void btran(const std::vector<double>& cb) {
    for (std::size_t b = 0; b < k_; ++b) gwork_[b] = cb[col_slot_[b]];
    for (std::size_t i = 0; i < m_; ++i) {
      if (row_pos_[i] >= 0) {
        y_[i] = 0.0;
        continue;
      }
      const double yi = cb[i];
      y_[i] = yi;
      if (yi == 0.0) continue;
      for (int e = row_start_[i]; e < row_start_[i + 1]; ++e) {
        const std::size_t j = static_cast<std::size_t>(row_entries_[e].first);
        if (j < n_ && col_pos_[j] >= 0) {
          gwork_[col_pos_[j]] -= yi * row_entries_[e].second;
        }
      }
    }
    row_times_minv(gwork_.data(), twork_.data());
    for (std::size_t a = 0; a < k_; ++a) y_[rows_[a]] = twork_[a];
  }

  /// rho = row r of B^-1 (a btran with a slot-unit cost vector); the dual
  /// simplex prices the leaving row with it.
  void btran_unit(std::size_t r) {
    std::fill(rho_.begin(), rho_.end(), 0.0);
    if (row_pos_[r] >= 0) {
      // Slot r hosts a structural column: only one g entry is nonzero.
      const std::size_t br = static_cast<std::size_t>(col_pos_[basis_[r]]);
      for (std::size_t a = 0; a < k_; ++a) rho_[rows_[a]] = minv_[br * kcap_ + a];
    } else {
      rho_[r] = 1.0;
      kernel_row(r, gwork_.data());
      for (std::size_t b = 0; b < k_; ++b) gwork_[b] = -gwork_[b];
      row_times_minv(gwork_.data(), twork_.data());
      for (std::size_t a = 0; a < k_; ++a) rho_[rows_[a]] = twork_[a];
    }
  }

  /// Records one alpha_ write position (first touch per ftran).
  void alpha_touch(int row) {
    if (alpha_mark_[row] != alpha_epoch_) {
      alpha_mark_[row] = alpha_epoch_;
      alpha_nz_.push_back(row);
    }
  }

  /// alpha = B^-1 a_j; also leaves the reduced solve M^-1 a_j[R] in red_
  /// for the subsequent basis update. Only the touched positions are
  /// (re)written -- alpha_nz_ lists them, so the ratio test and the step
  /// update iterate the pivot column's support instead of all m_ rows.
  void ftran(std::size_t j) {
    for (const int r : alpha_nz_) alpha_[r] = 0.0;
    alpha_nz_.clear();
    ++alpha_epoch_;
    std::fill(gwork_.begin(), gwork_.begin() + k_, 0.0);
    for (int e = col_start_[j]; e < col_start_[j + 1]; ++e) {
      const int row = col_entries_[e].first;
      const int a = row_pos_[row];
      if (a >= 0) {
        gwork_[a] = col_entries_[e].second;
      } else {
        alpha_[row] = col_entries_[e].second;
        alpha_touch(row);
      }
    }
    for (std::size_t b = 0; b < k_; ++b) {
      double v = 0;
      const double* mrow = &minv_[b * kcap_];
      for (std::size_t a = 0; a < k_; ++a) v += mrow[a] * gwork_[a];
      red_[b] = v;
    }
    for (std::size_t b = 0; b < k_; ++b) {
      const double u = red_[b];
      if (u == 0.0) continue;
      const int col = cols_[b];
      for (int e = col_start_[col]; e < col_start_[col + 1]; ++e) {
        const int row = col_entries_[e].first;
        if (row_pos_[row] < 0) {
          alpha_[row] -= col_entries_[e].second * u;
          alpha_touch(row);
        }
      }
    }
    // Slot values are assignments (not accumulations): they overwrite
    // whatever the scans above left there, exactly like the old dense fill.
    for (std::size_t b = 0; b < k_; ++b) {
      alpha_[col_slot_[b]] = red_[b];
      alpha_touch(col_slot_[b]);
    }
    // Ascending row order keeps the ratio test's near-tie decisions (within
    // kLpEps) identical to the old dense row sweep. One O(m) sweep over
    // the marks rebuilds it; the callers already pay O(m) per iteration.
    alpha_nz_.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      if (alpha_mark_[i] == alpha_epoch_) alpha_nz_.push_back(static_cast<int>(i));
    }
  }

  /// True when B * alpha reproduces column j within tolerance. The residual
  /// costs one pass over the support's columns -- about as much as the ftran
  /// itself -- plus one sweep over resid_ for the max-abs error, and catches
  /// the product-form kernel decaying before a pivot bakes the drift into
  /// M^-1. Callers refactorize and retry on failure.
  bool ftran_accurate(std::size_t j) {
    double norm = 1.0;
    for (const int inz : alpha_nz_) {
      const double ai = alpha_[inz];
      if (ai == 0.0) continue;
      const std::size_t bj = static_cast<std::size_t>(basis_[inz]);
      for (int e = col_start_[bj]; e < col_start_[bj + 1]; ++e) {
        resid_[col_entries_[e].first] += col_entries_[e].second * ai;
      }
    }
    for (int e = col_start_[j]; e < col_start_[j + 1]; ++e) {
      resid_[col_entries_[e].first] -= col_entries_[e].second;
      norm = std::max(norm, std::abs(col_entries_[e].second));
    }
    // Untouched rows hold 0 and cannot raise the max.
    double err = 0;
    for (double& r : resid_) {
      err = std::max(err, std::abs(r));
      r = 0.0;
    }
    return err <= 1e-6 * norm;
  }

  // --- tiny-pivot bans -------------------------------------------------------
  //
  // A column whose only blocking rows carry |alpha| < kPivotTol cannot enter:
  // the rank-1 update's Schur complement IS that alpha, so pivoting on it
  // leaves a numerically singular kernel that the next refactorization
  // rightly refuses to invert. Such columns are banned for the lifetime of
  // the current basis (epoch-cleared on every executed step) and pricing
  // skips them; since a ban is only issued on a freshly refactorized kernel,
  // it reflects the true geometry, not drift.

  bool banned(std::size_t j) const {
    return ban_count_ != 0 && ban_mark_[j] == ban_epoch_;
  }

  void ban_column(std::size_t j) {
    if (ban_mark_[j] != ban_epoch_) {
      ban_mark_[j] = ban_epoch_;
      ++ban_count_;
    }
  }

  void clear_bans() {
    if (ban_count_ != 0) {
      ++ban_epoch_;
      ban_count_ = 0;
    }
  }

  double dot_col(std::size_t j, const std::vector<double>& v) const {
    double d = 0;
    for (int e = col_start_[j]; e < col_start_[j + 1]; ++e) {
      d += v[col_entries_[e].first] * col_entries_[e].second;
    }
    return d;
  }

  /// out = A^T v for every column at once, walking only the rows on v's
  /// support (for the simplex duals that is the ~k active rows, not all m).
  /// The ascending outer row loop accumulates each column's terms in exactly
  /// dot_col's order, so every out[j] matches dot_col(j, v) -- rows where
  /// v is zero contribute only exact +-0.0 terms, which cannot change any
  /// sign or magnitude test downstream.
  void scatter_dots(const std::vector<double>& v, std::vector<double>& out) const {
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double vi = v[i];
      if (vi == 0.0) continue;
      for (int e = row_start_[i]; e < row_start_[i + 1]; ++e) {
        out[row_entries_[e].first] += row_entries_[e].second * vi;
      }
    }
  }

  // --- reduced-basis pivots --------------------------------------------------
  //
  // Each basis change is one of four O(k^2) updates on M^-1, selected by
  // whether the entering/leaving columns are structural or logical. alpha_
  // and red_ must hold the ftran of the entering column; in every case the
  // ratio test's pivot alpha_[r] doubles (up to sign) as the update's pivot
  // element, so nonsingularity is guaranteed.

  /// Structural enters, logical leaves: M gains row r and column e
  /// (bordered-inverse update; the Schur complement equals alpha_[r]).
  void grow_basis(std::size_t r, std::size_t e) {
    const double inv_s = 1.0 / alpha_[r];
    kernel_row(r, kwork_.data());                  // w = row r over S
    row_times_minv(kwork_.data(), twork_.data());  // q^T = w^T M^-1
    for (std::size_t b = 0; b < k_; ++b) {
      const double pb = red_[b];
      double* mrow = &minv_[b * kcap_];
      if (pb != 0.0) {
        const double f = pb * inv_s;
        for (std::size_t a = 0; a < k_; ++a) mrow[a] += f * twork_[a];
      }
      mrow[k_] = -pb * inv_s;
    }
    double* lrow = &minv_[k_ * kcap_];
    for (std::size_t a = 0; a < k_; ++a) lrow[a] = -twork_[a] * inv_s;
    lrow[k_] = inv_s;
    rows_[k_] = static_cast<int>(r);
    row_pos_[r] = static_cast<int>(k_);
    cols_[k_] = static_cast<int>(e);
    col_pos_[e] = static_cast<int>(k_);
    col_slot_[k_] = static_cast<int>(r);
    ++k_;
  }

  /// Structural enters, structural leaves: product-form column replacement.
  void replace_col(std::size_t r, std::size_t e) {
    const std::size_t c = static_cast<std::size_t>(col_pos_[basis_[r]]);
    const double inv = 1.0 / red_[c];  // red_[c] == alpha_[r]
    double* crow = &minv_[c * kcap_];
    for (std::size_t a = 0; a < k_; ++a) crow[a] *= inv;
    for (std::size_t b = 0; b < k_; ++b) {
      if (b == c) continue;
      const double f = red_[b];
      if (f == 0.0) continue;
      double* brow = &minv_[b * kcap_];
      for (std::size_t a = 0; a < k_; ++a) brow[a] -= f * crow[a];
    }
    col_pos_[cols_[c]] = -1;
    cols_[c] = static_cast<int>(e);
    col_pos_[e] = static_cast<int>(c);
  }

  /// Logical n+i enters, structural leaves: M loses row i and the leaving
  /// column (rank-1 downdate, then compaction by swapping with the last
  /// index). The deleted-entry pivot M^-1[c][p] equals alpha_[r].
  void shrink_basis(std::size_t r, std::size_t e) {
    const std::size_t i = e - n_;
    PARTITA_ASSERT(row_pos_[i] >= 0);
    const std::size_t p = static_cast<std::size_t>(row_pos_[i]);
    const std::size_t c = static_cast<std::size_t>(col_pos_[basis_[r]]);
    const double invp = 1.0 / minv_[c * kcap_ + p];
    const double* crow = &minv_[c * kcap_];
    for (std::size_t b = 0; b < k_; ++b) {
      if (b == c) continue;
      double* brow = &minv_[b * kcap_];
      const double f = brow[p] * invp;
      if (f == 0.0) continue;
      for (std::size_t a = 0; a < k_; ++a) brow[a] -= f * crow[a];
    }
    const std::size_t tail = k_ - 1;
    col_pos_[basis_[r]] = -1;
    row_pos_[i] = -1;
    if (p != tail) {  // compact the a-space (M^-1 columns)
      for (std::size_t b = 0; b < k_; ++b) minv_[b * kcap_ + p] = minv_[b * kcap_ + tail];
      rows_[p] = rows_[tail];
      row_pos_[rows_[p]] = static_cast<int>(p);
    }
    if (c != tail) {  // compact the b-space (M^-1 rows)
      std::memcpy(&minv_[c * kcap_], &minv_[tail * kcap_], k_ * sizeof(double));
      cols_[c] = cols_[tail];
      col_pos_[cols_[c]] = static_cast<int>(c);
      col_slot_[c] = col_slot_[tail];
    }
    k_ = tail;
  }

  /// Logical n+i enters, logical n+r leaves: row i of M becomes row r
  /// (Sherman-Morrison row replacement; the denominator equals -alpha_[r]).
  void replace_row(std::size_t r, std::size_t e) {
    const std::size_t i = e - n_;
    PARTITA_ASSERT(row_pos_[i] >= 0);
    const std::size_t p = static_cast<std::size_t>(row_pos_[i]);
    // kappa = M^-1 e_p
    for (std::size_t b = 0; b < k_; ++b) kwork_[b] = minv_[b * kcap_ + p];
    kernel_row(r, gwork_.data());                  // w = new row
    row_times_minv(gwork_.data(), twork_.data());  // t^T = w^T M^-1
    const double invp = 1.0 / twork_[p];
    twork_[p] -= 1.0;  // d^T M^-1 = t^T - e_p^T
    for (std::size_t b = 0; b < k_; ++b) {
      const double f = kwork_[b] * invp;
      if (f == 0.0) continue;
      double* brow = &minv_[b * kcap_];
      for (std::size_t a = 0; a < k_; ++a) brow[a] -= f * twork_[a];
    }
    rows_[p] = static_cast<int>(r);
    row_pos_[i] = -1;
    row_pos_[r] = static_cast<int>(p);
  }

  /// Dispatches the pivot (entering column e replaces basis_[r]) to the
  /// matching reduced-basis update.
  void pivot_basis(std::size_t r, std::size_t e) {
    const bool enter_struct = e < n_;
    const bool leave_struct = basis_[r] < static_cast<int>(n_);
    if (enter_struct) {
      if (leave_struct) replace_col(r, e);
      else grow_basis(r, e);
    } else {
      if (leave_struct) shrink_basis(r, e);
      else replace_row(r, e);
    }
    ++pivots_since_refactor_;
  }

  /// Refactorizes when due. Returns false on a (numerically) singular basis,
  /// which can only arise from catastrophic roundoff -- callers abort the
  /// solve rather than continue with a corrupt inverse.
  bool periodic_refactor() {
    if (pivots_since_refactor_ < kRefactorInterval) return true;
    if (!refactorize()) {
      have_factorization_ = false;
      return false;
    }
    compute_xb();
    return true;
  }

  // --- candidate-list pricing ------------------------------------------------

  /// Prices only the surviving candidate columns (dropping entries that went
  /// basic or got fixed since the last refresh) and picks the steepest
  /// eligible one. Returns false when the list yields no improving column.
  bool price_candidates(int phase, std::size_t& enter, int& direction,
                        double& best_score) {
    std::size_t out = 0;
    for (const int cj : cand_) {
      const std::size_t j = static_cast<std::size_t>(cj);
      if (status_[j] == BasisStatus::kBasic) continue;
      if (lb_[j] == ub_[j]) continue;
      cand_[out++] = cj;
      if (banned(j)) continue;
      ++cand_scans_;
      const double d = (phase == 2 ? cost_[j] : 0.0) - dot_col(j, y_);
      if (status_[j] == BasisStatus::kAtLower && d < -best_score) {
        enter = j;
        direction = +1;
        best_score = -d;
      } else if (status_[j] == BasisStatus::kAtUpper && d > best_score) {
        enter = j;
        direction = -1;
        best_score = d;
      }
    }
    cand_.resize(out);
    return enter != total_;
  }

  /// Full Dantzig scan: picks the steepest eligible column (identical choice
  /// to classic Dantzig pricing, first-lowest-index on score ties) and
  /// retains the best kCandidateListSize eligible columns for the next
  /// iterations. Leaves enter == total_ exactly when no column improves --
  /// the optimality / phase-1 infeasibility certificate.
  void refresh_candidates(int phase, std::size_t& enter, int& direction,
                          double& best_score) {
    ++cand_refreshes_;
    cand_.clear();
    scored_.clear();
    scatter_dots(y_, ay_);  // one pass over y's support prices every column
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == BasisStatus::kBasic) continue;
      if (lb_[j] == ub_[j]) continue;
      if (banned(j)) continue;
      const double d = (phase == 2 ? cost_[j] : 0.0) - ay_[j];
      double score;
      int dir;
      if (status_[j] == BasisStatus::kAtLower && d < -kLpEps) {
        score = -d;
        dir = +1;
      } else if (status_[j] == BasisStatus::kAtUpper && d > kLpEps) {
        score = d;
        dir = -1;
      } else {
        continue;
      }
      if (score > best_score) {
        enter = j;
        direction = dir;
        best_score = score;
      }
      scored_.push_back({score, static_cast<int>(j)});
    }
    const std::size_t cap = static_cast<std::size_t>(kCandidateListSize);
    if (scored_.size() > cap) {
      // Deterministic top-`cap`: score descending, then lowest index.
      std::nth_element(scored_.begin(), scored_.begin() + cap, scored_.end(),
                       [](const std::pair<double, int>& a, const std::pair<double, int>& b) {
                         return a.first != b.first ? a.first > b.first
                                                  : a.second < b.second;
                       });
      scored_.resize(cap);
    }
    cand_.reserve(scored_.size());
    for (const auto& [score, j] : scored_) cand_.push_back(j);
    // Keep the list in column order: subsequent pricing passes then walk the
    // CSC arrays monotonically and ties keep resolving to the lowest index.
    std::sort(cand_.begin(), cand_.end());
  }

  // --- primal simplex --------------------------------------------------------

  /// Phase 1 minimizes total bound infeasibility of the basic solution with
  /// dynamic costs; phase 2 minimizes the internal objective. Returns
  /// kOptimal / kUnbounded (phase 2 only) / kInfeasible (phase 1 only) /
  /// kIterationLimit.
  LpStatus primal(int phase, int& iterations) {
    std::vector<double> cb(m_, 0.0);
    bool bland = false;
    int stall = 0;
    int spins = 0;
    double last_obj = std::numeric_limits<double>::infinity();
    cand_.clear();  // stale per-phase reduced costs: force a fresh scan
    clear_bans();

    while (true) {
      // `iterations` counts executed pivots/bound flips (the number callers
      // and benches care about); the spin guard bounds pure bookkeeping
      // passes so termination never depends on a pivot happening.
      if (iterations >= kMaxLpIterations) return LpStatus::kIterationLimit;
      if (++spins > 2 * kMaxLpIterations + 64) return LpStatus::kIterationLimit;
      if (!periodic_refactor()) return LpStatus::kIterationLimit;

      // Basic costs. Phase 1: infeasibility direction of each basic column.
      double infeas = 0;
      if (phase == 1) {
        for (std::size_t i = 0; i < m_; ++i) {
          const int j = basis_[i];
          if (xb_[i] < lb_[j] - kFeasTol) {
            cb[i] = -1.0;
            infeas += lb_[j] - xb_[i];
          } else if (xb_[i] > ub_[j] + kFeasTol) {
            cb[i] = 1.0;
            infeas += xb_[i] - ub_[j];
          } else {
            cb[i] = 0.0;
          }
        }
        if (infeas <= kPhase1Tol) return LpStatus::kOptimal;
      } else {
        for (std::size_t i = 0; i < m_; ++i) cb[i] = cost_[basis_[i]];
      }
      btran(cb);

      // --- entering column ---------------------------------------------
      // Bland mode always prices with the full lowest-index scan (the
      // anti-cycling guarantee needs it); otherwise the candidate list
      // restricts pricing to a bounded set, refreshed by one full scan when
      // it runs dry. Optimality/infeasibility is only ever declared from a
      // full scan, so the restriction cannot terminate early.
      std::size_t enter = total_;
      int direction = 0;  // +1 increase from lower, -1 decrease from upper
      double best_score = kLpEps;
      if (opt_.pricing == PricingMode::kCandidateList && !bland) {
        if (!price_candidates(phase, enter, direction, best_score)) {
          refresh_candidates(phase, enter, direction, best_score);
        }
      } else {
        for (std::size_t j = 0; j < total_; ++j) {
          if (status_[j] == BasisStatus::kBasic) continue;
          if (lb_[j] == ub_[j]) continue;  // fixed column can never move
          if (banned(j)) continue;
          const double d = (phase == 2 ? cost_[j] : 0.0) - dot_col(j, y_);
          if (status_[j] == BasisStatus::kAtLower && d < -best_score) {
            enter = j;
            direction = +1;
            if (bland) break;
            best_score = -d;
          } else if (status_[j] == BasisStatus::kAtUpper && d > best_score) {
            enter = j;
            direction = -1;
            if (bland) break;
            best_score = d;
          }
        }
      }
      if (enter == total_) {
        // Banned columns were excluded from this scan, so it certifies
        // nothing; report the numerical dead end rather than a false
        // optimum (branch & bound treats it as "no usable bound").
        if (ban_count_ != 0) return LpStatus::kIterationLimit;
        return phase == 1 ? LpStatus::kInfeasible : LpStatus::kOptimal;
      }

      ftran(enter);
      if (pivots_since_refactor_ > 0 && !ftran_accurate(enter)) {
        // Kernel drift: rebuild from scratch and re-enter the loop with a
        // fresh factorization (pricing reruns off the recomputed state).
        if (!refactorize()) return LpStatus::kIterationLimit;
        compute_xb();
        continue;
      }

      // --- ratio test ----------------------------------------------------
      // Entering moves by direction*theta; basic i changes at rate
      // g_i = -direction * alpha_i per unit theta. Only the pivot column's
      // support (alpha_nz_) can block the step.
      double theta = ub_[enter] - lb_[enter];  // bound-flip distance
      std::size_t leave_row = m_;              // m_ => bound flip
      bool leave_at_upper = false;

      // Distance the entering variable can move before basic i hits a bound
      // (kInfinity when row i never blocks the step).
      const auto row_limit = [&](std::size_t i, bool& at_upper) -> double {
        const double g = -direction * alpha_[i];
        at_upper = false;
        if (std::abs(g) <= kLpEps) return kInfinity;
        const int bj = basis_[i];
        if (phase == 1 && xb_[i] < lb_[bj] - kFeasTol) {
          // Violated below: blocks only when climbing back to its lower
          // bound (it leaves feasible there).
          if (g > 0) return (lb_[bj] - xb_[i]) / g;
        } else if (phase == 1 && xb_[i] > ub_[bj] + kFeasTol) {
          if (g < 0) {
            at_upper = true;
            return (xb_[i] - ub_[bj]) / -g;
          }
        } else if (g < 0) {
          if (std::isfinite(lb_[bj])) return (xb_[i] - lb_[bj]) / -g;
        } else {
          if (std::isfinite(ub_[bj])) {
            at_upper = true;
            return (ub_[bj] - xb_[i]) / g;
          }
        }
        return kInfinity;
      };

      for (const int inz : alpha_nz_) {
        const std::size_t i = static_cast<std::size_t>(inz);
        bool at_upper = false;
        const double limit = row_limit(i, at_upper);
        if (limit >= kInfinity) continue;
        if (limit < theta - kLpEps ||
            (bland && limit < theta + kLpEps && leave_row != m_ &&
             basis_[i] < basis_[leave_row])) {
          theta = std::max(0.0, limit);
          leave_row = i;
          leave_at_upper = at_upper;
        }
      }

      // Stability pass: pivoting on a near-zero alpha ruins the product-form
      // kernel update (1/alpha amplifies roundoff through M^-1 and the basic
      // values), so among leaving rows whose limits tie within tolerance take
      // the largest |alpha| instead of the first minimum. Bland mode keeps
      // its lowest-index choice (the anti-cycling proof needs it); the
      // refactorization net below contains any damage there.
      if (!bland && leave_row != m_) {
        double best_mag = std::abs(alpha_[leave_row]);
        for (const int inz : alpha_nz_) {
          const std::size_t i = static_cast<std::size_t>(inz);
          if (i == leave_row) continue;
          const double mag = std::abs(alpha_[i]);
          if (mag <= best_mag) continue;
          bool at_upper = false;
          const double limit = row_limit(i, at_upper);
          // Eligible when snapping row i to its bound at step theta leaves
          // at most a sliver of residual travel ((limit - theta) * |alpha|
          // bounds the displacement this substitution introduces).
          if (limit - theta <= kLpEps ||
              (limit - theta) * mag <= kFeasTol * 1e-2) {
            leave_row = i;
            leave_at_upper = at_upper;
            best_mag = mag;
          }
        }
      }

      if (!std::isfinite(theta)) {
        // Phase 1 cannot be unbounded (the infeasibility sum is >= 0);
        // hitting this numerically means the instance is hopeless.
        return phase == 1 ? LpStatus::kIterationLimit : LpStatus::kUnbounded;
      }

      if (leave_row != m_ && std::abs(alpha_[leave_row]) < kPivotTol) {
        // The best available pivot is numerically nil. On a stale kernel the
        // tiny alpha may itself be drift, so rebuild and re-derive; on a
        // fresh one the column genuinely cannot enter this basis -- ban it
        // and re-price (the spin guard bounds these detours).
        if (pivots_since_refactor_ > 0) {
          if (!refactorize()) return LpStatus::kIterationLimit;
          compute_xb();
          continue;
        }
        ban_column(enter);
        continue;
      }

      apply_step(enter, direction, theta, leave_row, leave_at_upper);
      ++iterations;

      // --- stall detection / Bland fallback ------------------------------
      double obj;
      if (phase == 1) {
        obj = total_infeasibility();
      } else {
        obj = 0;
        for (std::size_t i = 0; i < m_; ++i) obj += cost_[basis_[i]] * xb_[i];
        for (std::size_t j = 0; j < total_; ++j) {
          if (status_[j] != BasisStatus::kBasic && cost_[j] != 0.0) {
            obj += cost_[j] * nonbasic_value(j);
          }
        }
      }
      if (obj < last_obj - 1e-12) {
        stall = 0;
        bland = false;
      } else if (++stall > kStallLimit) {
        bland = true;  // anti-cycling
      }
      last_obj = obj;
    }
  }

  /// Executes a primal step: bound flip or basis change. alpha_ and red_
  /// must hold the ftran of the entering column.
  void apply_step(std::size_t enter, int direction, double theta, std::size_t leave_row,
                  bool leave_at_upper) {
    clear_bans();  // bans are scoped to the pre-step basis and point
    if (leave_row == m_) {
      // Bound flip: the entering variable traverses its whole interval and
      // the basic values absorb the move (only the pivot column's support
      // moves at all).
      for (const int i : alpha_nz_) xb_[i] -= theta * direction * alpha_[i];
      status_[enter] = status_[enter] == BasisStatus::kAtLower ? BasisStatus::kAtUpper
                                                               : BasisStatus::kAtLower;
      return;
    }
    const double enter_start = nonbasic_value(enter);
    for (const int inz : alpha_nz_) {
      const std::size_t i = static_cast<std::size_t>(inz);
      if (i != leave_row) xb_[i] -= theta * direction * alpha_[i];
    }
    const int leave = basis_[leave_row];
    status_[leave] = leave_at_upper ? BasisStatus::kAtUpper : BasisStatus::kAtLower;
    pivot_basis(leave_row, enter);
    basis_[leave_row] = static_cast<int>(enter);
    status_[enter] = BasisStatus::kBasic;
    xb_[leave_row] = enter_start + theta * direction;
    if (enter >= n_) {
      // Restore the slot invariant: a basic logical lives in its own row's
      // slot, so the structural column parked there moves to the vacated
      // slot instead.
      const std::size_t i = enter - n_;
      if (i != leave_row) {
        std::swap(basis_[i], basis_[leave_row]);
        std::swap(xb_[i], xb_[leave_row]);
        col_slot_[col_pos_[basis_[leave_row]]] = static_cast<int>(leave_row);
      }
    }
  }

  // --- dual simplex ----------------------------------------------------------

  /// Restores primal feasibility from a dual-feasible basis (the imported
  /// parent optimum). Returns kOptimal when the basic solution is within
  /// bounds, kInfeasible when a violated row admits no entering column.
  LpStatus dual_simplex(int& iterations) {
    std::vector<double> cb(m_);
    int degenerate = 0;
    int spins = 0;
    clear_bans();

    while (true) {
      if (iterations >= kMaxLpIterations) return LpStatus::kIterationLimit;
      if (++spins > 2 * kMaxLpIterations + 64) return LpStatus::kIterationLimit;
      if (!periodic_refactor()) return LpStatus::kIterationLimit;

      // --- leaving row: largest bound violation --------------------------
      std::size_t r = m_;
      double worst = kFeasTol;
      double target = 0;
      bool to_upper = false;
      for (std::size_t i = 0; i < m_; ++i) {
        const int j = basis_[i];
        if (xb_[i] < lb_[j] - worst) {
          worst = lb_[j] - xb_[i];
          r = i;
          target = lb_[j];
          to_upper = false;
        } else if (xb_[i] > ub_[j] + worst) {
          worst = xb_[i] - ub_[j];
          r = i;
          target = ub_[j];
          to_upper = true;
        }
      }
      if (r == m_) return LpStatus::kOptimal;  // primal feasible

      // Reduced costs (phase-2 objective) and row r of B^-1.
      for (std::size_t i = 0; i < m_; ++i) cb[i] = cost_[basis_[i]];
      btran(cb);
      btran_unit(r);

      // Candidate-list mode prices the whole entering scan with two
      // row-major scatters over the duals' support (same numbers as the
      // per-column dots, a fraction of the work); kDantzig keeps the
      // classic column-by-column scan.
      const bool scatter = opt_.pricing == PricingMode::kCandidateList;
      if (scatter) {
        scatter_dots(rho_, arho_);
        scatter_dots(y_, ay_);
      }

      const double delta = target - xb_[r];  // signed move of the leaving basic
      // d(xb_r)/d(x_j) = -alpha_rj; eligibility depends on which way x_j may
      // move from its bound.
      std::size_t enter = total_;
      double best_ratio = kInfinity;
      double best_alpha = 0;
      const bool use_bland = degenerate > kStallLimit;
      for (std::size_t j = 0; j < total_; ++j) {
        if (status_[j] == BasisStatus::kBasic) continue;
        if (lb_[j] == ub_[j]) continue;
        if (banned(j)) continue;
        double a = scatter ? arho_[j] : dot_col(j, rho_);
        if (std::abs(a) <= 1e-9) continue;
        const bool from_lower = status_[j] == BasisStatus::kAtLower;
        // Moving x_j by dx changes xb_r by -a*dx; dx >= 0 from lower,
        // dx <= 0 from upper. Require the change to push xb_r toward target.
        const bool eligible = delta > 0 ? (from_lower ? a < 0 : a > 0)
                                        : (from_lower ? a > 0 : a < 0);
        if (!eligible) continue;
        double d = cost_[j] - (scatter ? ay_[j] : dot_col(j, y_));
        // Dual feasibility keeps d >= 0 at lower and d <= 0 at upper; clamp
        // tolerance drift so ratios stay nonnegative.
        d = from_lower ? std::max(d, 0.0) : std::min(d, 0.0);
        const double ratio = std::abs(d) / std::abs(a);
        if (ratio < best_ratio - kLpEps ||
            (ratio < best_ratio + kLpEps &&
             (use_bland ? (enter == total_ || j < enter)
                        : std::abs(a) > std::abs(best_alpha)))) {
          best_ratio = ratio;
          best_alpha = a;
          enter = j;
        }
      }
      if (enter == total_) {
        // With columns banned this scan proved nothing (see primal()).
        return ban_count_ != 0 ? LpStatus::kIterationLimit : LpStatus::kInfeasible;
      }

      ftran(enter);
      if (pivots_since_refactor_ > 0 && !ftran_accurate(enter)) {
        if (!refactorize()) return LpStatus::kIterationLimit;
        compute_xb();
        continue;  // re-derive the worst row from the repaired state
      }
      // ftran gives a fresher alpha_r than the rho dot product; reject a
      // pivot that collapsed numerically (same containment as the primal:
      // refactorize a stale kernel, ban the column on a fresh one).
      const double arj = alpha_[r];
      if (std::abs(arj) < kPivotTol) {
        if (pivots_since_refactor_ > 0) {
          if (!refactorize()) return LpStatus::kIterationLimit;
          compute_xb();
          continue;
        }
        ban_column(enter);
        continue;
      }
      const double dx = delta / -arj;
      const int direction = dx >= 0 ? +1 : -1;
      if (std::abs(dx) <= kLpEps) ++degenerate;
      else degenerate = 0;
      apply_step(enter, direction, std::abs(dx), r, to_upper);
      ++iterations;
    }
  }

  const Model& model_;
  std::size_t n_ = 0, m_ = 0, total_ = 0;
  double sign_ = 1.0;

  // Immutable sparse columns (CSC) built at construction, plus the CSR
  // mirror that drives the support-sparse pricing scatters.
  std::vector<int> col_start_;
  std::vector<std::pair<int, double>> col_entries_;
  std::vector<int> row_start_;
  std::vector<std::pair<int, double>> row_entries_;
  std::vector<double> row_scale_;  // power-of-2 equilibration, rows
  std::vector<double> col_scale_;  // power-of-2 equilibration, columns
  std::vector<double> rhs_;
  std::vector<double> cost_;  // internal (minimization) phase-2 costs
  std::vector<double> logical_lb_, logical_ub_;

  // Per-solve state.
  LpOptions opt_;
  std::vector<double> lb_, ub_;
  std::vector<BasisStatus> status_;
  std::vector<int> basis_;  // column basic at each basis position (slot = row)
  std::vector<double> xb_;  // basic values, by basis position
  std::vector<double> y_, alpha_, rho_, work_;
  std::vector<double> arho_, ay_;  // scatter_dots outputs (pricing scratch)
  std::vector<double> resid_;  // ftran_accurate scratch, all-zero at rest
  std::vector<int> ban_mark_;  // tiny-pivot bans, valid while == ban_epoch_
  int ban_epoch_ = 1;
  int ban_count_ = 0;
  // Support of alpha_ from the last ftran (epoch-marked to dedup touches).
  std::vector<int> alpha_nz_;
  std::vector<int> alpha_mark_;
  int alpha_epoch_ = 0;
  // Candidate-list pricing state.
  std::vector<int> cand_;
  std::vector<std::pair<double, int>> scored_;
  long long cand_scans_ = 0;
  int cand_refreshes_ = 0;

  // Reduced basis: M = A[rows_, cols_] with minv_ = M^-1 (k_ x k_, stored
  // row-major with fixed stride kcap_; minv_[b][a] pairs M^-1's row index b
  // -- the active-column slot -- with column index a -- the active-row slot).
  std::size_t kcap_ = 0, k_ = 0;
  std::vector<int> rows_;      // active rows (logical nonbasic), size k_
  std::vector<int> cols_;      // basic structural columns, size k_
  std::vector<int> col_slot_;  // basis slot hosting cols_[b]
  std::vector<int> row_pos_;   // row -> index in rows_, or -1
  std::vector<int> col_pos_;   // structural column -> index in cols_, or -1
  std::vector<double> minv_;
  std::vector<double> red_;  // M^-1 a_e[R] from the last ftran
  std::vector<double> gwork_, twork_, kwork_;
  std::vector<double> scratch_mat_;
  bool have_factorization_ = false;
  int pivots_since_refactor_ = 0;
};

SimplexSolver::SimplexSolver(const Model& model) : impl_(new Impl(model)) {}

SimplexSolver::~SimplexSolver() { delete impl_; }

LpResult SimplexSolver::solve(const std::vector<double>& lower,
                              const std::vector<double>& upper, const LpOptions& opt) {
  PARTITA_ASSERT(lower.size() == upper.size());
  LpResult res = impl_->run(lower, upper, opt, nullptr, &last_basis_);
  if (res.status != LpStatus::kOptimal) last_basis_.status.clear();
  return res;
}

LpResult SimplexSolver::solve_warm(const std::vector<double>& lower,
                                   const std::vector<double>& upper, const Basis& basis,
                                   const LpOptions& opt) {
  PARTITA_ASSERT(lower.size() == upper.size());
  LpResult res = impl_->run(lower, upper, opt, basis.empty() ? nullptr : &basis,
                            &last_basis_);
  if (res.status != LpStatus::kOptimal) last_basis_.status.clear();
  return res;
}

LpResult solve_lp(const Model& model, const LpOptions& opt) {
  std::vector<double> lower(model.var_count()), upper(model.var_count());
  for (std::size_t j = 0; j < model.var_count(); ++j) {
    lower[j] = model.var(static_cast<VarIndex>(j)).lower;
    upper[j] = model.var(static_cast<VarIndex>(j)).upper;
  }
  return solve_lp(model, lower, upper, opt);
}

LpResult solve_lp(const Model& model, const std::vector<double>& lower,
                  const std::vector<double>& upper, const LpOptions& opt) {
  PARTITA_ASSERT(lower.size() == model.var_count() && upper.size() == model.var_count());
  SimplexSolver solver(model);
  return solver.solve(lower, upper, opt);
}

}  // namespace partita::ilp
