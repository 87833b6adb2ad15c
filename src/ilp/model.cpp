#include "ilp/model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/assert.hpp"

namespace partita::ilp {

VarIndex Model::add_binary(std::string name, double objective) {
  Variable v;
  v.name = std::move(name);
  v.kind = VarKind::kBinary;
  v.lower = 0.0;
  v.upper = 1.0;
  v.objective = objective;
  vars_.push_back(std::move(v));
  return static_cast<VarIndex>(vars_.size() - 1);
}

VarIndex Model::add_continuous(std::string name, double lower, double upper,
                               double objective) {
  // invariant: models are built programmatically by the Selector; bounds are
  // derived, never user-typed.
  PARTITA_ASSERT(lower <= upper);
  Variable v;
  v.name = std::move(name);
  v.kind = VarKind::kContinuous;
  v.lower = lower;
  v.upper = upper;
  v.objective = objective;
  vars_.push_back(std::move(v));
  return static_cast<VarIndex>(vars_.size() - 1);
}

RowIndex Model::add_row(std::string name, std::vector<Term> terms, RowSense sense,
                        double rhs) {
  // Merge duplicate variables so downstream code sees a clean sparse row.
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  std::vector<Term> merged;
  for (const Term& t : terms) {
    PARTITA_ASSERT(t.var < vars_.size());
    if (!merged.empty() && merged.back().var == t.var) {
      merged.back().coeff += t.coeff;
    } else {
      merged.push_back(t);
    }
  }
  Row r;
  r.name = std::move(name);
  r.terms = std::move(merged);
  r.sense = sense;
  r.rhs = rhs;
  rows_.push_back(std::move(r));
  return static_cast<RowIndex>(rows_.size() - 1);
}

void Model::append_term(RowIndex r, Term t) {
  // invariant: callers append a column they have just added.
  PARTITA_ASSERT(t.var < vars_.size() &&
                 (rows_[r].terms.empty() || rows_[r].terms.back().var < t.var));
  rows_[r].terms.push_back(t);
}

double Model::objective_value(const std::vector<double>& x) const {
  PARTITA_ASSERT(x.size() == vars_.size());
  double v = 0;
  for (std::size_t i = 0; i < vars_.size(); ++i) v += vars_[i].objective * x[i];
  return v;
}

bool Model::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != vars_.size()) return false;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    const Variable& v = vars_[i];
    if (x[i] < v.lower - tol || x[i] > v.upper + tol) return false;
    if (v.kind == VarKind::kBinary &&
        std::min(std::abs(x[i]), std::abs(x[i] - 1.0)) > tol) {
      return false;
    }
  }
  for (const Row& r : rows_) {
    double lhs = 0;
    for (const Term& t : r.terms) lhs += t.coeff * x[t.var];
    switch (r.sense) {
      case RowSense::kLessEqual:
        if (lhs > r.rhs + tol) return false;
        break;
      case RowSense::kGreaterEqual:
        if (lhs < r.rhs - tol) return false;
        break;
      case RowSense::kEqual:
        if (std::abs(lhs - r.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

std::string Model::dump() const {
  std::ostringstream os;
  os << (sense_ == Sense::kMinimize ? "minimize" : "maximize") << '\n';
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].objective != 0) {
      os << "  " << (vars_[i].objective >= 0 ? "+" : "") << vars_[i].objective << ' '
         << vars_[i].name << '\n';
    }
  }
  os << "subject to\n";
  for (const Row& r : rows_) {
    os << "  " << r.name << ": ";
    for (const Term& t : r.terms) {
      os << (t.coeff >= 0 ? "+" : "") << t.coeff << ' ' << vars_[t.var].name << ' ';
    }
    switch (r.sense) {
      case RowSense::kLessEqual:
        os << "<= ";
        break;
      case RowSense::kGreaterEqual:
        os << ">= ";
        break;
      case RowSense::kEqual:
        os << "= ";
        break;
    }
    os << r.rhs << '\n';
  }
  os << "bounds\n";
  for (const Variable& v : vars_) {
    os << "  " << v.lower << " <= " << v.name << " <= " << v.upper
       << (v.kind == VarKind::kBinary ? " (binary)\n" : "\n");
  }
  return os.str();
}

}  // namespace partita::ilp
