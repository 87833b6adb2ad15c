// Mixed 0/1 linear program model.
//
// The selector builds its formulation (Eqs. 1-3 of the paper plus the
// conflict rows of Problem 2) in this representation; solver.hpp turns it
// into an optimal assignment via LP-relaxation branch & bound. The model is
// general enough for standalone use: binary and bounded continuous
// variables, <= / >= / = rows, minimize or maximize.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace partita::ilp {

using VarIndex = std::uint32_t;
using RowIndex = std::uint32_t;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarKind : std::uint8_t { kBinary, kContinuous };
enum class RowSense : std::uint8_t { kLessEqual, kGreaterEqual, kEqual };
enum class Sense : std::uint8_t { kMinimize, kMaximize };

struct Variable {
  std::string name;
  VarKind kind = VarKind::kBinary;
  double lower = 0.0;
  double upper = 1.0;
  double objective = 0.0;
};

/// One linear term: coefficient * variable.
struct Term {
  VarIndex var = 0;
  double coeff = 0.0;
};

struct Row {
  std::string name;
  std::vector<Term> terms;
  RowSense sense = RowSense::kLessEqual;
  double rhs = 0.0;
};

class Model {
 public:
  void set_sense(Sense s) { sense_ = s; }
  Sense sense() const { return sense_; }

  VarIndex add_binary(std::string name, double objective = 0.0);
  VarIndex add_continuous(std::string name, double lower, double upper,
                          double objective = 0.0);

  /// Adds `terms (sense) rhs`. Terms with duplicate variables are summed.
  RowIndex add_row(std::string name, std::vector<Term> terms, RowSense sense, double rhs);

  /// Re-targets one row's right-hand side in place. The batch-solve path
  /// uses this to move the required-gain rows between otherwise identical
  /// solves without rebuilding the model.
  void set_rhs(RowIndex r, double rhs) { rows_[r].rhs = rhs; }

  /// Appends `t` to row r in place. t.var must be a column after every
  /// column already in the row, so the row stays sorted and merged.
  void append_term(RowIndex r, Term t);

  std::size_t var_count() const { return vars_.size(); }
  std::size_t row_count() const { return rows_.size(); }
  const Variable& var(VarIndex v) const { return vars_[v]; }
  Variable& var(VarIndex v) { return vars_[v]; }
  const Row& row(RowIndex r) const { return rows_[r]; }
  const std::vector<Variable>& vars() const { return vars_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Objective value of an assignment (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// Checks an assignment against every row and the variable bounds,
  /// within tolerance. Binary variables must be within tol of 0 or 1.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// LP-file-like dump for debugging.
  std::string dump() const;

 private:
  Sense sense_ = Sense::kMinimize;
  std::vector<Variable> vars_;
  std::vector<Row> rows_;
};

}  // namespace partita::ilp
