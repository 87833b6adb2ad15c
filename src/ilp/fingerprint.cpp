#include "ilp/fingerprint.hpp"

#include <cstring>

namespace partita::ilp {

namespace {

/// Seed constants: arbitrary odd 64-bit values, distinct per field class so
/// "rhs 2 on a <= row" never collides with "coefficient 2 on variable 0".
constexpr std::uint64_t kSeedVar = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kSeedRow = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kSeedTerm = 0x94d049bb133111ebULL;
constexpr std::uint64_t kSeedOpt = 0xd6e8feb86659fd93ULL;

std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  return fp_mix(a ^ fp_mix(b));
}

}  // namespace

std::uint64_t fp_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fp_double(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return fp_mix(bits);
}

std::string Fingerprint::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = digits[(hi >> (4 * i)) & 0xf];
    out[31 - i] = digits[(lo >> (4 * i)) & 0xf];
  }
  return out;
}

Fingerprint fingerprint_model(const Model& m) {
  // Column chain: order-sensitive fold over the variables. The chain value
  // after column j depends on every column <= j, so any reordering,
  // insertion or bound change lands in the digest.
  std::uint64_t cols = fp_mix(kSeedVar ^ static_cast<std::uint64_t>(m.var_count()));
  cols = mix2(cols, static_cast<std::uint64_t>(m.sense()));
  for (std::size_t j = 0; j < m.var_count(); ++j) {
    const Variable& v = m.var(static_cast<VarIndex>(j));
    std::uint64_t h = fp_mix(static_cast<std::uint64_t>(v.kind));
    h = mix2(h, fp_double(v.lower));
    h = mix2(h, fp_double(v.upper));
    h = mix2(h, fp_double(v.objective));
    cols = mix2(cols, h);
  }

  // Row set: each row hashed standalone (terms folded commutatively -- a
  // term is identified by its column index + coefficient, so within-row
  // order is irrelevant), then all row hashes combined with two independent
  // commutative reductions (wrapping sum and sum-of-remixed). Two accumulators
  // make "row A twice, row B never" distinguishable from "A once, B once"
  // far beyond what a single sum would.
  std::uint64_t rows_a = kSeedRow ^ static_cast<std::uint64_t>(m.row_count());
  std::uint64_t rows_b = fp_mix(rows_a);
  for (const Row& r : m.rows()) {
    std::uint64_t terms = 0;
    for (const Term& t : r.terms) {
      terms += mix2(kSeedTerm ^ t.var, fp_double(t.coeff));  // commutative
    }
    std::uint64_t h = fp_mix(terms);
    h = mix2(h, static_cast<std::uint64_t>(r.sense));
    h = mix2(h, fp_double(r.rhs));
    rows_a += h;           // commutative across rows
    rows_b += fp_mix(h);   // second, independent reduction
  }

  Fingerprint fp;
  fp.hi = mix2(cols, rows_a);
  fp.lo = mix2(fp_mix(cols), rows_b);
  return fp;
}

std::uint64_t digest_options(const IlpOptions& opt) {
  std::uint64_t d = fp_mix(kSeedOpt);
  d = mix2(d, static_cast<std::uint64_t>(opt.max_nodes));
  // The k* constants are fixed but stay mixed in, in this order: digests
  // persisted in cache snapshots must keep their values.
  d = mix2(d, fp_double(kIntTol));
  d = mix2(d, fp_double(kGapTol));
  d = mix2(d, opt.presolve ? 1 : 0);
  d = mix2(d, opt.warm_start ? 1 : 0);
  d = mix2(d, static_cast<std::uint64_t>(kMaxPlungeDepth));
  d = mix2(d, opt.canonical_ties ? 1 : 0);
  d = mix2(d, opt.cuts ? 1 : 0);
  d = mix2(d, static_cast<std::uint64_t>(kMaxCutRounds));
  d = mix2(d, static_cast<std::uint64_t>(kMaxLpIterations));
  d = mix2(d, fp_double(kLpEps));
  // Budget *limits* change what can truncate; the cancel token and clock are
  // runtime wiring and stay out.
  d = mix2(d, fp_double(opt.budget.time_limit_seconds));
  d = mix2(d, static_cast<std::uint64_t>(opt.budget.memory_limit_bytes));
  return d;
}

}  // namespace partita::ilp
