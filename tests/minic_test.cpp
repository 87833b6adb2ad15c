// Tests for the MiniC frontend: lexer, parser, semantic checks and the
// cycle/dependence derivation of the code generator.
#include <gtest/gtest.h>

#include "cdfg/parallel.hpp"
#include "ir/verify.hpp"
#include "minic/mc_codegen.hpp"
#include "minic/mc_lexer.hpp"
#include "minic/mc_parser.hpp"
#include "profile/profile.hpp"

namespace partita::minic {
namespace {

using support::DiagnosticEngine;

std::optional<ir::Module> compile(std::string_view src) {
  DiagnosticEngine diags;
  auto m = mc_compile_source(src, "t", diags);
  EXPECT_TRUE(m.has_value()) << diags.render_all();
  if (m) {
    DiagnosticEngine vd;
    EXPECT_TRUE(ir::verify_module(*m, vd)) << vd.render_all();
  }
  return m;
}

// --- lexer --------------------------------------------------------------------

TEST(McLexer, OperatorsAndKeywords) {
  DiagnosticEngine diags;
  const auto toks = mc_lex("int a; a = b << 2 != -c /* x */ // y", diags);
  ASSERT_FALSE(diags.has_errors());
  EXPECT_EQ(toks[0].kind, McTok::kKwInt);
  EXPECT_EQ(toks[3].kind, McTok::kIdent);  // a
  EXPECT_EQ(toks[4].kind, McTok::kAssign);
  EXPECT_EQ(toks[6].kind, McTok::kShl);
  EXPECT_EQ(toks[8].kind, McTok::kNe);
  EXPECT_EQ(toks[9].kind, McTok::kMinus);
  EXPECT_EQ(toks.back().kind, McTok::kEof);
}

TEST(McLexer, DunderKeywords) {
  DiagnosticEngine diags;
  const auto toks = mc_lex("__scall __cycles __prob __other", diags);
  EXPECT_EQ(toks[0].kind, McTok::kKwScall);
  EXPECT_EQ(toks[1].kind, McTok::kKwCycles);
  EXPECT_EQ(toks[2].kind, McTok::kKwProb);
  EXPECT_EQ(toks[3].kind, McTok::kIdent);
}

TEST(McLexer, RejectsBadChar) {
  DiagnosticEngine diags;
  mc_lex("a $ b", diags);
  EXPECT_TRUE(diags.has_errors());
}

// --- parser --------------------------------------------------------------------

TEST(McParser, FullTranslationUnit) {
  DiagnosticEngine diags;
  auto prog = mc_parse(R"(
int frame[160];
int gain;

__scall __cycles(14000) void fir(in int x[], out int y[]);

void main() {
  int acc;
  acc = 0;
  for (i = 0; i < 160; i = i + 1) {
    acc = acc + frame[i] * 3;
  }
  if (__prob(0.25)) {
    gain = acc >> 2;
  } else {
    gain = acc;
  }
  fir(frame, frame);
}
)",
                       diags);
  ASSERT_TRUE(prog.has_value()) << diags.render_all();
  EXPECT_EQ(prog->globals.size(), 2u);
  EXPECT_EQ(prog->globals[0].array_size, 160);
  ASSERT_EQ(prog->functions.size(), 2u);
  const Function& fir = prog->functions[0];
  EXPECT_TRUE(fir.is_scall);
  EXPECT_EQ(fir.declared_cycles, 14000);
  EXPECT_FALSE(fir.has_body);
  ASSERT_EQ(fir.params.size(), 2u);
  EXPECT_EQ(fir.params[0].dir, ParamDir::kIn);
  EXPECT_EQ(fir.params[1].dir, ParamDir::kOut);
  EXPECT_TRUE(fir.params[0].is_array);
}

TEST(McParser, PrototypeWithoutCyclesRejected) {
  DiagnosticEngine diags;
  EXPECT_FALSE(mc_parse("void f();", diags).has_value());
}

TEST(McParser, NonCanonicalForRejected) {
  DiagnosticEngine diags;
  EXPECT_FALSE(
      mc_parse("void main() { for (i = 0; j < 10; i = i + 1) { i = 0; } }", diags)
          .has_value());
}

TEST(McParser, ProbOutOfRangeRejected) {
  DiagnosticEngine diags;
  EXPECT_FALSE(
      mc_parse("void main() { if (__prob(1.5)) { } }", diags).has_value());
}

// --- expression cost model --------------------------------------------------------

TEST(McCost, CountsOpsAndMemoryAccesses) {
  DiagnosticEngine diags;
  auto prog = mc_parse(R"(
int a[8];
int x;
void main() {
  x = a[x] * 3 + 2;
}
)",
                       diags);
  ASSERT_TRUE(prog);
  const Stmt& assign = *prog->functions[0].body[0];
  // a[x]: 1 load; *: 1; +: 1 -> value cost 3; scalar store 1 -> total 4.
  EXPECT_EQ(expr_cost(*assign.value), 3);
}

// --- codegen -------------------------------------------------------------------

TEST(McCodegen, StraightLineRunsBecomeOneSeg) {
  auto m = compile(R"(
int a; int b; int c;
void main() {
  a = 1;
  b = a + 2;
  c = a * b;
}
)");
  ASSERT_TRUE(m);
  const ir::Function& main_fn = m->function(m->entry());
  ASSERT_EQ(main_fn.body().size(), 1u);
  const ir::Stmt& seg = main_fn.stmt(main_fn.body()[0]);
  EXPECT_EQ(seg.kind, ir::StmtKind::kSeg);
  // a=1 (1), b=a+2 (1+1), c=a*b (1+1) -> 5 cycles.
  EXPECT_EQ(seg.cycles, 5);
  // writes: a, b, c; reads: a, b.
  EXPECT_EQ(seg.writes.size(), 3u);
  EXPECT_EQ(seg.reads.size(), 2u);
}

TEST(McCodegen, ForLoopTripCount) {
  auto m = compile(R"(
int s;
void main() {
  for (i = 0; i < 37; i = i + 4) {
    s = s + 1;
  }
}
)");
  ASSERT_TRUE(m);
  const ir::Function& main_fn = m->function(m->entry());
  ASSERT_EQ(main_fn.body().size(), 1u);
  const ir::Stmt& loop = main_fn.stmt(main_fn.body()[0]);
  EXPECT_EQ(loop.kind, ir::StmtKind::kLoop);
  EXPECT_EQ(loop.trip_count, 10);  // ceil(37/4)
}

TEST(McCodegen, CallDirectionsBecomeReadsWrites) {
  auto m = compile(R"(
int x[16]; int y[16]; int z[16];
__scall __cycles(900) void fir(in int a[], out int b[], inout int c[]);
void main() {
  fir(x, y, z);
}
)");
  ASSERT_TRUE(m);
  const ir::Function& main_fn = m->function(m->entry());
  const ir::Stmt& call = main_fn.stmt(main_fn.body()[0]);
  ASSERT_EQ(call.kind, ir::StmtKind::kCall);
  ASSERT_EQ(call.reads.size(), 2u);   // x, z
  ASSERT_EQ(call.writes.size(), 2u);  // y, z
  EXPECT_EQ(m->symbol_name(call.reads[0]), "x");
  EXPECT_EQ(m->symbol_name(call.writes[0]), "y");
}

TEST(McCodegen, ProbAnnotationSetsBranchProbability) {
  auto m = compile(R"(
int a;
void main() {
  if (__prob(0.125)) { a = 1; } else { a = 2; }
}
)");
  ASSERT_TRUE(m);
  const ir::Function& main_fn = m->function(m->entry());
  const ir::Stmt& iff = main_fn.stmt(main_fn.body()[0]);
  ASSERT_EQ(iff.kind, ir::StmtKind::kIf);
  EXPECT_DOUBLE_EQ(iff.taken_prob, 0.125);
}

TEST(McCodegen, SemanticErrors) {
  DiagnosticEngine diags;
  EXPECT_FALSE(mc_compile_source("void main() { x = 1; }", "t", diags).has_value());
  diags.clear();
  EXPECT_FALSE(mc_compile_source("void main() { ghost(); }", "t", diags).has_value());
  diags.clear();
  EXPECT_FALSE(mc_compile_source(R"(
__scall __cycles(10) void f(in int a);
void main() { f(); }
)",
                                 "t", diags)
                   .has_value());
  diags.clear();
  EXPECT_FALSE(mc_compile_source("__scall __cycles(5) void f();", "t", diags).has_value())
      << "missing main must be rejected";
}

TEST(McCodegen, ProfileAndDependenceFlowThrough) {
  // End-to-end: compiled MiniC supports profiling and PC extraction.
  auto m = compile(R"(
int frame[64]; int out1[64]; int hist[64]; int packed;
__scall __cycles(9000) void fir(in int x[], out int y[]);
void main() {
  for (i = 0; i < 64; i = i + 1) {
    frame[i] = frame[i] + 1;
  }
  fir(frame, out1);
  for (j = 0; j < 32; j = j + 1) {
    hist[j] = frame[j] * 2;
  }
  packed = out1[0] + hist[0];
}
)");
  ASSERT_TRUE(m);
  const profile::ModuleProfile prof = profile::profile_module(*m);
  EXPECT_GT(prof.total_cycles, 9000);

  cdfg::Cdfg g(*m, m->function(m->entry()));
  g.annotate_call_cycles([&](ir::FuncId f) { return prof.cycles_of(f); });
  const cdfg::NodeIndex call = g.node_of_call(ir::CallSiteId{0});
  ASSERT_NE(call, cdfg::kInvalidNode);
  // The hist loop reads frame but not out1: it cannot be the PC (different
  // loop context), but the trailing scalar pack depends on out1 -> no PC.
  const cdfg::ParallelCode pc = cdfg::parallel_code(g, call);
  EXPECT_EQ(pc.cycles, 0);
}

}  // namespace
}  // namespace partita::minic
