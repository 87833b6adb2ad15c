// partita — command-line driver for the IP/interface selection flow.
//
//   partita info   <app> <lib.ip>                  workload summary
//   partita imps   <app> <lib.ip>                  dump the IMP database
//   partita select <app> <lib.ip> --rg N [--problem1] [--max-power P] [--json]
//   partita sweep  <app> <lib.ip> [--steps 8]      paper-style RG ladder
//   partita pareto <app> <lib.ip> [--steps N]      area/gain frontier
//   partita sens   <app> <lib.ip> [--rg N]         per-IP criticality
//   partita report <app> <lib.ip> [--rg N]         generated-ASIP summary
//   partita rtl    <app> <lib.ip> [--rg N]         Verilog emission
//   partita sim    <app> <lib.ip> [--rg N] [--runs 32] [--seed S]
//   partita lint   <app> <lib.ip>                  IP-library sanity check
//
// <app> may be KL (.kl) or MiniC (.c/.mc -- the C-subset frontend), or the
// name of a built-in workload.
//
// Every command also accepts a built-in workload name instead of the two
// file arguments: gsm_encoder, gsm_decoder, jpeg_encoder, fig9, fig10.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cinst/cinst.hpp"
#include "dse/pareto.hpp"
#include "dse/sensitivity.hpp"
#include "frontend/parser.hpp"
#include "iface/fsm.hpp"
#include "iface/lint.hpp"
#include "iplib/loader.hpp"
#include "minic/mc_codegen.hpp"
#include "report/chip_report.hpp"
#include "rtl/verilog.hpp"
#include "select/export.hpp"
#include "select/flow.hpp"
#include "sim/cosim.hpp"
#include "support/fault_injection.hpp"
#include "support/strings.hpp"
#include "support/text_table.hpp"
#include "workloads/workloads.hpp"

using namespace partita;

namespace {

// Documented exit codes: 0 success, 1 infeasible/internal error, 2 usage,
// 3 bad input (unreadable/unparseable/unverifiable), 4 resource-limit
// degradation (a best-effort answer was printed, but a time/memory/node
// budget truncated the search).
constexpr int kExitUsage = 2;
constexpr int kExitInput = 3;
constexpr int kExitDegraded = 4;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <command> <app.kl> <lib.ip> [options]\n"
               "       %s <command> <builtin-workload> [options]\n"
               "\n"
               "commands:\n"
               "  info     show profile, s-calls, paths and library summary\n"
               "  imps     dump the IMP database (every implementation method)\n"
               "  select   optimal selection   --rg N [--problem1] [--max-power P] [--json]\n"
               "  sweep    RG ladder like the paper's tables   [--steps 8] [--problem1]\n"
               "  report   full generated-ASIP report          [--rg N]\n"
               "  sim      co-simulate sw vs accelerated       [--rg N] [--runs 32] [--seed S]\n"
               "  rtl      emit Verilog for the selected design [--rg N]\n"
               "  pareto   area/gain Pareto frontier            [--steps N coarsening]\n"
               "  sens     per-IP criticality analysis          [--rg N]\n"
               "  lint     sanity-check the IP library\n"
               "\n"
               "resource options (solver commands):\n"
               "  --time-limit-ms N   wall-clock budget for the ILP search\n"
               "  --max-solver-mb N   node-arena memory budget for the ILP search\n"
               "\n"
               "builtin workloads: gsm_encoder gsm_decoder jpeg_encoder adpcm_codec fig9 fig10\n"
               "\n"
               "exit codes: 0 ok, 1 infeasible, 2 usage, 3 bad input, 4 degraded by\n"
               "resource limits (best-effort answer printed)\n",
               argv0, argv0);
  std::exit(kExitUsage);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "partita: cannot open '%s'\n", path.c_str());
    std::exit(kExitInput);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Args {
  std::string command;
  workloads::Workload workload;
  std::optional<std::int64_t> rg;
  int steps = 8;
  bool problem1 = false;
  std::optional<double> max_power;
  int runs = 32;
  std::uint64_t seed = 1;
  bool json = false;
  std::optional<double> time_limit_ms;
  std::optional<double> max_solver_mb;
};

Args parse_args(int argc, char** argv) {
  if (argc < 3) usage(argv[0]);
  Args args;
  args.command = argv[1];

  int next = 2;
  if (auto wl = workloads::builtin(argv[2])) {
    args.workload = std::move(*wl);
    next = 3;
  } else {
    if (argc < 4) usage(argv[0]);
    const std::string app_path = argv[2];
    const std::string app_text = slurp(app_path);
    const std::string lib_text = slurp(argv[3]);
    support::DiagnosticEngine diags;
    // MiniC sources (.c / .mc) go through the C-subset frontend; everything
    // else is treated as KL.
    const bool is_minic = app_path.size() > 2 &&
                          (app_path.rfind(".c") == app_path.size() - 2 ||
                           app_path.rfind(".mc") == app_path.size() - 3);
    auto module = is_minic ? minic::mc_compile_source(app_text, "minic_app", diags)
                           : frontend::parse_module(app_text, diags);
    auto library = iplib::load_library(lib_text, diags);
    if (!module || !library) {
      std::fprintf(stderr, "%s", diags.render_all().c_str());
      std::exit(kExitInput);
    }
    args.workload = {argv[2], std::move(*module), std::move(*library)};
    next = 4;
  }

  for (int i = next; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "partita: %s needs a value\n", flag.c_str());
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (flag == "--rg") args.rg = std::atoll(need_value());
    else if (flag == "--steps") args.steps = std::atoi(need_value());
    else if (flag == "--problem1") args.problem1 = true;
    else if (flag == "--json") args.json = true;
    else if (flag == "--max-power") args.max_power = std::atof(need_value());
    else if (flag == "--runs") args.runs = std::atoi(need_value());
    else if (flag == "--seed") args.seed = static_cast<std::uint64_t>(std::atoll(need_value()));
    else if (flag == "--time-limit-ms") args.time_limit_ms = std::atof(need_value());
    else if (flag == "--max-solver-mb") args.max_solver_mb = std::atof(need_value());
    else {
      std::fprintf(stderr, "partita: unknown option '%s'\n", flag.c_str());
      std::exit(kExitUsage);
    }
  }
  if (args.steps < 1 || args.steps > 64) {
    std::fprintf(stderr, "partita: --steps must be 1..64\n");
    std::exit(kExitUsage);
  }
  if (args.runs < 1 || args.runs > 100000) {
    std::fprintf(stderr, "partita: --runs must be 1..100000\n");
    std::exit(kExitUsage);
  }
  if (args.time_limit_ms && *args.time_limit_ms <= 0) {
    std::fprintf(stderr, "partita: --time-limit-ms must be positive\n");
    std::exit(kExitUsage);
  }
  if (args.max_solver_mb && *args.max_solver_mb <= 0) {
    std::fprintf(stderr, "partita: --max-solver-mb must be positive\n");
    std::exit(kExitUsage);
  }
  return args;
}

select::SelectOptions select_options(const Args& args) {
  select::SelectOptions opt;
  opt.problem2 = !args.problem1;
  opt.max_power = args.max_power;
  if (args.time_limit_ms) opt.ilp.budget.time_limit_seconds = *args.time_limit_ms / 1000.0;
  if (args.max_solver_mb) {
    opt.ilp.budget.memory_limit_bytes =
        static_cast<std::size_t>(*args.max_solver_mb * 1024.0 * 1024.0);
  }
  return opt;
}

// Resource-limit degradation maps to its own exit code so scripts can tell
// "optimal answer" (0) apart from "best effort under a budget" (4).
int success_exit(const select::Selection& sel) {
  if (sel.truncated && (sel.solver.termination == ilp::TerminationReason::kDeadline ||
                        sel.solver.termination == ilp::TerminationReason::kMemoryLimit)) {
    return kExitDegraded;
  }
  return 0;
}

int cmd_info(const Args& args, select::Flow& flow) {
  const workloads::Workload& w = args.workload;
  std::printf("workload      : %s\n", w.name.c_str());
  std::printf("functions     : %zu\n", w.module.function_count());
  std::printf("call sites    : %zu\n", w.module.call_sites().size());
  std::printf("s-calls       : %zu\n", flow.scalls().size());
  // Enumeration lists every resolution of the conditionals up to kMaxPaths.
  const std::size_t conds = cdfg::conditional_tree(flow.entry_cdfg()).conds.size();
  const bool cut = conds >= 64 || (std::size_t{1} << conds) > cdfg::kMaxPaths;
  std::printf("exec paths    : %zu (%zu conditionals)%s\n", flow.paths().size(), conds,
              cut ? (" (truncated at " + std::to_string(cdfg::kMaxPaths) + ")").c_str() : "");
  std::printf("IPs           : %zu\n", w.library.size());
  std::printf("IMPs          : %zu\n", flow.imp_database().imps().size());
  std::printf("sw cycles/run : %s\n",
              support::with_commas(flow.profile().total_cycles).c_str());
  std::printf("max gain      : %s\n",
              support::with_commas(flow.max_feasible_gain(select_options(args))).c_str());
  std::printf("\ns-calls:\n");
  for (const isel::SCall& sc : flow.scalls()) {
    std::printf("  SC%u %-14s T_SW=%-10lld freq=%g\n", sc.site.value(),
                sc.callee_name.c_str(), static_cast<long long>(sc.t_sw), sc.frequency);
  }
  return 0;
}

int cmd_imps(const Args& args, select::Flow& flow) {
  std::fputs(flow.imp_database().dump(args.workload.library).c_str(), stdout);
  return 0;
}

int cmd_select(const Args& args, select::Flow& flow) {
  const select::SelectOptions opt = select_options(args);
  const std::int64_t gmax = flow.max_feasible_gain(opt);
  const std::int64_t rg = args.rg.value_or(gmax / 2);
  const select::Selection sel = flow.select(rg, opt);
  if (args.json) {
    std::fputs(select::to_json(sel, flow.imp_database(), args.workload.library, rg).c_str(),
               stdout);
    return sel.feasible ? success_exit(sel) : 1;
  }
  std::printf("required gain : %s (max feasible %s)\n", support::with_commas(rg).c_str(),
              support::with_commas(gmax).c_str());
  if (!sel.feasible) {
    std::printf("INFEASIBLE (%s)\n", sel.degradation_detail.c_str());
    return 1;
  }
  std::printf("selection     : %s\n",
              sel.describe(flow.imp_database(), args.workload.library).c_str());
  std::printf("guaranteed G  : %s\n", support::with_commas(sel.min_path_gain).c_str());
  std::printf("area          : %.3f (IP %.3f + interface %.3f)\n", sel.total_area(),
              sel.ip_area, sel.interface_area);
  std::printf("power         : %.3f\n", sel.total_power());
  std::printf("S-instructions: %d for %d s-calls\n", sel.s_instructions,
              sel.selected_scalls);
  std::printf("solver        : %d nodes, %d LP iterations, %.0f%% warm hits\n",
              sel.solver.nodes, sel.solver.lp_iterations,
              sel.solver.warm_start_hit_rate() * 100.0);
  std::printf("quality       : %s", select::to_string(sel.rung));
  if (sel.truncated) {
    std::printf(" [%s; gap <= %.2f%%%s]", ilp::to_string(sel.solver.termination),
                sel.optimality_gap * 100.0,
                sel.greedy_fallback ? "; greedy fallback applied" : "");
  }
  std::printf("\n");
  return success_exit(sel);
}

int cmd_sweep(const Args& args, select::Flow& flow) {
  const select::SelectOptions opt = select_options(args);
  const std::int64_t gmax = flow.max_feasible_gain(opt);
  // The whole RG ladder is one batch solve: the model build, presolve clique
  // table and root bases are shared across the steps (bit-identical to the
  // per-step select() calls this loop used to make, just faster).
  std::vector<std::int64_t> rgs;
  rgs.reserve(static_cast<std::size_t>(args.steps));
  for (int k = 1; k <= args.steps; ++k) rgs.push_back(gmax * k / args.steps);
  const std::vector<select::Selection> sweep = flow.select_batch(rgs, opt);

  support::TextTable t({"RG", "G", "A", "S", "O", "implementation"});
  t.set_alignment({support::Align::kRight, support::Align::kRight, support::Align::kRight,
                   support::Align::kRight, support::Align::kRight, support::Align::kLeft});
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const std::int64_t rg = rgs[i];
    const select::Selection& sel = sweep[i];
    if (!sel.feasible) {
      t.add_row({support::with_commas(rg), "-", "-", "-", "-", "(infeasible)"});
      continue;
    }
    t.add_row({support::with_commas(rg), support::with_commas(sel.min_path_gain),
               support::compact_double(sel.total_area()),
               std::to_string(sel.s_instructions), std::to_string(sel.selected_scalls),
               sel.describe(flow.imp_database(), args.workload.library)});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_report(const Args& args, select::Flow& flow) {
  const select::SelectOptions opt = select_options(args);
  const std::int64_t gmax = flow.max_feasible_gain(opt);
  const std::int64_t rg = args.rg.value_or(gmax * 3 / 5);
  const select::Selection sel = flow.select(rg, opt);
  // Infeasible selections still render: generate_report() produces a
  // structured infeasibility report instead of aborting.
  const report::ChipReport rep = report::generate_report(flow, sel);
  std::fputs(rep.text.c_str(), stdout);
  return sel.feasible ? success_exit(sel) : 1;
}

int cmd_sim(const Args& args, select::Flow& flow) {
  const select::SelectOptions opt = select_options(args);
  const std::int64_t gmax = flow.max_feasible_gain(opt);
  const std::int64_t rg = args.rg.value_or(gmax / 2);
  const select::Selection sel = flow.select(rg, opt);
  if (!sel.feasible) {
    std::printf("INFEASIBLE at RG=%s\n", support::with_commas(rg).c_str());
    return 1;
  }
  const workloads::Workload& w = args.workload;
  sim::CoSimulator cosim(w.module, flow.imp_database(), flow.entry_cdfg());
  support::Rng r1(args.seed), r2(args.seed);
  const sim::SimResult sw = cosim.run_average(nullptr, r1, static_cast<std::size_t>(args.runs));
  const sim::SimResult hw = cosim.run_average(&sel, r2, static_cast<std::size_t>(args.runs));
  std::printf("runs          : %d (seed %llu)\n", args.runs,
              static_cast<unsigned long long>(args.seed));
  std::printf("software      : %s cycles\n", support::with_commas(sw.total_cycles).c_str());
  std::printf("accelerated   : %s cycles\n", support::with_commas(hw.total_cycles).c_str());
  std::printf("measured gain : %s (guaranteed %s)\n",
              support::with_commas(sw.total_cycles - hw.total_cycles).c_str(),
              support::with_commas(sel.min_path_gain).c_str());
  std::printf("overlap       : %s cycles on average\n",
              support::with_commas(hw.overlap_cycles).c_str());
  std::printf("IP busy       : %s cycles on average\n",
              support::with_commas(hw.ip_active_cycles).c_str());
  return 0;
}

int cmd_pareto(const Args& args, select::Flow& flow) {
  dse::ParetoOptions opts;
  opts.select = select_options(args);
  const std::int64_t gmax = flow.max_feasible_gain(opts.select);
  // --steps N coarsens the frontier to roughly N points (default: exact).
  if (args.steps != 8) {
    opts.gain_step = std::max<std::int64_t>(1, gmax / args.steps);
  }
  const auto frontier = dse::pareto_frontier(flow.selector(), opts);
  std::printf("%zu Pareto points (max feasible gain %s)\n\n", frontier.size(),
              support::with_commas(gmax).c_str());
  std::fputs(
      dse::render_frontier(frontier, flow.imp_database(), args.workload.library).c_str(),
      stdout);
  return 0;
}

int cmd_sens(const Args& args, select::Flow& flow) {
  const select::SelectOptions opt = select_options(args);
  const std::int64_t gmax = flow.max_feasible_gain(opt);
  const std::int64_t rg = args.rg.value_or(gmax / 2);
  const dse::SensitivityReport rep = dse::analyze_sensitivity(flow.selector(), rg, opt);
  std::fputs(dse::render_sensitivity(rep, args.workload.library).c_str(), stdout);
  return rep.baseline.feasible ? 0 : 1;
}

int cmd_lint(const Args& args) {
  const auto findings = iface::lint_library(args.workload.library);
  if (findings.empty()) {
    std::printf("library is clean (%zu IPs)\n", args.workload.library.size());
    return 0;
  }
  std::fputs(iface::render_lint(findings).c_str(), stdout);
  return iface::has_lint_errors(findings) ? 1 : 0;
}

int cmd_rtl(const Args& args, select::Flow& flow) {
  const select::SelectOptions opt = select_options(args);
  const std::int64_t gmax = flow.max_feasible_gain(opt);
  const std::int64_t rg = args.rg.value_or(gmax * 3 / 5);
  const select::Selection sel = flow.select(rg, opt);
  if (!sel.feasible) {
    std::printf("INFEASIBLE at RG=%s\n", support::with_commas(rg).c_str());
    return 1;
  }
  const workloads::Workload& w = args.workload;
  const iface::KernelParams kernel;

  std::printf("// design point: RG=%s, %s\n\n", support::with_commas(rg).c_str(),
              sel.describe(flow.imp_database(), w.library).c_str());

  // One controller module per merged hardware-interfaced S-instruction.
  std::vector<std::pair<std::uint32_t, int>> emitted;
  ucode::Urom urom;
  for (isel::ImpIndex idx : sel.chosen) {
    const isel::Imp& imp = flow.imp_database().imps()[idx];
    const std::pair<std::uint32_t, int> key{imp.ip.value,
                                            static_cast<int>(imp.iface_type)};
    if (std::find(emitted.begin(), emitted.end(), key) != emitted.end()) continue;
    emitted.push_back(key);
    const iplib::IpDescriptor& ip = w.library.ip(imp.ip);
    const iface::InterfaceProgram prog =
        iface::expand_template(imp.iface_type, ip, *imp.ip_function, kernel);
    const std::string base = rtl::sanitize_identifier(
        ip.name + "_" + std::string(iface::short_name(imp.iface_type)));
    if (iface::is_software(imp.iface_type)) {
      urom.add_sequence("s_" + base, ucode::words_from_program(prog));
    } else {
      const iface::ControllerFsm fsm = iface::ControllerFsm::synthesize(prog);
      std::fputs(rtl::emit_controller(fsm, "ctrl_" + base).c_str(), stdout);
      std::fputs("\n", stdout);
    }
  }

  if (urom.sequence_count() > 0) {
    urom.optimize();
    std::fputs(rtl::emit_urom(urom, "urom_sinstr").c_str(), stdout);
    std::fputs("\n", stdout);
  }

  // Instruction decoder for the whole generated ISA.
  const report::ChipReport rep = report::generate_report(flow, sel);
  std::fputs(rtl::emit_decoder(rep.isa, "instr_decoder").c_str(), stdout);
  return 0;
}

int run(int argc, char** argv) {
  // Test-only hook: PARTITA_FAULT=site[:n][:crash] arms one fault-injection
  // site before the run (see support/fault_injection.hpp for the site list),
  // so ctest can drive recovery paths -- e.g. the degraded exit code 4 via
  // PARTITA_FAULT=ilp.deadline -- without real wall-clock pressure.
  if (const char* env = std::getenv("PARTITA_FAULT"); env && *env) {
    support::arm_fault_spec(env);
  }
  Args args = parse_args(argc, argv);
  if (args.command == "lint") return cmd_lint(args);

  // Fallible construction: parse errors were caught above, but the module
  // may still fail semantic verification (bad entry, recursion, dangling
  // call sites) or be inconsistent with the IP library.
  auto flow_or = select::Flow::create(args.workload.module, args.workload.library);
  if (!flow_or.ok()) {
    std::fprintf(stderr, "partita: %s", flow_or.error().render().c_str());
    return kExitInput;
  }
  select::Flow& flow = *flow_or.value();

  if (args.command == "info") return cmd_info(args, flow);
  if (args.command == "imps") return cmd_imps(args, flow);
  if (args.command == "select") return cmd_select(args, flow);
  if (args.command == "sweep") return cmd_sweep(args, flow);
  if (args.command == "report") return cmd_report(args, flow);
  if (args.command == "sim") return cmd_sim(args, flow);
  if (args.command == "rtl") return cmd_rtl(args, flow);
  if (args.command == "pareto") return cmd_pareto(args, flow);
  if (args.command == "sens") return cmd_sens(args, flow);
  usage(argv[0]);
}

}  // namespace

int main(int argc, char** argv) {
  // Last-resort boundary: anything that escapes as an exception is rendered
  // as a diagnostic rather than std::terminate'ing without a message.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "partita: fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "partita: fatal: unknown exception\n");
    return 1;
  }
}
