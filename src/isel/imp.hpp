// Implementation methods (IMPs).
//
// An IMP_ij is one concrete way of implementing s-call SC_i: an IP, an
// interface type, optionally a parallel-code arrangement, with its
// performance gain and area cost. The selector's decision variables x_ij
// range over these.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdfg/cdfg.hpp"
#include "iface/model.hpp"
#include "iface/types.hpp"
#include "iplib/library.hpp"
#include "ir/ids.hpp"

namespace partita::isel {

using ImpIndex = std::uint32_t;

/// How the IMP exploits parallel code.
enum class PcUse : std::uint8_t {
  kNone,          // no overlap
  kPlain,         // Problem 1 PC (no s-calls inside)
  kWithScallSw,   // Problem 2 PC containing software bodies of other s-calls
};

std::string_view to_string(PcUse u);

struct Imp {
  ImpIndex index = 0;
  /// The s-call this IMP implements (SC_i).
  ir::CallSiteId scall;
  /// The IP used (the k of s_ijk) and the function entry driven on it. For
  /// flattened (hierarchy) IMPs this is the *lower-level* IP actually
  /// instantiated.
  iplib::IpId ip;
  const iplib::IpFunction* ip_function = nullptr;
  iface::InterfaceType iface_type = iface::InterfaceType::kType0;

  /// Cycles saved by one execution of the s-call versus pure software.
  std::int64_t gain_per_exec = 0;
  /// Expected total gain per run (gain_per_exec * profile frequency): the
  /// paper's g_ij as used in Eq. 2 for frequency-1 paths.
  std::int64_t gain = 0;
  /// Interface area c_ij (controller + buffers + protocol transformer).
  double interface_area = 0.0;
  /// Interface power draw (zero for software controllers).
  double interface_power = 0.0;

  /// Parallel-code arrangement.
  PcUse pc_use = PcUse::kNone;
  std::int64_t parallel_cycles = 0;  // T_C offered to the timing model
  /// The PC's nodes in the entry CDFG, in program order: what the kernel
  /// runs while the IP works.
  std::vector<cdfg::NodeIndex> pc_nodes;
  /// s-calls whose software implementation this IMP's PC consumes
  /// (SC-PC conflicts; Problem 2 only).
  std::vector<ir::CallSiteId> pc_consumed_scalls;

  /// Hierarchy: true when this IMP implements the s-call by keeping the
  /// callee in software and accelerating `flatten_depth` levels further down
  /// (IMP flattening).
  bool flattened = false;
  int flatten_depth = 0;
  /// Lower-level executions of the IP per one execution of the s-call (1 for
  /// direct IMPs).
  double inner_calls_per_exec = 1.0;

  /// Timing breakdown of one S-instruction execution (direct IMPs).
  iface::InterfaceTiming timing;

  /// "IP12,IF0,115037,3"-style cell used in the result tables.
  std::string cell(const iplib::IpLibrary& lib) const;
  /// Longer human-readable description.
  std::string describe(const iplib::IpLibrary& lib) const;
};

}  // namespace partita::isel
