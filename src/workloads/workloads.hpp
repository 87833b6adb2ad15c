// Benchmark workloads.
//
// The paper evaluates on a GSM(TDMA) codec and a JPEG encoder compiled by
// the authors' in-house flow; neither the sources nor the IP RTL are
// available. These generators rebuild the *problem instances*: call
// structures, software cycle counts, profile frequencies and IP libraries
// calibrated so the selection problems have the same shape as Tables 1-3
// (18 s-calls / 23 IPs for the GSM encoder, 11 s-calls / 10 IPs for the
// decoder, the C-MUL < FFT < 1D-DCT < 2D-DCT hierarchy for JPEG), plus the
// Fig. 9 / Fig. 10 motivating examples for Problem 2 and a parameterized
// random generator for stress and property tests.
//
// Applications are written in KL text and parsed through the real frontend;
// IP libraries go through the real loader -- the workloads double as
// integration tests of both.
#pragma once

#include <optional>
#include <string>

#include "iplib/library.hpp"
#include "ir/function.hpp"

namespace partita::workloads {

struct Workload {
  std::string name;
  ir::Module module;
  iplib::IpLibrary library;
};

/// GSM(TDMA) speech encoder: 18 top-level s-calls, 23 IPs (filters,
/// correlators, quantizers; some functions with two or three alternative
/// IPs). Reproduces Table 1's setting.
Workload gsm_encoder();

/// GSM(TDMA) decoder: 11 s-calls, 10 IPs. Reproduces Table 2's setting,
/// including the IP whose data rate is below the type-0 template rate (the
/// SC10 type-0 -> type-2 switch) .
Workload gsm_decoder();

/// JPEG encoder with the paper's hierarchy: 2D-DCT -> 1D-DCT -> FFT -> C-MUL
/// plus zig-zag; five IPs, one per level. Reproduces Table 3's setting.
Workload jpeg_encoder();

/// Fig. 9: three independent fir() calls whose pure-software form misses the
/// constraint; the optimum runs one in the kernel as parallel code of the
/// IP executing the other two (needs Problem 2).
Workload fig9_case();

/// Fig. 10: two paths share a common fir(); meeting both constraints needs
/// the common fir in software as the parallel code of dct() while P1's other
/// fir()s use the IP (needs Problem 2).
Workload fig10_case();

/// ADPCM speech codec (extra workload, not from the paper's evaluation):
/// exercises the model corners the GSM/JPEG instances do not -- a
/// non-pipelined (combinational-array) predictor IP whose transfer cannot
/// overlap its computation, handshake-protocol IPs paying the protocol
/// transformer, and an M-IP covering the quantize/dequantize pair.
Workload adpcm_codec();

/// The built-in workload of that name ("gsm_encoder", "gsm_decoder",
/// "jpeg_encoder", "fig9", "fig10", "adpcm_codec"); nullopt when unknown.
std::optional<Workload> builtin(const std::string& name);

/// KL source text of the named built-in workload (for docs and the
/// quickstart example). Empty when unknown.
std::string workload_source(const std::string& name);

}  // namespace partita::workloads
