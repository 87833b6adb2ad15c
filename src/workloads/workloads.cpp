#include "workloads/workloads.hpp"

#include <map>

#include "frontend/parser.hpp"
#include "iplib/loader.hpp"
#include "support/assert.hpp"

namespace partita::workloads {

namespace {

Workload make(const std::string& name, std::string_view kl, std::string_view lib_text) {
  support::DiagnosticEngine diags;
  std::optional<ir::Module> module = frontend::parse_module(kl, diags);
  if (!module) {
    std::fprintf(stderr, "workload '%s' KL errors:\n%s", name.c_str(),
                 diags.render_all().c_str());
    // invariant: the KL text is compiled into the binary; a parse failure is
    // a programming error in the workload table, not user input.
    PARTITA_ASSERT_MSG(false, "built-in workload failed to parse");
  }
  std::optional<iplib::IpLibrary> lib = iplib::load_library(lib_text, diags);
  if (!lib) {
    std::fprintf(stderr, "workload '%s' library errors:\n%s", name.c_str(),
                 diags.render_all().c_str());
    // invariant: same as above -- built-in text, not user input.
    PARTITA_ASSERT_MSG(false, "built-in IP library failed to parse");
  }
  return Workload{name, std::move(*module), std::move(*lib)};
}

// ---------------------------------------------------------------------------
// GSM(TDMA) encoder: 18 top-level s-calls, 23 IPs. The call structure models
// one speech-frame encode: preprocessing and LPC analysis up front, four
// subframes of short/long-term prediction in a loop, a voiced/unvoiced
// conditional, and a 9-iteration re-estimation filter loop that concentrates
// profile weight on one site (the analogue of the paper's dominant SC13).
// ---------------------------------------------------------------------------

constexpr std::string_view kGsmEncoderKl = R"(
module gsm_encoder;

# Leaf DSP kernels (s-call candidates); cycle counts play the role of the
# profile-measured T_SW of the paper's flow.
func preemph     scall sw_cycles 3200;
func autocorr    scall sw_cycles 52000;
func schur       scall sw_cycles 16000;
func quant_lar   scall sw_cycles 1500;
func dequant_lar scall sw_cycles 1500;
func win_filter  scall sw_cycles 14000;
func ltp_corr    scall sw_cycles 180000;
func rpe_grid    scall sw_cycles 9800;
func quant_rpe   scall sw_cycles 13000;
func update_hist scall sw_cycles 1200;

func main {
  seg init 600 writes(frame);
  call preemph reads(frame) writes(pre);                    # SC: preprocercing
  call autocorr reads(pre) writes(acf);                     # SC: 4-port engine
  seg precompute 1800 reads(frame) writes(pcm2);            # PC material for autocorr
  seg lagwin 900 reads(acf) writes(acfw);
  call schur reads(acfw) writes(lar);
  call quant_lar reads(lar) writes(larq);
  call dequant_lar reads(larq) writes(larr);
  seg interp 1100 reads(larr) writes(coef);
  loop 4 {
    call win_filter reads(coef) writes(sres);
    call ltp_corr reads(sres) writes(ltp);
    seg regen 2600 reads(coef) writes(scratch);             # PC material for ltp_corr
    call rpe_grid reads(ltp) writes(rpe);
    call quant_rpe reads(rpe) writes(rpeq);
    call update_hist reads(rpeq) writes(hist);
  }
  if prob 0.5 {
    call win_filter reads(hist) writes(v1);
    call quant_lar reads(hist) writes(v2);                  # independent: PC of the fir above
    seg vpost 700 reads(v1, v2);
  } else {
    call win_filter reads(hist) writes(u1);
    call update_hist reads(u1) writes(u2);
    seg upost 500 reads(u2);
  }
  seg mid 400 writes(m);
  loop 9 {
    call win_filter reads(m) writes(w);                     # the dominant site
  }
  call quant_rpe reads(w) writes(q2);
  call dequant_lar reads(q2) writes(d2);
  call preemph reads(d2) writes(outp);
}
)";

constexpr std::string_view kGsmEncoderLib = R"(
# 23 IPs for the GSM encoder: several functions have 2-3 alternative IPs
# trading speed against area, plus M-IPs shared across functions.

ip IP1 {   # preemphasis filter, modest S-IP
  area 2
  power 0.24
  ports in 2 out 2
  rate in 4 out 4
  latency 8
  pipelined
  protocol sync
  fn preemph cycles 800 in 48 out 48
}
ip IP2 {   # fast preemphasis, pricier
  area 5
  power 0.6
  ports in 2 out 2
  rate in 4 out 4
  latency 4
  pipelined
  protocol sync
  fn preemph cycles 300 in 48 out 48
}
ip IP3 {   # autocorrelation engine, 4 input ports: buffered interfaces only
  area 12
  power 1.44
  ports in 4 out 2
  rate in 2 out 4
  latency 16
  pipelined
  protocol sync
  fn autocorr cycles 9000 in 160 out 18
}
ip IP4 {   # 2-port autocorrelator, slower but type-0 capable
  area 6
  power 0.72
  ports in 2 out 2
  rate in 4 out 4
  latency 16
  pipelined
  protocol sync
  fn autocorr cycles 22000 in 160 out 18
}
ip IP5 {   # Schur recursion array
  area 7
  power 0.84
  ports in 2 out 2
  rate in 4 out 4
  latency 12
  pipelined
  protocol sync
  fn schur cycles 4000 in 36 out 16
}
ip IP6 {   # M-IP: Schur + LTP correlator (slower than the S-IPs)
  area 10
  power 1.2
  ports in 2 out 2
  rate in 4 out 4
  latency 12
  pipelined
  protocol sync
  fn schur cycles 7000 in 36 out 16
  fn ltp_corr cycles 90000 in 320 out 8
}
ip IP7 {   # streaming Schur (protocol transformer needed)
  area 6
  power 0.72
  ports in 2 out 2
  rate in 4 out 4
  latency 10
  pipelined
  protocol stream
  fn schur cycles 5000 in 36 out 16
}
ip IP8 {   # handshake autocorrelator
  area 10
  power 1.2
  ports in 2 out 2
  rate in 4 out 4
  latency 20
  pipelined
  protocol handshake
  fn autocorr cycles 14000 in 160 out 18
}
ip IP9 {   # 3-port windowed filter: buffered only
  area 9
  power 1.08
  ports in 3 out 3
  rate in 2 out 2
  latency 10
  pipelined
  protocol sync
  fn win_filter cycles 700 in 160 out 160
}
ip IP10 {  # M-IP quantizer/dequantizer pair (the cheap shared block)
  area 2
  power 0.24
  ports in 2 out 2
  rate in 4 out 4
  latency 6
  pipelined
  protocol sync
  fn quant_lar cycles 480 in 16 out 16
  fn dequant_lar cycles 480 in 16 out 16
}
ip IP11 {  # fast windowed-filter S-IP
  area 8
  power 0.3
  ports in 2 out 2
  rate in 4 out 4
  latency 8
  pipelined
  protocol sync
  fn win_filter cycles 400 in 160 out 160
}
ip IP12 {  # M-IP filter bank: serves win_filter and rpe_grid (the shared IP)
  area 3
  power 1.5
  ports in 2 out 2
  rate in 4 out 4
  latency 10
  pipelined
  protocol sync
  fn win_filter cycles 1000 in 160 out 160
  fn rpe_grid cycles 5200 in 160 out 52
}
ip IP13 {  # LTP correlator S-IP (the big buffered win)
  area 15
  power 0.6
  ports in 2 out 2
  rate in 4 out 4
  latency 24
  pipelined
  protocol sync
  fn ltp_corr cycles 15000 in 320 out 8
}
ip IP14 {  # budget LTP correlator
  area 9
  power 2.8
  ports in 2 out 2
  rate in 4 out 4
  latency 24
  pipelined
  protocol sync
  fn ltp_corr cycles 60000 in 320 out 8
}
ip IP15 {  # wide LTP correlator, 4 ports: buffered only
  area 18
  power 2.16
  ports in 4 out 4
  rate in 1 out 1
  latency 20
  pipelined
  protocol sync
  fn ltp_corr cycles 9000 in 320 out 8
}
ip IP16 {  # RPE grid selector with asymmetric rates: type-0 impossible
  area 3
  power 0.36
  ports in 2 out 2
  rate in 2 out 4
  latency 10
  pipelined
  protocol sync
  fn rpe_grid cycles 2000 in 160 out 52
}
ip IP17 {  # APCM quantizer
  area 3
  power 1.0
  ports in 2 out 2
  rate in 4 out 4
  latency 8
  pipelined
  protocol sync
  fn quant_rpe cycles 2500 in 52 out 52
}
ip IP18 {  # history update block
  area 2
  power 0.24
  ports in 2 out 2
  rate in 4 out 4
  latency 4
  pipelined
  protocol sync
  fn update_hist cycles 300 in 40 out 40
}
ip IP19 {  # fast APCM quantizer
  area 6
  power 0.25
  ports in 2 out 2
  rate in 4 out 4
  latency 6
  pipelined
  protocol sync
  fn quant_rpe cycles 900 in 52 out 52
}
ip IP20 {  # M-IP: history update + LAR quantizer
  area 4
  power 0.48
  ports in 2 out 2
  rate in 4 out 4
  latency 6
  pipelined
  protocol sync
  fn update_hist cycles 500 in 40 out 40
  fn quant_lar cycles 700 in 16 out 16
}
ip IP21 {  # minimal RPE grid helper (non-pipelined)
  area 2
  power 0.24
  ports in 1 out 1
  rate in 4 out 4
  latency 40
  combinational
  protocol sync
  fn rpe_grid cycles 7600 in 160 out 52
}
ip IP22 {  # M-IP: RPE grid + APCM quantizer
  area 8
  power 0.96
  ports in 2 out 2
  rate in 4 out 4
  latency 10
  pipelined
  protocol sync
  fn rpe_grid cycles 3000 in 160 out 52
  fn quant_rpe cycles 1600 in 52 out 52
}
ip IP23 {  # M-IP: preemphasis + history update
  area 4
  power 0.48
  ports in 2 out 2
  rate in 4 out 4
  latency 8
  pipelined
  protocol sync
  fn preemph cycles 1200 in 48 out 48
  fn update_hist cycles 600 in 40 out 40
}
)";

// ---------------------------------------------------------------------------
// GSM decoder: 11 s-calls, 10 IPs. Two functions account for eight sites
// (four each, mirroring the paper's IP5/IP2 sharing); the postfilter IP's
// native data rate (2) is below the type-0 template rate, reproducing the
// SC10 type-0 -> type-2 upgrade of Table 2.
// ---------------------------------------------------------------------------

constexpr std::string_view kGsmDecoderKl = R"(
module gsm_decoder;

func dec_unpack  scall sw_cycles 1300;
func short_synth scall sw_cycles 15500;
func ltp_synth   scall sw_cycles 9000;
func postfilter  scall sw_cycles 15200;
func deemph      scall sw_cycles 9700;

func main {
  seg init 400 writes(bits);
  call dec_unpack reads(bits) writes(p1);
  call short_synth reads(p1) writes(s1);
  call dec_unpack reads(bits) writes(p2);
  call short_synth reads(p2) writes(s2);
  call dec_unpack reads(bits) writes(p3);
  call short_synth reads(p3) writes(s3);
  call dec_unpack reads(bits) writes(p4);
  loop 9 {
    call short_synth reads(p4) writes(s4);               # dominant site
  }
  call ltp_synth reads(s4) writes(lt);
  if prob 0.6 {
    seg postA 800 reads(lt) writes(pa);
  } else {
    seg postB 1200 reads(lt) writes(pb);
  }
  call postfilter reads(lt) writes(pf);                  # rate-2 IP target
  call deemph reads(pf) writes(outp);
}
)";

constexpr std::string_view kGsmDecoderLib = R"(
ip IP1 {   # slow parameter decoder
  area 1
  power 0.1
  ports in 2 out 2
  rate in 4 out 4
  latency 6
  pipelined
  protocol sync
  fn dec_unpack cycles 900 in 20 out 20
}
ip IP2 {   # parameter decoder (the cheap shared block)
  area 2
  power 0.45
  ports in 2 out 2
  rate in 4 out 4
  latency 4
  pipelined
  protocol sync
  fn dec_unpack cycles 300 in 20 out 20
}
ip IP3 {   # mid-speed synthesis filter
  area 12
  power 0.9
  ports in 2 out 2
  rate in 4 out 4
  latency 12
  pipelined
  protocol sync
  fn short_synth cycles 4500 in 160 out 160
}
ip IP4 {   # fast synthesis filter (big)
  area 32
  power 0.5
  ports in 2 out 2
  rate in 4 out 4
  latency 10
  pipelined
  protocol sync
  fn short_synth cycles 900 in 160 out 160
}
ip IP5 {   # synthesis filter (the workhorse of Table 2)
  area 4
  power 1.6
  ports in 2 out 2
  rate in 4 out 4
  latency 12
  pipelined
  protocol sync
  fn short_synth cycles 1500 in 160 out 160
}
ip IP6 {   # postfilter with native rate 2: type-0 must slow the IP clock
  area 3
  power 0.85
  ports in 2 out 2
  rate in 2 out 2
  latency 8
  pipelined
  protocol sync
  fn postfilter cycles 300 in 80 out 80
}
ip IP7 {   # alternative postfilter, rate 4
  area 5
  power 0.3
  ports in 2 out 2
  rate in 4 out 4
  latency 8
  pipelined
  protocol sync
  fn postfilter cycles 450 in 80 out 80
}
ip IP8 {   # long-term synthesis block
  area 5
  power 0.6
  ports in 2 out 2
  rate in 4 out 4
  latency 10
  pipelined
  protocol sync
  fn ltp_synth cycles 350 in 44 out 44
}
ip IP9 {   # 4-port deemphasis: buffered only
  area 7
  power 0.84
  ports in 4 out 4
  rate in 2 out 2
  latency 8
  pipelined
  protocol sync
  fn deemph cycles 250 in 160 out 160
}
ip IP10 {  # deemphasis filter
  area 3
  power 0.36
  ports in 2 out 2
  rate in 4 out 4
  latency 8
  pipelined
  protocol sync
  fn deemph cycles 600 in 160 out 160
}
)";

// ---------------------------------------------------------------------------
// JPEG encoder: the hierarchy case. 2D-DCT is two passes of 1D-DCTs, 1D-DCT
// calls an FFT, the FFT performs 32 complex multiplications; an IP exists at
// every level plus one for the zig-zag scan (whose asymmetric rates exclude
// the type-0 interface). IMP flattening generates the Table 3 ladder: C-MUL
// at low RG, then FFT / 1D-DCT, then the full 2D-DCT block.
// ---------------------------------------------------------------------------

constexpr std::string_view kJpegEncoderKl = R"(
module jpeg_encoder;

func cmul scall sw_cycles 42;

func fft scall {
  loop 32 {
    call cmul reads(xr) writes(yr);
    seg butterfly 12 reads(yr) writes(xr);
  }
  seg twiddle 216 reads(xr) writes(spec);
}

func dct1d scall {
  call fft reads(line) writes(spec1);
  seg post_rotate 300 reads(spec1) writes(coef1);
}

func dct2d scall {
  loop 16 {
    call dct1d reads(blk) writes(rowcoef);
  }
  seg transpose 900 reads(rowcoef) writes(coef2);
}

func zigzag scall sw_cycles 640;

func main {
  loop 1000 {
    call dct2d reads(block) writes(coefs);
    seg stats 2800 reads(block) writes(hist);    # independent: PC of dct2d
    call zigzag reads(coefs) writes(zz);
    seg entropy 1500 reads(zz) writes(bits);
  }
}
)";

constexpr std::string_view kJpegEncoderLib = R"(
ip IP1 {   # full 2D-DCT block; native rate 1: type-0 must slow its clock
  area 27
  power 1.8
  ports in 2 out 2
  rate in 1 out 1
  latency 40
  pipelined
  protocol sync
  fn dct2d cycles 2500 in 64 out 64
}
ip IP2 {   # 1D-DCT, 4 input ports: buffered interfaces only
  area 11
  power 0.7
  ports in 4 out 2
  rate in 1 out 2
  latency 16
  pipelined
  protocol sync
  fn dct1d cycles 260 in 16 out 16
}
ip IP3 {   # FFT core
  area 8
  power 0.95
  ports in 2 out 2
  rate in 4 out 4
  latency 24
  pipelined
  protocol sync
  fn fft cycles 420 in 64 out 64
}
ip IP4 {   # complex multiplier
  area 4
  power 1.3
  ports in 2 out 2
  rate in 4 out 4
  latency 2
  pipelined
  protocol sync
  fn cmul cycles 6 in 4 out 2
}
ip IP5 {   # zig-zag scanner, asymmetric rates: type-0 impossible
  area 5
  power 0.5
  ports in 2 out 2
  rate in 1 out 2
  latency 6
  pipelined
  protocol sync
  fn zigzag cycles 120 in 64 out 64
}
)";

// ---------------------------------------------------------------------------
// Fig. 9: three independent fir() calls; the IP is only ~1.7x faster than
// software, so beyond Problem 1's best (all three on the IP) lies a better
// point: one fir stays in the kernel as the parallel code of another's IP
// execution. Problem 2 finds it; Problem 1 cannot.
// ---------------------------------------------------------------------------

constexpr std::string_view kFig9Kl = R"(
module fig9;

func fir scall sw_cycles 10000;

func main {
  call fir reads(a) writes(x);
  call fir reads(b) writes(y);
  call fir reads(c) writes(z);
  seg combine 300 reads(x, y, z);
}
)";

constexpr std::string_view kFig9Lib = R"(
ip IP_FIR {
  area 10
  power 1.2
  ports in 2 out 2
  rate in 4 out 4
  latency 16
  pipelined
  protocol sync
  fn fir cycles 6000 in 64 out 64
}
)";

// ---------------------------------------------------------------------------
// Fig. 10: two execution paths share a common fir(). The dct()-path only
// meets its constraint when the common fir's *software* body overlaps the
// dct IP run; the other path has enough margin to leave that fir in
// software. Problem 1's same-function-same-implementation rule forbids the
// split; Problem 2 allows it.
// ---------------------------------------------------------------------------

constexpr std::string_view kFig10Kl = R"(
module fig10;

func fir scall sw_cycles 10000;
func dct scall sw_cycles 50000;
func iir scall sw_cycles 30000;

func main {
  if prob 0.5 {
    call dct reads(d) writes(dc);          # path P2
    seg dpost 150 reads(dc);
  } else {
    call fir reads(a) writes(x);           # path P1
    call fir reads(b) writes(y);
    call iir reads(x, y) writes(ir);
  }
  call fir reads(c) writes(z);             # the common s-call
  seg post 200 reads(z);
}
)";

constexpr std::string_view kFig10Lib = R"(
ip IP_FIR {
  area 10
  power 1.2
  ports in 2 out 2
  rate in 4 out 4
  latency 16
  pipelined
  protocol sync
  fn fir cycles 6000 in 64 out 64
}
ip IP_DCT {
  area 20
  power 2.4
  ports in 2 out 2
  rate in 4 out 4
  latency 24
  pipelined
  protocol sync
  fn dct cycles 30000 in 64 out 64
}
ip IP_IIR {
  area 12
  power 1.44
  ports in 2 out 2
  rate in 4 out 4
  latency 16
  pipelined
  protocol sync
  fn iir cycles 8000 in 64 out 64
}
)";


// ---------------------------------------------------------------------------
// ADPCM codec (extra workload): one frame = eight blocks of predict ->
// quantize -> pack -> reconstruct -> adapt. The predictor IP is a
// combinational MAC array (non-pipelined: transfers serialize with the
// computation), the quantizer pair shares a handshake-protocol M-IP, and the
// step-size adapter has a pipelined S-IP. Not part of the paper's
// evaluation; covers the model corners GSM/JPEG leave untouched.
// ---------------------------------------------------------------------------

constexpr std::string_view kAdpcmKl = R"(
module adpcm_codec;

func predictor     scall sw_cycles 4200;
func quant_adpcm   scall sw_cycles 2600;
func dequant_adpcm scall sw_cycles 2400;
func step_update   scall sw_cycles 1800;

func main {
  seg frame_in 300 writes(frame);
  loop 8 {
    call predictor reads(frame) writes(pred);
    call quant_adpcm reads(pred) writes(code);
    seg pack 900 reads(frame) writes(bits);          # independent of quant: PC
    call dequant_adpcm reads(code) writes(recon);
    call step_update reads(recon) writes(stepsz);
  }
  if prob 0.3 {
    call predictor reads(stepsz) writes(final1);     # voiced tail refinement
    seg tailA 400 reads(final1);
  } else {
    seg tailB 600 reads(stepsz);
  }
}
)";

constexpr std::string_view kAdpcmLib = R"(
ip PRED_ARRAY {   # combinational MAC array: NON-pipelined
  area 6
  power 0.9
  ports in 2 out 2
  rate in 4 out 4
  latency 30
  combinational
  protocol sync
  fn predictor cycles 900 in 24 out 24
}
ip PRED_PIPE {    # pipelined alternative, pricier
  area 14
  power 0.5
  ports in 2 out 2
  rate in 4 out 4
  latency 12
  pipelined
  protocol sync
  fn predictor cycles 700 in 24 out 24
}
ip QDQ_UNIT {     # handshake M-IP: quantizer + dequantizer
  area 5
  power 0.7
  ports in 2 out 2
  rate in 4 out 4
  latency 8
  pipelined
  protocol handshake
  fn quant_adpcm cycles 500 in 16 out 16
  fn dequant_adpcm cycles 450 in 16 out 16
}
ip STEP_IP {      # step-size adapter
  area 2
  power 0.3
  ports in 2 out 2
  rate in 4 out 4
  latency 6
  pipelined
  protocol sync
  fn step_update cycles 250 in 8 out 8
}
ip QUANT_FAST {   # stream-protocol fast quantizer (S-IP)
  area 7
  power 1.1
  ports in 4 out 2
  rate in 1 out 2
  latency 6
  pipelined
  protocol stream
  fn quant_adpcm cycles 180 in 16 out 16
}
)";

const std::map<std::string, std::pair<std::string_view, std::string_view>>&
registry() {
  static const std::map<std::string, std::pair<std::string_view, std::string_view>> r = {
      {"gsm_encoder", {kGsmEncoderKl, kGsmEncoderLib}},
      {"gsm_decoder", {kGsmDecoderKl, kGsmDecoderLib}},
      {"jpeg_encoder", {kJpegEncoderKl, kJpegEncoderLib}},
      {"fig9", {kFig9Kl, kFig9Lib}},
      {"fig10", {kFig10Kl, kFig10Lib}},
      {"adpcm_codec", {kAdpcmKl, kAdpcmLib}},
  };
  return r;
}

}  // namespace

Workload gsm_encoder() { return make("gsm_encoder", kGsmEncoderKl, kGsmEncoderLib); }
Workload gsm_decoder() { return make("gsm_decoder", kGsmDecoderKl, kGsmDecoderLib); }
Workload jpeg_encoder() { return make("jpeg_encoder", kJpegEncoderKl, kJpegEncoderLib); }
Workload fig9_case() { return make("fig9", kFig9Kl, kFig9Lib); }
Workload fig10_case() { return make("fig10", kFig10Kl, kFig10Lib); }
Workload adpcm_codec() { return make("adpcm_codec", kAdpcmKl, kAdpcmLib); }

std::optional<Workload> builtin(const std::string& name) {
  auto it = registry().find(name);
  if (it == registry().end()) return std::nullopt;
  return make(name, it->second.first, it->second.second);
}

std::string workload_source(const std::string& name) {
  auto it = registry().find(name);
  return it == registry().end() ? std::string{} : std::string(it->second.first);
}

}  // namespace partita::workloads
