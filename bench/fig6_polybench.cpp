// Fig. 6 reproduction: PolyBench/C runtimes for WebAssembly execution
// without SGX, with simulated SGX, with hardware SGX, and with hardware SGX
// plus accounting instrumentation (loop-based), normalised to native
// execution time.
//
// Paper results this regenerates (shape, not absolute numbers):
//   * WASM ~1.1x native on average, kernel-dependent,
//   * WASM-SGX SIM adds nothing over WASM,
//   * WASM-SGX HW ~2.1x on average, with large blow-ups for kernels whose
//     working set exceeds the usable EPC (paging),
//   * instrumentation adds ~4% on average (0-9%) over WASM-SGX HW.
#include <cstdio>

#include "bench_util.hpp"
#include "workloads/polybench.hpp"

using namespace acctee;
using bench::timed_run_module;
using instrument::InstrumentOptions;
using instrument::PassKind;

// Usage: fig6_polybench [--smoke] [--json <path>]
//   --smoke        shrink problem sizes to a CI smoke-test scale
//   --json <path>  also write machine-readable results (bench::JsonReporter)
int main(int argc, char** argv) {
  bench::JsonReporter json("fig6_polybench", argc, argv);
  const bool smoke = bench::smoke_requested(argc, argv);
  std::printf("Fig. 6: PolyBench/C normalised runtimes (lower is better)%s\n",
              smoke ? " [SMOKE SCALE]" : "");
  std::printf("scaled machine: LLC 1 MiB, EPC %llu MiB usable, enclave base "
              "%llu MiB\n\n",
              static_cast<unsigned long long>(bench::kScaledEpcLimit >> 20),
              static_cast<unsigned long long>(bench::kScaledEnclaveBase >> 20));
  std::printf("%-14s %9s %7s %9s %8s %10s %7s\n", "kernel", "native-Mc",
              "WASM", "SGX-SIM", "SGX-HW", "HW-instr", "instr%");
  std::printf("%s\n", std::string(70, '-').c_str());

  double sum_wasm = 0, sum_hw = 0, sum_instr_pct = 0;
  double max_instr_pct = 0, min_instr_pct = 1e9;
  int count = 0;
  // Exact integer total behind the rounded ratios: the table alone cannot
  // show a one-cycle change, this line can (bench/golden diffs it).
  uint64_t total_cycles = 0;

  for (const auto& kernel : workloads::polybench()) {
    uint32_t n = smoke ? std::min<uint32_t>(kernel.bench_n, 16) : kernel.bench_n;
    wasm::Module module = kernel.build(n);
    auto instrumented =
        instrument::instrument(module, InstrumentOptions{PassKind::LoopBased,
                                                         {}});

    auto measure = [&](const wasm::Module& m, interp::Platform platform,
                       const char* label) {
      bench::TimedOutcome timed = timed_run_module(m, platform);
      json.record(kernel.name + "/" + label, /*iterations=*/1, timed.wall_ns,
                  timed.wall_ns > 0
                      ? static_cast<double>(timed.outcome.stats.instructions) *
                            1e9 / timed.wall_ns
                      : 0);
      total_cycles += timed.outcome.stats.cycles;
      return timed.outcome.stats.cycles;
    };

    uint64_t native = measure(module, interp::Platform::Native, "native");
    uint64_t wasm_c = measure(module, interp::Platform::Wasm, "WASM");
    uint64_t sim = measure(module, interp::Platform::WasmSgxSim, "SGX-SIM");
    uint64_t hw = measure(module, interp::Platform::WasmSgxHw, "SGX-HW");
    uint64_t hw_instr =
        measure(instrumented.module, interp::Platform::WasmSgxHw, "HW-instr");

    double n_wasm = static_cast<double>(wasm_c) / native;
    double n_sim = static_cast<double>(sim) / native;
    double n_hw = static_cast<double>(hw) / native;
    double n_hw_instr = static_cast<double>(hw_instr) / native;
    double instr_pct = 100.0 * (n_hw_instr / n_hw - 1.0);

    std::printf("%-14s %9.1f %7.2f %9.2f %8.2f %10.2f %6.1f%%\n",
                kernel.name.c_str(), native / 1e6, n_wasm, n_sim, n_hw,
                n_hw_instr, instr_pct);

    sum_wasm += n_wasm;
    sum_hw += n_hw;
    sum_instr_pct += instr_pct;
    max_instr_pct = std::max(max_instr_pct, instr_pct);
    min_instr_pct = std::min(min_instr_pct, instr_pct);
    ++count;
  }

  std::printf("%s\n", std::string(70, '-').c_str());
  std::printf("averages: WASM %.2fx native, WASM-SGX HW %.2fx native, "
              "instrumentation +%.1f%% over WASM-SGX HW "
              "(min %.1f%%, max %.1f%%)\n",
              sum_wasm / count, sum_hw / count, sum_instr_pct / count,
              min_instr_pct, max_instr_pct);
  std::printf("paper:    WASM 1.1x native, WASM-SGX HW 2.1x native, "
              "instrumentation +4%% (0-9%%)\n");
  std::printf("simulated cycles, sum over all runs: %llu\n",
              static_cast<unsigned long long>(total_cycles));
  return json.write() ? 0 : 1;
}
