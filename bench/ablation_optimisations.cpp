// Ablation: how much each instrumentation optimisation contributes
// (DESIGN.md §5 "Key design decisions"), plus the superinstruction-fusion
// ablation for the three-stage pipeline (DESIGN.md §15).
//
// Section 1: for every PolyBench kernel and use case, reports the number
// of counter increments executed dynamically under each pass level and the
// number of loops the loop-based pass hoisted. This quantifies the
// mechanism behind the Fig. 6/10 overhead numbers: flow-based removes
// join/dominator increments, loop-based removes the per-iteration
// increments entirely.
//
// Section 2: wall-clock of the bytecode interpreter with superinstruction
// fusion on and off, over loop-instrumented kernels — the fig6 dispatch
// trajectory. `--json <path>` writes the records (BENCH_fig6_dispatch.json
// in CI) so the trajectory is tracked PR-to-PR.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "analysis/opt/opt.hpp"
#include "bench_util.hpp"
#include "interp/compiled_module.hpp"
#include "workloads/microbench.hpp"
#include "workloads/polybench.hpp"
#include "workloads/usecases.hpp"

using namespace acctee;
using instrument::InstrumentOptions;
using instrument::PassKind;

namespace {

struct Sample {
  uint64_t base_instr;
  uint64_t dyn_increments[3];  // extra instructions executed per pass
  uint64_t static_sites[3];
  uint64_t hoisted;
};

Sample measure(const wasm::Module& module, const interp::Values& args) {
  Sample s{};
  {
    auto outcome = bench::run_module(module, interp::Platform::Wasm, args);
    s.base_instr = outcome.stats.instructions;
  }
  int pi = 0;
  for (PassKind pass :
       {PassKind::Naive, PassKind::FlowBased, PassKind::LoopBased}) {
    auto result = instrument::instrument(module, InstrumentOptions{pass, {}});
    auto outcome =
        bench::run_module(result.module, interp::Platform::Wasm, args);
    s.dyn_increments[pi] = outcome.stats.instructions - s.base_instr;
    s.static_sites[pi] = result.stats.increments_inserted;
    if (pass == PassKind::LoopBased) s.hoisted = result.stats.loops_hoisted;
    ++pi;
  }
  return s;
}

void print_row(const std::string& name, const Sample& s) {
  auto pct = [&](uint64_t extra) {
    return 100.0 * static_cast<double>(extra) /
           static_cast<double>(s.base_instr);
  };
  std::printf("%-14s %10llu %7.1f%% %7.1f%% %7.1f%% %6llu %6llu %6llu %5llu\n",
              name.c_str(), static_cast<unsigned long long>(s.base_instr),
              pct(s.dyn_increments[0]), pct(s.dyn_increments[1]),
              pct(s.dyn_increments[2]),
              static_cast<unsigned long long>(s.static_sites[0]),
              static_cast<unsigned long long>(s.static_sites[1]),
              static_cast<unsigned long long>(s.static_sites[2]),
              static_cast<unsigned long long>(s.hoisted));
}

// ---- Section 2: superinstruction-fusion ablation ------------------------

struct Lowering {
  const char* label;
  bool fuse;  // superinstruction fusion at lowering time
};

constexpr Lowering kLowerings[] = {
    {"bc-goto", true},
    {"bc-nofuse", false},
};

/// Best-of-`reps` wall time of one invocation of `compiled`.
double time_lowering(const interp::CompiledModulePtr& compiled, int reps,
                     uint64_t* instructions) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    interp::Instance::Options options =
        bench::scaled_options(interp::Platform::Wasm);
    auto t0 = std::chrono::steady_clock::now();
    interp::Instance inst(compiled, {}, options);
    inst.invoke("run", {});
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    best = std::min(best, ns);
    *instructions = inst.stats().instructions;
  }
  return best;
}

void fusion_ablation(bench::JsonReporter& json, bool smoke) {
  std::printf("\nSuperinstruction-fusion ablation: loop-instrumented kernels, "
              "best-of-%d wall ms (lower is better)\n",
              smoke ? 2 : 3);
  std::printf("%-14s", "kernel");
  for (const Lowering& l : kLowerings) std::printf("%11s", l.label);
  std::printf("%11s\n", "fuse-gain");
  std::printf("%s\n", std::string(14 + 11 * 3, '-').c_str());

  const char* const kKernels[] = {"gemm",   "atax",      "bicg",
                                  "mvt",    "jacobi-2d", "seidel-2d"};
  const int reps = smoke ? 2 : 3;
  double logsum_gain = 0;
  int count = 0;
  for (const auto& kernel : workloads::polybench()) {
    if (std::find_if(std::begin(kKernels), std::end(kKernels),
                     [&](const char* k) { return kernel.name == k; }) ==
        std::end(kKernels)) {
      continue;
    }
    uint32_t n = smoke ? std::min<uint32_t>(kernel.bench_n, 16)
                       : kernel.bench_n;
    auto instrumented = instrument::instrument(
        kernel.build(n), InstrumentOptions{PassKind::LoopBased, {}});

    std::printf("%-14s", kernel.name.c_str());
    double fused_ns = 0, nofuse_ns = 0;
    for (const Lowering& l : kLowerings) {
      interp::CompiledModule::CompileOptions copts;
      copts.lower.fuse = l.fuse;
      interp::CompiledModulePtr compiled =
          interp::compile(instrumented.module, copts);
      uint64_t instructions = 0;
      double ns = time_lowering(compiled, reps, &instructions);
      (l.fuse ? fused_ns : nofuse_ns) = ns;
      std::printf("%11.2f", ns / 1e6);
      json.record(kernel.name + "/" + l.label, reps, ns,
                  ns > 0 ? static_cast<double>(instructions) * 1e9 / ns : 0);
    }
    double gain = nofuse_ns / fused_ns;
    std::printf("%10.2fx\n", gain);
    logsum_gain += std::log(gain);
    ++count;
  }
  std::printf("%s\n", std::string(14 + 11 * 3, '-').c_str());
  std::printf("geomean fusion speedup (bc-goto over bc-nofuse): %.2fx\n",
              std::exp(logsum_gain / count));
}

// ---- Section 3: verified middle-end ablation (--opt, DESIGN.md §19) -----

/// Best-of-`reps` wall time of one invocation of `compiled`, plus the final
/// weighted counter (the equality oracle across opt levels).
double time_compiled(const interp::CompiledModulePtr& compiled,
                     const interp::Values& args, uint32_t counter_global,
                     int reps, uint64_t* counter) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    interp::Instance::Options options =
        bench::scaled_options(interp::Platform::Wasm);
    auto t0 = std::chrono::steady_clock::now();
    interp::Instance inst(compiled, {}, options);
    inst.invoke("run", args);
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    best = std::min(best, ns);
    *counter = inst.read_global_index(counter_global).bits;
  }
  return best;
}

/// Flow-instrumented loop-heavy kernels (plus the call-dominated leaf-call
/// bench) timed at every opt level. Flow-based instrumentation leaves the
/// per-iteration increments in the loop bodies, which is exactly the hot
/// cost the fold/coalesce regions fuse into wholesale charges; the counter
/// must nevertheless come out bit-identical at every level. Emits the
/// BENCH_fig6_opt trajectory (per-level timings and the per-pass proof
/// trail); with --check, fails unless the max-level geomean speedup over
/// level 0 reaches 1.10x.
int opt_ablation(bench::JsonReporter& json, bool smoke, bool check) {
  const instrument::WeightTable weights = instrument::WeightTable::unit();
  const instrument::HostChargePolicy host_charge;
  const int reps = smoke ? 2 : 3;
  constexpr uint32_t kMax = analysis::opt::kMaxOptLevel;

  struct Workload {
    std::string name;
    wasm::Module module;
    interp::Values args;
  };
  std::vector<Workload> work;
  const char* const kKernels[] = {"gemm", "atax", "mvt", "jacobi-2d"};
  for (const auto& kernel : workloads::polybench()) {
    if (std::find_if(std::begin(kKernels), std::end(kKernels),
                     [&](const char* k) { return kernel.name == k; }) ==
        std::end(kKernels)) {
      continue;
    }
    uint32_t n =
        smoke ? std::min<uint32_t>(kernel.bench_n, 16) : kernel.bench_n;
    work.push_back({kernel.name, kernel.build(n), {}});
  }
  work.push_back({"leaf_call", workloads::leaf_call_bench(),
                  {interp::TypedValue::make_i32(smoke ? 4 : 32)}});

  std::printf("Verified middle-end ablation: flow-instrumented wall ms per "
              "opt level, best-of-%d (lower is better)\n\n",
              reps);
  std::printf("%-14s", "workload");
  for (uint32_t level = 0; level <= kMax; ++level) {
    std::printf("%9s%u", "L", level);
  }
  std::printf("%11s\n", "Lmax-gain");
  std::printf("%s\n", std::string(14 + 10 * (kMax + 1) + 11, '-').c_str());

  double logsum_gain = 0;
  int count = 0;
  bool counters_equal = true;
  for (Workload& w : work) {
    auto instrumented = instrument::instrument(
        w.module, InstrumentOptions{PassKind::FlowBased, weights});
    interp::CompiledModulePtr baseline =
        interp::compile(instrumented.module);
    std::printf("%-14s", w.name.c_str());
    double l0_ns = 0, lmax_ns = 0;
    uint64_t l0_counter = 0;
    analysis::opt::OptTrail max_trail;
    for (uint32_t level = 0; level <= kMax; ++level) {
      analysis::opt::OptTrail trail;
      interp::CompiledModulePtr compiled = analysis::opt::optimise_compiled(
          baseline, instrumented.counter_global, level, weights, host_charge,
          &trail);
      uint64_t counter = 0;
      double ns = time_compiled(compiled, w.args,
                                instrumented.counter_global, reps, &counter);
      if (level == 0) {
        l0_ns = ns;
        l0_counter = counter;
      } else if (counter != l0_counter) {
        // The transforms must never change what the workload pays.
        std::fprintf(stderr,
                     "FAIL %s: counter diverged at L%u (%llu vs %llu)\n",
                     w.name.c_str(), level,
                     static_cast<unsigned long long>(counter),
                     static_cast<unsigned long long>(l0_counter));
        counters_equal = false;
      }
      if (level == kMax) {
        lmax_ns = ns;
        max_trail = trail;
      }
      std::printf("%10.2f", ns / 1e6);
      json.record(w.name + "/L" + std::to_string(level), reps, ns,
                  ns > 0 ? static_cast<double>(l0_counter) * 1e9 / ns : 0,
                  {{"opt_level", static_cast<double>(level)}});
    }
    double gain = l0_ns / lmax_ns;
    std::printf("%10.2fx\n", gain);
    logsum_gain += std::log(gain);
    ++count;
    // The per-pass evidence trail at max level: what each pass did and the
    // wall cost of its machine-checked counter-equivalence proof.
    // An unchanged output inherits its input's proof: no proof ran.
    for (const analysis::opt::PassReport& pass : max_trail.passes) {
      char proof[32];
      if (pass.proof_inherited) {
        std::snprintf(proof, sizeof proof, "inherited");
      } else {
        std::snprintf(proof, sizeof proof, "%.1f us",
                      static_cast<double>(pass.proof_micros));
      }
      std::printf("  %-16s regions=%-3u elided=%-3u increments %u -> %u  "
                  "proof %s\n",
                  pass.name.c_str(), pass.regions_added, pass.ops_elided,
                  pass.increments_before, pass.increments_after, proof);
      json.record(
          w.name + "/pass/" + pass.name, 1,
          static_cast<double>(pass.proof_micros) * 1e3, 0,
          {{"regions_added", static_cast<double>(pass.regions_added)},
           {"ops_elided", static_cast<double>(pass.ops_elided)},
           {"increments_before", static_cast<double>(pass.increments_before)},
           {"increments_after", static_cast<double>(pass.increments_after)},
           {"proof_inherited", pass.proof_inherited ? 1.0 : 0.0}});
    }
  }
  const double geomean = std::exp(logsum_gain / count);
  std::printf("%s\n", std::string(14 + 10 * (kMax + 1) + 11, '-').c_str());
  std::printf("geomean L%u speedup over L0: %.3fx\n", kMax, geomean);
  if (!counters_equal) return 1;
  if (check && geomean < 1.10) {
    std::fprintf(stderr,
                 "FAIL --check: geomean L%u speedup %.3fx below the 1.10x "
                 "band\n",
                 kMax, geomean);
    return 1;
  }
  return 0;
}

bool flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

}  // namespace

// Usage: ablation_optimisations [--smoke] [--json <path>] [--opt [--check]]
//   --smoke        shrink problem sizes/reps to a CI smoke-test scale
//   --json <path>  machine-readable fusion records (BENCH_fig6_dispatch,
//                  or BENCH_fig6_opt when --opt is given)
//   --opt          run the verified middle-end ablation instead (§19)
//   --check        with --opt: fail unless the Lmax geomean speedup ≥ 1.10x
int main(int argc, char** argv) {
  const bool smoke_early = bench::smoke_requested(argc, argv);
  if (flag(argc, argv, "--opt")) {
    bench::JsonReporter opt_json("fig6_opt", argc, argv);
    int rc =
        opt_ablation(opt_json, smoke_early, flag(argc, argv, "--check"));
    if (!opt_json.write()) rc = 1;
    return rc;
  }
  bench::JsonReporter json("fig6_dispatch", argc, argv);
  const bool smoke = bench::smoke_requested(argc, argv);
  std::printf("Ablation: dynamic instruction overhead (%% of uninstrumented) "
              "and static increment sites per pass\n\n");
  std::printf("%-14s %10s %8s %8s %8s %6s %6s %6s %5s\n", "workload",
              "base", "naive", "flow", "loop", "sN", "sF", "sL", "hoist");
  std::printf("%s\n", std::string(80, '-').c_str());

  for (const auto& kernel : workloads::polybench()) {
    // Smaller sizes: the ablation is about counts, not cache behaviour.
    uint32_t n = kernel.name == "jacobi-1d" ? 4096 : 24;
    print_row(kernel.name, measure(kernel.build(n), {}));
  }
  for (const auto& uc : workloads::usecases()) {
    print_row(uc.name,
              measure(uc.build(), {interp::TypedValue::make_i32(4)}));
  }

  fusion_ablation(json, smoke);
  return json.write() ? 0 : 1;
}
