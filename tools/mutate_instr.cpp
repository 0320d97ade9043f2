// acctee-mutate — mutation harness for the static counter-equivalence
// verifier (analysis/mutate.hpp).
//
//   acctee-mutate <module.wat|module.wasm> --list
//       Enumerates every applicable mutation site of an instrumented
//       module, in deterministic order.
//
//   acctee-mutate <module> --apply N <out.wasm>
//       Applies site N and writes the (still valid) mutant binary.
//
//   acctee-mutate <module> --verify-all [--weights unit|base]
//       Applies every site in turn and runs the static verifier over each
//       mutant: exits 1 if ANY mutant passes (a false accept — every
//       mutation under- or mis-accounts by construction) or if the module
//       offers no sites at all.
//
//   acctee-mutate <module> --lowering-sweep
//       Tampers with the module's lowered internal bytecode instead of its
//       wasm (analysis/mutate.hpp LoweringMutationKind: edited immediates,
//       dropped block/fused-counter charges, retargeted fused branches,
//       under-reserved frames) and
//       runs the AE's verify-then-bind check (DESIGN.md §15) over each
//       mutant stream: exits 1 if ANY tampered lowering binds.
//
//   acctee-mutate <module> --opt-sweep [--opt-level N]
//   acctee-mutate --builtin --opt-sweep [--opt-level N]
//       Runs the verified optimising middle-end (DESIGN.md §19) at level N
//       (default: max), then tampers with the transformed flat form the
//       way a hostile optimiser would (analysis/mutate.hpp
//       OptMutationKind: underpaid region charges, wrong trip-count folds,
//       miscounted inlines, elided live blocks, diverging fast bodies,
//       retargeted guards) and runs the AE's optimisation proof
//       (analysis::opt::check_optimised_flat) over each mutant: exits 1 if
//       ANY mutant is accepted. --builtin sweeps the bundled workload
//       corpus instead of one file.
//
// All modes take [--counter N] to override the counter-global index
// (default: the module's __acctee_counter export).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/mutate.hpp"
#include "analysis/opt/opt.hpp"
#include "analysis/verifier.hpp"
#include "common/error.hpp"
#include "instrument/passes.hpp"
#include "instrument/weights.hpp"
#include "wasm/binary.hpp"
#include "wasm/validator.hpp"
#include "wasm/wat_parser.hpp"
#include "workloads/faas_functions.hpp"
#include "workloads/microbench.hpp"
#include "workloads/polybench.hpp"
#include "workloads/usecases.hpp"

using namespace acctee;

namespace {

const char* const kUsage =
    "usage: acctee-mutate <module> --list [--counter N]\n"
    "       acctee-mutate <module> --apply N <out.wasm> [--counter N]\n"
    "       acctee-mutate <module> --verify-all [--counter N] "
    "[--weights unit|base]\n"
    "       acctee-mutate <module> --lowering-sweep [--counter N]\n"
    "       acctee-mutate <module> --opt-sweep [--opt-level N] [--counter N]\n"
    "       acctee-mutate --builtin --opt-sweep [--opt-level N]\n";

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  return Bytes(s.begin(), s.end());
}

wasm::Module load_module(const std::string& path) {
  Bytes data = read_file(path);
  wasm::Module module;
  if (data.size() >= 4 && data[0] == 0x00 && data[1] == 'a' &&
      data[2] == 's' && data[3] == 'm') {
    module = wasm::decode(data);
  } else {
    module = wasm::parse_wat(std::string(data.begin(), data.end()));
  }
  wasm::validate(module);
  return module;
}

int list_sites(const wasm::Module& module, uint32_t counter) {
  auto sites = analysis::enumerate_mutations(module, counter);
  for (size_t i = 0; i < sites.size(); ++i) {
    std::printf("%4zu  %s\n", i, sites[i].description.c_str());
  }
  std::printf("%zu mutation site(s)\n", sites.size());
  return 0;
}

int apply_site(const wasm::Module& module, uint32_t counter, size_t index,
               const std::string& out_path) {
  auto sites = analysis::enumerate_mutations(module, counter);
  if (index >= sites.size()) {
    throw Error("site index out of range (module has " +
                std::to_string(sites.size()) + " sites)");
  }
  wasm::Module mutant = analysis::apply_mutation(module, counter, index);
  wasm::validate(mutant);
  Bytes binary = wasm::encode(mutant);
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw Error("cannot write " + out_path);
  out.write(reinterpret_cast<const char*>(binary.data()),
            static_cast<std::streamsize>(binary.size()));
  std::printf("applied: %s\nwrote %zu bytes to %s\n",
              sites[index].description.c_str(), binary.size(),
              out_path.c_str());
  return 0;
}

int verify_all(const wasm::Module& module, uint32_t counter,
               const instrument::WeightTable& weights) {
  // The unmutated module must verify — otherwise rejections below would
  // prove nothing about the mutations.
  analysis::VerifyResult baseline =
      analysis::verify_instrumented_module(module, counter, weights);
  if (!baseline.ok) {
    std::printf("baseline module FAILS verification, aborting:\n%s\n",
                baseline.error.c_str());
    return 1;
  }
  auto sites = analysis::enumerate_mutations(module, counter);
  if (sites.empty()) {
    std::printf("no mutation sites — module carries no recognisable "
                "instrumentation\n");
    return 1;
  }
  size_t false_accepts = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    wasm::Module mutant = analysis::apply_mutation(module, counter, i);
    wasm::validate(mutant);  // every mutant must stay executable
    analysis::VerifyResult verdict =
        analysis::verify_instrumented_module(mutant, counter, weights);
    std::printf("%4zu  %-10s %s\n", i,
                verdict.ok ? "ACCEPTED" : "rejected",
                sites[i].description.c_str());
    if (verdict.ok) ++false_accepts;
  }
  if (false_accepts > 0) {
    std::printf("%zu/%zu mutants FALSELY ACCEPTED\n", false_accepts,
                sites.size());
    return 1;
  }
  std::printf("all %zu mutants rejected — zero false accepts\n", sites.size());
  return 0;
}

/// One module through the opt-sweep: run the pipeline, then every mutant of
/// the transformed flat form must be rejected by the AE's optimisation
/// proof + cost-digest check. Returns the number of false accepts, or -1
/// when the module offers no regions/sites to attack.
int opt_sweep_one(const std::string& name, const wasm::Module& module,
                  uint32_t counter, uint32_t opt_level,
                  const instrument::WeightTable& weights) {
  const instrument::HostChargePolicy host_charge;
  interp::CompiledModulePtr compiled = interp::compile(module);
  analysis::opt::PipelineResult pr = analysis::opt::run_pipeline(
      module, compiled->flat(), counter, opt_level, weights, host_charge);
  analysis::opt::OptVerifyResult genuine = analysis::opt::verify_optimised_module(
      module, pr.flat, counter, weights, host_charge);
  if (!genuine.ok) {
    std::printf("%s: genuine transformed module FAILS its own proof, "
                "aborting:\n%s\n",
                name.c_str(), genuine.error.c_str());
    return -1;
  }
  auto sites = analysis::enumerate_opt_mutations(pr.flat);
  if (sites.empty()) {
    std::printf("%s: no opt mutation sites (no regions formed)\n",
                name.c_str());
    return -1;
  }
  int false_accepts = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    auto mutant = analysis::apply_opt_mutation(pr.flat, i);
    const bool accepted = analysis::opt::check_optimised_flat(
        module, mutant, counter, weights, host_charge,
        genuine.cost_vector_digest);
    std::printf("%4zu  %-10s %s\n", i, accepted ? "ACCEPTED" : "rejected",
                sites[i].description.c_str());
    if (accepted) ++false_accepts;
  }
  std::printf("%s: %zu site(s), %d false accept(s)\n", name.c_str(),
              sites.size(), false_accepts);
  return false_accepts;
}

int opt_sweep(const wasm::Module& module, uint32_t counter,
              uint32_t opt_level, const instrument::WeightTable& weights) {
  int r = opt_sweep_one("module", module, counter, opt_level, weights);
  if (r != 0) return 1;
  std::printf("all opt mutants rejected — zero false accepts\n");
  return 0;
}

/// --builtin --opt-sweep: the bundled workload corpus, loop-instrumented,
/// through the pipeline at `opt_level`; every mutant everywhere must be
/// rejected, and at least one workload must offer sites.
int opt_sweep_builtin(uint32_t opt_level,
                      const instrument::WeightTable& weights) {
  std::vector<std::pair<std::string, wasm::Module>> modules;
  for (const workloads::KernelFactory& kernel : workloads::polybench()) {
    modules.emplace_back(kernel.name, kernel.build(6));
  }
  for (const workloads::UseCase& usecase : workloads::usecases()) {
    modules.emplace_back(usecase.name, usecase.build());
  }
  modules.emplace_back("faas_echo", workloads::faas_echo());
  modules.emplace_back("faas_resize", workloads::faas_resize());
  modules.emplace_back("leaf_call", workloads::leaf_call_bench());
  int total_false_accepts = 0;
  size_t swept = 0;
  for (const auto& [name, original] : modules) {
    auto result = instrument::instrument(
        original, {instrument::PassKind::LoopBased, weights});
    int r = opt_sweep_one(name, result.module, result.counter_global,
                          opt_level, weights);
    if (r > 0) total_false_accepts += r;
    if (r >= 0) ++swept;
  }
  {
    // Under LoopBased the leaf_call loop is hoisted and coalescing stands
    // down; the flow-instrumented variant is what exercises the coalesce
    // regions and their inline-miscount mutants.
    auto result =
        instrument::instrument(workloads::leaf_call_bench(),
                               {instrument::PassKind::FlowBased, weights});
    int r = opt_sweep_one("leaf_call/flow", result.module,
                          result.counter_global, opt_level, weights);
    if (r > 0) total_false_accepts += r;
    if (r >= 0) ++swept;
  }
  if (total_false_accepts > 0) {
    std::printf("%d mutant(s) FALSELY ACCEPTED across the corpus\n",
                total_false_accepts);
    return 1;
  }
  if (swept == 0) {
    std::printf("no workload offered any opt mutation sites — sweep proves "
                "nothing\n");
    return 1;
  }
  std::printf("builtin corpus: all opt mutants rejected across %zu "
              "workload(s) — zero false accepts\n",
              swept);
  return 0;
}

int lowering_sweep(const wasm::Module& module) {
  interp::CompiledModulePtr compiled = interp::compile(module);
  // The genuine lowering must bind — otherwise rejections below would
  // prove nothing about the tampering.
  if (auto err = analysis::check_lowering(*compiled)) {
    std::printf("baseline lowering FAILS verify-then-bind, aborting:\n%s\n",
                err->c_str());
    return 1;
  }
  auto sites = analysis::enumerate_lowering_mutations(compiled->lowered());
  if (sites.empty()) {
    std::printf("no lowering mutation sites — module offers nothing to "
                "tamper with\n");
    return 1;
  }
  size_t false_accepts = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    auto mutant = analysis::apply_lowering_mutation(compiled->lowered(), i);
    auto err = analysis::check_lowering(compiled->module(), compiled->flat(),
                                        mutant, compiled->lower_options(),
                                        compiled->lowering_digest());
    std::printf("%4zu  %-10s %s\n", i, err ? "rejected" : "BOUND",
                sites[i].description.c_str());
    if (!err) ++false_accepts;
  }
  if (false_accepts > 0) {
    std::printf("%zu/%zu tampered lowerings FALSELY BOUND\n", false_accepts,
                sites.size());
    return 1;
  }
  std::printf("all %zu tampered lowerings rejected — zero false accepts\n",
              sites.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string path;
    std::string mode;
    std::string out_path;
    size_t apply_index = 0;
    bool builtin = false;
    uint32_t opt_level = analysis::opt::kMaxOptLevel;
    std::optional<uint32_t> counter_flag;
    instrument::WeightTable weights = instrument::WeightTable::unit();
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--list") == 0) {
        mode = "list";
      } else if (std::strcmp(argv[i], "--apply") == 0 && i + 2 < argc) {
        mode = "apply";
        apply_index = std::stoul(argv[++i]);
        out_path = argv[++i];
      } else if (std::strcmp(argv[i], "--verify-all") == 0) {
        mode = "verify-all";
      } else if (std::strcmp(argv[i], "--lowering-sweep") == 0) {
        mode = "lowering-sweep";
      } else if (std::strcmp(argv[i], "--opt-sweep") == 0) {
        mode = "opt-sweep";
      } else if (std::strcmp(argv[i], "--builtin") == 0) {
        builtin = true;
      } else if (std::strcmp(argv[i], "--opt-level") == 0 && i + 1 < argc) {
        opt_level = static_cast<uint32_t>(std::stoul(argv[++i]));
      } else if (std::strcmp(argv[i], "--counter") == 0 && i + 1 < argc) {
        counter_flag = static_cast<uint32_t>(std::stoul(argv[++i]));
      } else if (std::strcmp(argv[i], "--weights") == 0 && i + 1 < argc) {
        std::string s = argv[++i];
        if (s == "unit") {
          weights = instrument::WeightTable::unit();
        } else if (s == "base") {
          weights = instrument::WeightTable::from_base_costs();
        } else {
          throw Error("unknown weight table: " + s);
        }
      } else if (path.empty() && argv[i][0] != '-') {
        path = argv[i];
      } else {
        std::fputs(kUsage, stderr);
        return 2;
      }
    }
    if (mode == "opt-sweep" && builtin) {
      return opt_sweep_builtin(opt_level, weights);
    }
    if (path.empty() || mode.empty()) {
      std::fputs(kUsage, stderr);
      return 2;
    }
    wasm::Module module = load_module(path);
    uint32_t counter;
    if (counter_flag) {
      counter = *counter_flag;
    } else {
      auto exported = module.find_export(instrument::kCounterExport,
                                         wasm::ExternKind::Global);
      if (!exported) {
        throw Error(std::string("module does not export \"") +
                    instrument::kCounterExport +
                    "\" — not an instrumented module (or pass --counter N)");
      }
      counter = *exported;
    }
    if (mode == "list") return list_sites(module, counter);
    if (mode == "apply") return apply_site(module, counter, apply_index, out_path);
    if (mode == "lowering-sweep") return lowering_sweep(module);
    if (mode == "opt-sweep") {
      return opt_sweep(module, counter, opt_level, weights);
    }
    return verify_all(module, counter, weights);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acctee-mutate: %s\n", e.what());
    return 1;
  }
}
