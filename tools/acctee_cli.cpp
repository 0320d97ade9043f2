// acctee — command-line driver for the AccTEE library.
//
//   acctee instrument <in.wat|in.wasm> <out.wasm> [--pass naive|flow|loop]
//       Runs the accounting instrumentation pass and writes the
//       instrumented binary; prints the evidence hashes a deployment would
//       sign.
//
//   acctee run <module.wat|module.wasm> [--entry NAME] [--arg i32:N ...]
//              [--platform native|wasm|sgx-sim|sgx-hw] [--input FILE]
//       Executes an exported function in the sandbox and prints results,
//       execution statistics and (for instrumented modules) the counter.
//
//   acctee inspect <module.wat|module.wasm>
//       Prints module structure and static statistics.
//
//   acctee wat <module.wasm>
//       Disassembles a binary to the text format.
//
//   acctee metrics <module> [--entry NAME] [--arg T:V ...] [--requests N]
//                  [--pass P] [--format prom|json] [--out FILE]
//       Drives the full IE -> AE pipeline (instrument, verify evidence,
//       prepare/cache, execute N times) and scrapes the process metrics
//       registry in Prometheus text format or JSON.
//
//   acctee trace <module> [--entry NAME] [--arg T:V ...] [--requests N]
//                [--pass P] [--json] [--chrome FILE]
//       Same pipeline with span tracing enabled; prints the span tree
//       (instrument -> verify -> compile -> instantiate -> run -> sign)
//       with wall-clock durations, or exports Chrome trace-event JSON.
//
//   acctee verify-instr <module.wat|module.wasm> [--counter N]
//                       [--weights unit|base] [--opt-level N]
//       Runs the accounting enclave's static counter-equivalence verifier
//       (DESIGN.md §14) over an instrumented module: proves that along
//       every control-flow path the counter increments equal the naive
//       weighted cost and that nothing else touches the counter, then
//       prints the recovered per-function cost vector and its digest.
//       Exits 1 with a concrete counterexample path on failure.
//       --opt-level N additionally runs the verified optimising middle-end
//       (DESIGN.md §19) over the flattened form and prints the per-pass
//       report: pass name, blocks and hot increments before -> after,
//       regions added / ops elided, and the time its machine-checked
//       counter-equivalence proof took.
//       With --builtin, sweeps every bundled workload through all three
//       instrumentation passes instead (and, with --opt-level, through the
//       optimisation pipeline at every level up to N).
//
//   acctee audit verify <ledger-file>... [--identity HEX]...
//       Offline replay of saved audit ledgers: checks every log
//       signature, the sequence/prev-hash chain, and each checkpoint's
//       signature + Merkle root against the attested AE identity. With
//       multiple ledgers (one per sharded-gateway worker AE) additionally
//       rejects aliased AE identities across chains (verify_ledger_set).
//
//   acctee audit reconcile <ledger-file>... <metrics.prom> [--tolerance X]
//       Cross-checks the (merged) per-tenant billing totals of one or more
//       ledgers against an untrusted Prometheus metrics scrape.
//
//   acctee audit trace <ledger-file>... [<trace-id-hex>]
//       Resolves a 128-bit request trace id (as bound into payload-v3
//       signed logs by the gateway) to the ledger entries it billed; with
//       the id omitted, lists every distinct trace id in the set. Exits 1
//       when a queried id matches nothing — a forged or never-billed id.
//
//   acctee gap [<module>] [--entry NAME] [--arg T:V ...] [--scale N]
//              [--host-weight N] [--metrics]
//       Billed-vs-true cost-gap report (DESIGN.md §18): runs the
//       adversarial workload suite (or one user module) through the full
//       IE -> AE pipeline with the shadow resource meter attached and
//       prints per-workload, per-dimension billed/true/gap-ratio rows.
//       --host-weight N prices host entries into the counter (evidence v3)
//       to show the host-call gap closing; --metrics additionally feeds
//       the acctee_gap_* metric family and prints the scrape.
//
//   acctee top [--ticks N] [--requests N] [--interval MS]
//       Live observability dashboard: drives request bursts through an
//       in-process sharded billing gateway and renders the SLO/billing-gap
//       watchdog's one-screen view (DESIGN.md §17) after every tick,
//       finishing with a signed-telemetry chain verification.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <chrono>

#include "analysis/opt/opt.hpp"
#include "analysis/verifier.hpp"
#include "audit/ledger.hpp"
#include "audit/reconcile.hpp"
#include "audit/telemetry_check.hpp"
#include "audit/trace_lookup.hpp"
#include "audit/verifier.hpp"
#include "faas/sharded_gateway.hpp"
#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "core/runtime_env.hpp"
#include "instrument/passes.hpp"
#include "interp/instance.hpp"
#include "interp/shadow_meter.hpp"
#include "obs/gap_metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "wasm/binary.hpp"
#include "wasm/validator.hpp"
#include "wasm/wat_parser.hpp"
#include "wasm/wat_printer.hpp"
#include "workloads/adversarial.hpp"
#include "workloads/faas_functions.hpp"
#include "workloads/microbench.hpp"
#include "workloads/polybench.hpp"
#include "workloads/usecases.hpp"

using namespace acctee;

namespace {

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  return Bytes(s.begin(), s.end());
}

void write_file(const std::string& path, BytesView data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

/// Loads either WAT (by extension/content) or a Wasm binary, validated.
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

instrument::PassKind parse_pass(const std::string& s) {
  if (s == "naive") return instrument::PassKind::Naive;
  if (s == "flow") return instrument::PassKind::FlowBased;
  if (s == "loop") return instrument::PassKind::LoopBased;
  throw Error("unknown pass: " + s + " (expected naive|flow|loop)");
}

interp::Platform parse_platform(const std::string& s) {
  if (s == "native") return interp::Platform::Native;
  if (s == "wasm") return interp::Platform::Wasm;
  if (s == "sgx-sim") return interp::Platform::WasmSgxSim;
  if (s == "sgx-hw") return interp::Platform::WasmSgxHw;
  throw Error("unknown platform: " + s);
}

interp::TypedValue parse_arg(const std::string& spec) {
  size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    // Bare integers default to i32.
    return interp::TypedValue::make_i32(
        static_cast<int32_t>(std::stoll(spec)));
  }
  std::string type = spec.substr(0, colon);
  std::string value = spec.substr(colon + 1);
  if (type == "i32") {
    return interp::TypedValue::make_i32(static_cast<int32_t>(std::stoll(value)));
  }
  if (type == "i64") return interp::TypedValue::make_i64(std::stoll(value));
  if (type == "f32") return interp::TypedValue::make_f32(std::stof(value));
  if (type == "f64") return interp::TypedValue::make_f64(std::stod(value));
  throw Error("unknown argument type: " + type);
}

/// Options shared by the pipeline-driving subcommands (metrics, trace).
struct PipelineOptions {
  std::string path;
  std::string entry = "run";
  interp::Values args;
  uint32_t requests = 2;  // >= 2 so prepared-cache hits show up
  instrument::InstrumentOptions instrumentation;
};

PipelineOptions parse_pipeline_options(int argc, char** argv,
                                       const char* usage_line) {
  if (argc < 1) throw Error(usage_line);
  PipelineOptions opts;
  opts.path = argv[0];
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--entry") == 0 && i + 1 < argc) {
      opts.entry = argv[++i];
    } else if (std::strcmp(argv[i], "--arg") == 0 && i + 1 < argc) {
      opts.args.push_back(parse_arg(argv[++i]));
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      opts.requests = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--pass") == 0 && i + 1 < argc) {
      opts.instrumentation.pass = parse_pass(argv[++i]);
    }
    // Other flags belong to the calling subcommand.
  }
  if (opts.requests == 0) opts.requests = 1;
  return opts;
}

/// Full two-enclave pipeline: instrument at a simulated IE host, verify +
/// prepare at a simulated AE, execute `requests` times (repeat requests hit
/// the prepared-module cache). Everything it does lands in the metrics
/// registry and, when tracing is enabled, in the global tracer.
void drive_pipeline(const PipelineOptions& opts) {
  wasm::Module module = load_module(opts.path);
  Bytes binary = wasm::encode(module);

  sgx::Platform ie_host{"cli-ie-host", to_bytes("cli-ie-seed")};
  sgx::Platform cloud{"cli-cloud", to_bytes("cli-cloud-seed")};
  core::InstrumentationEnclave ie(ie_host, opts.instrumentation);
  core::AccountingEnclave::Config config;
  config.trusted_ie_identity = ie.identity();
  config.instrumentation = opts.instrumentation;
  core::AccountingEnclave ae(cloud, config);

  core::InstrumentationEnclave::Output instrumented = [&] {
    auto span = obs::Tracer::global().span("ie.instrument");
    return ie.instrument_binary(binary);
  }();
  for (uint32_t r = 0; r < opts.requests; ++r) {
    ae.execute(instrumented.instrumented_binary, instrumented.evidence,
               opts.entry, opts.args);
  }
}

int cmd_metrics(int argc, char** argv) {
  PipelineOptions opts = parse_pipeline_options(
      argc, argv, "usage: acctee metrics <module> [options]");
  std::string format = "prom";
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--format") == 0 && i + 1 < argc) {
      format = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (format != "prom" && format != "json") {
    throw Error("unknown format: " + format + " (expected prom|json)");
  }
  drive_pipeline(opts);
  std::string scrape = format == "json" ? obs::Registry::global().json()
                                        : obs::Registry::global().prometheus();
  if (out_path.empty()) {
    std::fputs(scrape.c_str(), stdout);
  } else {
    write_file(out_path, to_bytes(scrape));
    std::printf("wrote %zu bytes to %s\n", scrape.size(), out_path.c_str());
  }
  return 0;
}

int cmd_trace(int argc, char** argv) {
  PipelineOptions opts = parse_pipeline_options(
      argc, argv, "usage: acctee trace <module> [options]");
  bool json = false;
  std::string chrome_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--chrome") == 0 && i + 1 < argc) {
      chrome_path = argv[++i];
    }
  }
  obs::Tracer::global().enable(true);
  drive_pipeline(opts);
  obs::Tracer::global().enable(false);
  if (!chrome_path.empty()) {
    std::string rendered = obs::Tracer::global().render_chrome_json();
    write_file(chrome_path, to_bytes(rendered));
    std::printf("wrote %zu bytes to %s (open in chrome://tracing)\n",
                rendered.size(), chrome_path.c_str());
    return 0;
  }
  std::string rendered = json ? obs::Tracer::global().render_json()
                              : obs::Tracer::global().render_text();
  std::fputs(rendered.c_str(), stdout);
  return 0;
}

int cmd_instrument(int argc, char** argv) {
  if (argc < 2) throw Error("usage: acctee instrument <in> <out> [--pass P]");
  std::string in_path = argv[0];
  std::string out_path = argv[1];
  instrument::InstrumentOptions options;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pass") == 0 && i + 1 < argc) {
      options.pass = parse_pass(argv[++i]);
    }
  }
  wasm::Module module = load_module(in_path);
  Bytes input_binary = wasm::encode(module);
  auto result = instrument::instrument(module, options);
  Bytes output_binary = wasm::encode(result.module);
  write_file(out_path, output_binary);
  std::printf("pass:            %s\n", to_string(options.pass));
  std::printf("input:           %zu bytes, sha256 %s\n", input_binary.size(),
              crypto::digest_hex(crypto::sha256(input_binary)).c_str());
  std::printf("output:          %zu bytes, sha256 %s\n", output_binary.size(),
              crypto::digest_hex(crypto::sha256(output_binary)).c_str());
  std::printf("weights:         sha256 %s\n",
              crypto::digest_hex(options.weights.hash()).c_str());
  std::printf("counter global:  #%u (exported as %s)\n", result.counter_global,
              instrument::kCounterExport);
  std::printf("increment sites: %llu (%llu loops hoisted)\n",
              static_cast<unsigned long long>(result.stats.increments_inserted),
              static_cast<unsigned long long>(result.stats.loops_hoisted));
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 1) throw Error("usage: acctee run <module> [options]");
  std::string path = argv[0];
  std::string entry = "run";
  interp::Values args;
  interp::Instance::Options options;
  core::IoChannel channel;
  bool profile = false;
  bool folded = false;
  uint32_t sample_interval = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--entry") == 0 && i + 1 < argc) {
      entry = argv[++i];
    } else if (std::strcmp(argv[i], "--arg") == 0 && i + 1 < argc) {
      args.push_back(parse_arg(argv[++i]));
    } else if (std::strcmp(argv[i], "--platform") == 0 && i + 1 < argc) {
      options.platform = parse_platform(argv[++i]);
    } else if (std::strcmp(argv[i], "--input") == 0 && i + 1 < argc) {
      channel.input = read_file(argv[++i]);
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--folded") == 0) {
      profile = true;
      folded = true;
    } else if (std::strcmp(argv[i], "--sample-interval") == 0 &&
               i + 1 < argc) {
      sample_interval = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else {
      throw Error(std::string("unknown option: ") + argv[i]);
    }
  }
  obs::FuncProfiler profiler(sample_interval);
  if (profile) options.profiler = &profiler;
  wasm::Module module = load_module(path);
  bool instrumented = module
                          .find_export(instrument::kCounterExport,
                                       wasm::ExternKind::Global)
                          .has_value();
  // Frame labels for folded profile output, indexed by defined-function
  // index: prefer the function's own (WAT) name, else its export name.
  std::vector<std::string> func_names(module.functions.size());
  for (size_t f = 0; f < module.functions.size(); ++f) {
    func_names[f] = module.functions[f].name;
  }
  for (const auto& e : module.exports) {
    if (e.kind != wasm::ExternKind::Func) continue;
    if (e.index < module.imports.size()) continue;
    size_t defined = e.index - module.imports.size();
    if (defined < func_names.size() && func_names[defined].empty()) {
      func_names[defined] = e.name;
    }
  }
  interp::Instance instance(std::move(module),
                            core::make_runtime_env(&channel), options);
  interp::Values results = instance.invoke(entry, args);
  // With --folded, stdout carries only collapsed-stack lines (pipeable to
  // flamegraph.pl / inferno); the run summary moves to stderr.
  std::FILE* info = folded ? stderr : stdout;
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(info, "result[%zu] = %s (%s)\n", i,
                 results[i].to_string().c_str(),
                 wasm::to_string(results[i].type));
  }
  const interp::ExecStats& stats = instance.stats();
  std::fprintf(info, "instructions:    %llu\n",
               static_cast<unsigned long long>(stats.instructions));
  std::fprintf(info, "cycles:          %llu (simulated, %s)\n",
               static_cast<unsigned long long>(stats.cycles),
               to_string(options.platform));
  std::fprintf(info, "peak memory:     %llu bytes\n",
               static_cast<unsigned long long>(stats.peak_memory_bytes));
  std::fprintf(info, "io in/out:       %llu / %llu bytes\n",
               static_cast<unsigned long long>(stats.io_bytes_in),
               static_cast<unsigned long long>(stats.io_bytes_out));
  if (instrumented) {
    std::fprintf(info, "counter:         %lld weighted instructions\n",
                 static_cast<long long>(
                     instance.read_global(instrument::kCounterExport).i64()));
  }
  if (!channel.output.empty()) {
    std::fprintf(info, "output:          %zu bytes written by workload\n",
                 channel.output.size());
  }
  if (folded) {
    std::fputs(profiler.to_folded(&func_names).c_str(), stdout);
  } else if (profile) {
    std::printf("profile (sample interval %u):\n", profiler.sample_interval());
    std::printf("  %-6s %-24s %12s %14s %14s\n", "func", "name", "samples",
                "instructions", "cycles");
    const auto& entries = profiler.entries();
    for (size_t f = 0; f < entries.size(); ++f) {
      const auto& e = entries[f];
      if (e.samples == 0) continue;
      // Symbolized: profiler frame indices are defined-function indices
      // (lowering preserves them), so the module's own names apply.
      const std::string name =
          f < func_names.size() && !func_names[f].empty()
              ? func_names[f]
              : "func#" + std::to_string(f);
      std::printf("  %-6zu %-24s %12llu %14llu %14llu\n", f, name.c_str(),
                  static_cast<unsigned long long>(e.samples),
                  static_cast<unsigned long long>(e.instructions),
                  static_cast<unsigned long long>(e.cycles));
    }
  }
  return 0;
}

instrument::WeightTable parse_weights(const std::string& s) {
  if (s == "unit") return instrument::WeightTable::unit();
  if (s == "base") return instrument::WeightTable::from_base_costs();
  throw Error("unknown weight table: " + s + " (expected unit|base)");
}

/// --opt-level: runs the verified middle-end over an already-verified
/// compiled module and prints the per-pass report. Returns 0 on PASS.
int verify_opt_pipeline(const interp::CompiledModulePtr& compiled,
                        uint32_t counter_global,
                        const instrument::WeightTable& weights,
                        uint32_t opt_level) {
  analysis::opt::PipelineResult pr;
  try {
    pr = analysis::opt::run_pipeline(compiled->module(), compiled->flat(),
                                     counter_global, opt_level, weights, {});
  } catch (const Error& e) {
    std::printf("FAIL: optimisation pipeline: %s\n", e.what());
    return 1;
  }
  std::printf("optimisation pipeline (level %u):\n", pr.trail.opt_level);
  std::printf("  %-16s %14s %16s %8s %7s %10s\n", "pass", "blocks",
              "increments", "regions", "elided", "proof");
  for (const analysis::opt::PassReport& p : pr.trail.passes) {
    // An unchanged output inherits its input's proof: no proof ran.
    char proof[32];
    if (p.proof_inherited) {
      std::snprintf(proof, sizeof proof, "inherited");
    } else {
      std::snprintf(proof, sizeof proof, "%.2f ms",
                    static_cast<double>(p.proof_micros) / 1000.0);
    }
    std::printf("  %-16s %6u -> %-6u %7u -> %-6u %8u %7u %10s\n",
                p.name.c_str(), p.blocks_before, p.blocks_after,
                p.increments_before, p.increments_after, p.regions_added,
                p.ops_elided, proof);
  }
  if (pr.baseline_proof_micros != 0) {
    std::printf("  baseline proof %.2f ms, inherited by unchanged passes\n",
                static_cast<double>(pr.baseline_proof_micros) / 1000.0);
  }
  if (pr.trail.passes.empty()) {
    std::printf("  (level %u enables no passes)\n", pr.trail.opt_level);
  } else {
    std::printf("transformed cost digest: %s\n",
                crypto::digest_hex(pr.trail.passes.back().cost_vector_digest)
                    .c_str());
  }
  // Bind the lowering of the transformed form too (the interpreter would
  // execute it).
  interp::CompiledModule::CompileOptions copts;
  copts.lower = compiled->lower_options();
  interp::CompiledModule optimised(compiled->module(), std::move(pr.flat),
                                   copts, compiled->validated());
  if (auto err = analysis::check_lowering(optimised)) {
    std::printf("FAIL: optimised lowering binding: %s\n", err->c_str());
    return 1;
  }
  std::printf("optimised lowering digest: %s\n",
              crypto::digest_hex(optimised.lowering_digest()).c_str());
  return 0;
}

/// Runs the static verifier over one instrumented module and prints the
/// report. Returns 0 on PASS, 1 with the counterexample on FAIL.
int verify_one(const wasm::Module& module, uint32_t counter_global,
               const instrument::WeightTable& weights, uint32_t opt_level) {
  auto started = std::chrono::steady_clock::now();
  analysis::VerifyResult verdict =
      analysis::verify_instrumented_module(module, counter_global, weights);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - started)
                  .count();
  if (!verdict.ok) {
    std::printf("FAIL (%.2f ms)\n%s\n", ms, verdict.error.c_str());
    return 1;
  }
  std::printf("  %-6s %-24s %8s %11s %8s %8s %14s\n", "func", "name", "blocks",
              "increments", "hoisted", "folded", "cost");
  for (const analysis::FunctionReport& f : verdict.functions) {
    std::printf("  %-6u %-24s %8u %11u %8u %8u %14llu\n", f.index,
                f.name.empty() ? "-" : f.name.c_str(), f.blocks, f.increments,
                f.hoisted_loops, f.folded_loops,
                static_cast<unsigned long long>(f.recovered_cost));
  }
  std::printf("cost vector digest: %s\n",
              crypto::digest_hex(verdict.cost_vector_digest).c_str());
  // Verify-then-bind (DESIGN.md §15): the proof above covers the flattened
  // code; bind the lowered bytecode the interpreter runs to it.
  interp::CompiledModulePtr compiled = interp::compile(module);
  if (auto err = analysis::check_lowering(*compiled)) {
    std::printf("FAIL: lowering binding: %s\n", err->c_str());
    return 1;
  }
  std::printf("lowering digest:    %s (bytecode bound to verified form)\n",
              crypto::digest_hex(compiled->lowering_digest()).c_str());
  if (opt_level > 0 &&
      verify_opt_pipeline(compiled, counter_global, weights, opt_level) != 0) {
    return 1;
  }
  std::printf("PASS (%.2f ms): counter increments are equivalent to naive "
              "weighted accounting on every path\n",
              ms);
  return 0;
}

/// --builtin: every bundled workload through all three passes, and through
/// the verified middle-end at every level up to `max_opt_level`.
int verify_builtin_sweep(const instrument::WeightTable& weights,
                         uint32_t max_opt_level) {
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

  const instrument::PassKind passes[] = {instrument::PassKind::Naive,
                                         instrument::PassKind::FlowBased,
                                         instrument::PassKind::LoopBased};
  int failures = 0;
  for (const auto& [name, original] : modules) {
    std::vector<uint64_t> expected =
        analysis::naive_cost_vector(original, weights);
    for (instrument::PassKind pass : passes) {
      auto result =
          instrument::instrument(original, {pass, weights});
      analysis::VerifyResult verdict = analysis::verify_instrumented_module(
          result.module, result.counter_global, weights);
      bool ok = verdict.ok && verdict.cost_vector == expected;
      std::string detail;
      if (ok) {
        if (auto bind_err =
                analysis::check_lowering(*interp::compile(result.module))) {
          ok = false;
          detail = "lowering: " + *bind_err;
        }
      } else {
        detail = verdict.ok ? "recovered cost vector mismatch" : verdict.error;
      }
      // The verified middle-end at every level: each pass proves its own
      // counter equivalence inside run_pipeline (fail-closed), the
      // transformed module must still verify end-to-end, and its lowering
      // must bind.
      std::string opt_summary;
      for (uint32_t level = 1; ok && level <= max_opt_level; ++level) {
        try {
          interp::CompiledModulePtr compiled = interp::compile(result.module);
          interp::CompiledModulePtr optimised =
              analysis::opt::optimise_compiled(compiled,
                                               result.counter_global, level,
                                               weights, {});
          analysis::opt::OptVerifyResult v =
              analysis::opt::verify_optimised_module(
                  optimised->module(), optimised->flat(),
                  result.counter_global, weights, {});
          if (!v.ok) {
            ok = false;
            detail = "opt level " + std::to_string(level) + ": " + v.error;
            break;
          }
          if (auto bind_err = analysis::check_lowering(*optimised)) {
            ok = false;
            detail = "opt level " + std::to_string(level) +
                     " lowering: " + *bind_err;
            break;
          }
          opt_summary += " L" + std::to_string(level) + ":" +
                         std::to_string(v.regions) + "r";
        } catch (const Error& e) {
          ok = false;
          detail = "opt level " + std::to_string(level) + ": " + e.what();
          break;
        }
      }
      std::printf("  %-14s %-6s %s%s\n", name.c_str(), to_string(pass),
                  ok ? "PASS" : ("FAIL (" + detail + ")").c_str(),
                  ok ? opt_summary.c_str() : "");
      if (!ok) ++failures;
    }
  }
  if (failures > 0) {
    std::printf("%d combination(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all %zu workloads x %zu passes verified (opt levels 0..%u)\n",
              modules.size(), std::size(passes), max_opt_level);
  return 0;
}

int cmd_verify_instr(int argc, char** argv) {
  const char* usage_line =
      "usage: acctee verify-instr <module> [--counter N] [--weights unit|base]"
      " [--opt-level N]\n"
      "       acctee verify-instr --builtin [--weights unit|base]"
      " [--opt-level N]";
  std::string path;
  bool builtin = false;
  std::optional<uint32_t> counter_flag;
  std::optional<uint32_t> opt_level_flag;
  instrument::WeightTable weights = instrument::WeightTable::unit();
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--builtin") == 0) {
      builtin = true;
    } else if (std::strcmp(argv[i], "--counter") == 0 && i + 1 < argc) {
      counter_flag = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--weights") == 0 && i + 1 < argc) {
      weights = parse_weights(argv[++i]);
    } else if (std::strcmp(argv[i], "--opt-level") == 0 && i + 1 < argc) {
      opt_level_flag = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (path.empty() && argv[i][0] != '-') {
      path = argv[i];
    } else {
      throw Error(usage_line);
    }
  }
  if (builtin) {
    // The builtin sweep exercises every level up to the cap by default —
    // CI's acceptance gate that every bundled workload verifies at every
    // optimisation level.
    return verify_builtin_sweep(
        weights, opt_level_flag.value_or(analysis::opt::kMaxOptLevel));
  }
  if (path.empty()) throw Error(usage_line);
  wasm::Module module = load_module(path);
  uint32_t counter_global;
  if (counter_flag) {
    counter_global = *counter_flag;
  } else {
    auto exported = module.find_export(instrument::kCounterExport,
                                       wasm::ExternKind::Global);
    if (!exported) {
      throw Error(std::string("module does not export \"") +
                  instrument::kCounterExport +
                  "\" — not an instrumented module (or pass --counter N)");
    }
    counter_global = *exported;
  }
  return verify_one(module, counter_global, weights,
                    opt_level_flag.value_or(0));
}

crypto::Digest parse_digest_hex(const std::string& hex) {
  crypto::Digest digest{};
  if (hex.size() != digest.size() * 2) {
    throw Error("identity must be " + std::to_string(digest.size() * 2) +
                " hex characters");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw Error("bad hex character in identity");
  };
  for (size_t i = 0; i < digest.size(); ++i) {
    digest[i] = static_cast<uint8_t>(nibble(hex[2 * i]) << 4 |
                                     nibble(hex[2 * i + 1]));
  }
  return digest;
}

int cmd_audit(int argc, char** argv) {
  const char* usage_line =
      "usage: acctee audit verify <ledger>... [--identity HEX]...\n"
      "       acctee audit reconcile <ledger>... <metrics.prom> "
      "[--tolerance X]\n"
      "       acctee audit trace <ledger>... [<trace-id-hex>]";
  if (argc < 2) throw Error(usage_line);
  std::string verb = argv[0];
  if (verb == "verify") {
    // Any number of ledgers (the sharded gateway saves one per worker AE).
    // An auditor who attested the AEs pins identities with one --identity
    // per ledger, in ledger order; otherwise the identities recorded in the
    // files are used.
    std::vector<audit::Ledger> ledgers;
    std::vector<crypto::Digest> identities;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--identity") == 0 && i + 1 < argc) {
        identities.push_back(parse_digest_hex(argv[++i]));
      } else {
        ledgers.push_back(audit::Ledger::load(argv[i]));
      }
    }
    if (ledgers.empty()) throw Error(usage_line);
    if (!identities.empty() && identities.size() != ledgers.size()) {
      throw Error("pass one --identity per ledger (got " +
                  std::to_string(identities.size()) + " for " +
                  std::to_string(ledgers.size()) + " ledgers)");
    }
    if (ledgers.size() == 1) {
      crypto::Digest identity =
          identities.empty() ? ledgers[0].ae_identity() : identities[0];
      audit::VerifyReport report = audit::verify_ledger(ledgers[0], identity);
      std::fputs(report.to_string().c_str(), stdout);
      return report.ok ? 0 : 1;
    }
    std::vector<const audit::Ledger*> set;
    for (const audit::Ledger& ledger : ledgers) set.push_back(&ledger);
    audit::LedgerSetReport report = audit::verify_ledger_set(set, identities);
    std::fputs(report.to_string().c_str(), stdout);
    return report.ok ? 0 : 1;
  }
  if (verb == "reconcile") {
    // Every path before the scrape is a ledger; their final-log totals are
    // merged deterministically before the comparison.
    if (argc < 3) throw Error(usage_line);
    double tolerance = 0.0;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
        tolerance = std::stod(argv[++i]);
      } else {
        paths.push_back(argv[i]);
      }
    }
    if (paths.size() < 2) throw Error(usage_line);
    Bytes scrape = read_file(paths.back());
    paths.pop_back();
    std::vector<audit::Ledger> ledgers;
    ledgers.reserve(paths.size());
    for (const std::string& path : paths) {
      ledgers.push_back(audit::Ledger::load(path));
    }
    std::vector<const audit::Ledger*> set;
    for (const audit::Ledger& ledger : ledgers) set.push_back(&ledger);
    audit::ReconcileReport report = audit::reconcile_set(
        set, std::string(scrape.begin(), scrape.end()), tolerance);
    std::fputs(report.to_string().c_str(), stdout);
    return report.ok ? 0 : 1;
  }
  if (verb == "trace") {
    // One argument may be a 32-hex-digit trace id; everything else is a
    // ledger path. With no id, list the distinct ids in the set so tooling
    // (and the CI replay) can pick a real one to resolve.
    std::vector<std::string> paths;
    bool have_id = false;
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    for (int i = 1; i < argc; ++i) {
      uint64_t hi;
      uint64_t lo;
      if (!have_id && obs::parse_trace_id_hex(argv[i], &hi, &lo)) {
        have_id = true;
        trace_hi = hi;
        trace_lo = lo;
      } else {
        paths.push_back(argv[i]);
      }
    }
    if (paths.empty()) throw Error(usage_line);
    std::vector<audit::Ledger> ledgers;
    ledgers.reserve(paths.size());
    for (const std::string& path : paths) {
      ledgers.push_back(audit::Ledger::load(path));
    }
    std::vector<const audit::Ledger*> set;
    for (const audit::Ledger& ledger : ledgers) set.push_back(&ledger);
    if (!have_id) {
      auto ids = audit::distinct_trace_ids(set);
      std::printf("%zu distinct trace id(s) across %zu ledger(s)\n",
                  ids.size(), set.size());
      for (const auto& [hi, lo] : ids) {
        std::printf("  %s\n", obs::trace_id_hex(hi, lo).c_str());
      }
      return 0;
    }
    std::vector<audit::TraceMatch> matches =
        audit::find_by_trace(set, trace_hi, trace_lo);
    if (matches.empty()) {
      std::printf("trace %s: no ledger entries (forged or never billed)\n",
                  obs::trace_id_hex(trace_hi, trace_lo).c_str());
      return 1;
    }
    std::fputs(audit::render_trace_matches(matches).c_str(), stdout);
    return 0;
  }
  throw Error(usage_line);
}

/// `acctee gap`: billed-vs-true cost-gap report (DESIGN.md §18). Runs the
/// adversarial suite (or one user module) through IE -> AE with the shadow
/// resource meter attached and prints the per-dimension gap table.
int cmd_gap(int argc, char** argv) {
  const char* usage_line =
      "usage: acctee gap [<module>] [--entry NAME] [--arg T:V ...]\n"
      "       [--scale N] [--host-weight N] [--metrics]";
  std::string path;
  std::string entry = "run";
  interp::Values args;
  uint32_t scale = 1;
  uint64_t host_weight = 0;
  bool metrics = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--entry") == 0 && i + 1 < argc) {
      entry = argv[++i];
    } else if (std::strcmp(argv[i], "--arg") == 0 && i + 1 < argc) {
      args.push_back(parse_arg(argv[++i]));
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--host-weight") == 0 && i + 1 < argc) {
      host_weight = std::stoull(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (path.empty() && argv[i][0] != '-') {
      path = argv[i];
    } else {
      throw Error(usage_line);
    }
  }
  instrument::InstrumentOptions options;
  options.pass = instrument::PassKind::LoopBased;
  options.host_call_weight = host_weight;

  sgx::Platform ie_host{"gap-ie-host", to_bytes("gap-ie-seed")};
  sgx::Platform cloud{"gap-cloud", to_bytes("gap-cloud-seed")};
  core::InstrumentationEnclave ie(ie_host, options);
  core::AccountingEnclave::Config config;
  config.trusted_ie_identity = ie.identity();
  config.instrumentation = options;
  config.platform = interp::Platform::WasmSgxSim;
  config.shadow_meter = true;
  core::AccountingEnclave ae(cloud, config);

  std::vector<workloads::AdversarialCase> cases;
  if (path.empty()) {
    cases = workloads::adversarial_suite(scale);
  } else {
    cases.push_back({path, load_module(path), {}});
  }

  obs::GapMetrics gap_metrics(obs::Registry::global());
  std::printf("%-18s %-15s %14s %14s %10s\n", "workload", "dimension",
              "billed", "true", "ratio");
  for (const workloads::AdversarialCase& c : cases) {
    Bytes binary = wasm::encode(c.module);
    auto deployed = ie.instrument_binary(binary);
    core::AccountingEnclave::Outcome outcome = ae.execute(
        deployed.instrumented_binary, deployed.evidence, entry, args, c.input);
    if (!outcome.gap.has_value()) {
      std::fprintf(stderr, "acctee gap: %s produced no gap profile\n",
                   c.name.c_str());
      return 1;
    }
    const interp::GapProfile& gap = *outcome.gap;
    const interp::GapDimension* dims[] = {&gap.cycles, &gap.host_cycles,
                                          &gap.cache_cycles,
                                          &gap.mem_grow_bytes, &gap.io_bytes};
    for (size_t d = 0; d < std::size(dims); ++d) {
      std::printf("%-18s %-15s %14llu %14llu %10.2f\n", c.name.c_str(),
                  interp::kGapDimensions[d],
                  static_cast<unsigned long long>(dims[d]->billed),
                  static_cast<unsigned long long>(dims[d]->true_cost),
                  dims[d]->gap_ratio());
    }
    if (metrics) interp::record_gap_profile(gap_metrics, c.name, gap);
  }
  if (metrics) {
    std::fputs("\n", stdout);
    std::fputs(obs::Registry::global().prometheus().c_str(), stdout);
  }
  return 0;
}

/// `acctee top`: in-process demo loop for the SLO/billing-gap watchdog.
/// Each tick pushes a burst of multi-tenant requests through a sharded
/// billing gateway (real AEs, real ledgers), evaluates the watchdog rules,
/// and renders the one-screen dashboard; the run ends by verifying the
/// attested telemetry chains every tick extended.
int cmd_top(int argc, char** argv) {
  const char* usage_line =
      "usage: acctee top [--ticks N] [--requests N] [--interval MS]";
  uint32_t ticks = 5;
  uint32_t requests_per_tick = 32;
  uint32_t interval_ms = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ticks") == 0 && i + 1 < argc) {
      ticks = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests_per_tick = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_ms = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else {
      throw Error(usage_line);
    }
  }
  if (ticks == 0) ticks = 1;
  if (requests_per_tick == 0) requests_per_tick = 1;

  auto opts = instrument::InstrumentOptions{instrument::PassKind::LoopBased,
                                            instrument::WeightTable::unit()};
  sgx::Platform ie_host{"top-ie-host", to_bytes("top-ie-seed")};
  core::InstrumentationEnclave ie(ie_host, opts);
  core::AccountingEnclave::Config ae_config;
  ae_config.trusted_ie_identity = ie.identity();
  ae_config.instrumentation = opts;
  auto instrumented = ie.instrument_binary(wasm::encode(workloads::faas_echo()));

  faas::ShardedGatewayConfig config;
  config.base.setup = faas::Setup::WasmSgxHwInstr;
  config.shards = 2;
  config.workers_per_shard = 1;
  faas::ShardedGateway gateway(workloads::faas_echo(), "run", config);
  gateway.deploy_billing("top-cloud", to_bytes("top-cloud-seed"), ae_config,
                         instrumented.instrumented_binary,
                         instrumented.evidence,
                         /*ledger_checkpoint_every=*/8);

  // Head-sample 1% of requests so latency-histogram exemplars appear in a
  // scrape of this process without measurably perturbing the hot path.
  obs::Tracer::global().set_sampling_per_myriad(100);
  obs::Tracer::global().enable(true);

  // Billing-gap probe: the online analogue of `acctee audit reconcile`,
  // comparing the registry's billing counters against the gateway's own
  // signed per-AE ledgers between bursts.
  obs::BillingGapProbe probe = [&gateway]() {
    obs::BillingGapReport report;
    report.checked = true;
    audit::ReconcileReport rec = audit::reconcile_set(
        gateway.ledgers(), obs::Registry::global().prometheus(), 0.0);
    report.consistent = rec.ok;
    if (!rec.ok) report.detail = rec.to_string();
    return report;
  };
  obs::Watchdog watchdog(obs::Registry::global(), obs::WatchdogConfig{},
                         std::move(probe));

  std::vector<std::vector<core::SignedTelemetrySnapshot>> chains;
  for (uint32_t tick = 0; tick < ticks; ++tick) {
    std::vector<faas::Request> requests;
    requests.reserve(requests_per_tick);
    for (uint32_t r = 0; r < requests_per_tick; ++r) {
      requests.push_back(
          faas::Request{"tenant-" + std::to_string(r % 8),
                        workloads::make_test_image(32, tick + r)});
    }
    gateway.run_scenario(requests);
    std::vector<core::SignedTelemetrySnapshot> snapshots =
        gateway.sign_telemetry_snapshots();
    chains.resize(snapshots.size());
    for (size_t i = 0; i < snapshots.size(); ++i) {
      chains[i].push_back(std::move(snapshots[i]));
    }
    watchdog.evaluate_once();
    std::fputs(watchdog.render_dashboard().c_str(), stdout);
    std::fputs("\n", stdout);
    std::fflush(stdout);
    if (interval_ms > 0 && tick + 1 < ticks) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  obs::Tracer::global().enable(false);

  // The per-AE telemetry chains the loop accumulated must verify against
  // the AE identities and agree with the signed ledgers.
  std::vector<crypto::Digest> identities = gateway.ae_identities();
  std::vector<const audit::Ledger*> ledgers = gateway.ledgers();
  bool telemetry_ok = chains.size() == identities.size();
  for (size_t i = 0; telemetry_ok && i < chains.size(); ++i) {
    audit::TelemetryVerifyReport report =
        audit::verify_telemetry_against_ledgers(chains[i], identities[i],
                                                ledgers);
    if (!report.ok) {
      std::fputs(report.to_string().c_str(), stderr);
      telemetry_ok = false;
    }
  }
  std::printf("signed telemetry: %zu chain(s) x %u snapshot(s) -> %s\n",
              chains.size(), ticks,
              telemetry_ok ? "verified against ledgers" : "BROKEN");
  return telemetry_ok ? 0 : 1;
}

int cmd_inspect(int argc, char** argv) {
  if (argc < 1) throw Error("usage: acctee inspect <module>");
  wasm::Module module = load_module(argv[0]);
  std::printf("types:      %zu\n", module.types.size());
  std::printf("imports:    %zu\n", module.imports.size());
  for (const auto& imp : module.imports) {
    std::printf("  %s.%s : %s\n", imp.module.c_str(), imp.name.c_str(),
                module.types[imp.type_index].to_string().c_str());
  }
  std::printf("functions:  %zu\n", module.functions.size());
  std::printf("globals:    %zu\n", module.globals.size());
  std::printf("exports:    %zu\n", module.exports.size());
  for (const auto& e : module.exports) {
    std::printf("  \"%s\"\n", e.name.c_str());
  }
  if (module.memory) {
    std::printf("memory:     %u..%s pages\n", module.memory->min,
                module.memory->max ? std::to_string(*module.memory->max).c_str()
                                   : "unbounded");
  }
  std::printf("static instructions: %llu\n",
              static_cast<unsigned long long>(wasm::count_instructions(module)));
  std::printf("binary size: %zu bytes\n", wasm::encode(module).size());
  // Top opcodes.
  auto hist = wasm::opcode_histogram(module);
  std::vector<std::pair<uint64_t, size_t>> top;
  for (size_t i = 0; i < hist.size(); ++i) {
    if (hist[i] > 0) top.emplace_back(hist[i], i);
  }
  std::sort(top.rbegin(), top.rend());
  std::printf("top opcodes:\n");
  for (size_t i = 0; i < std::min<size_t>(top.size(), 8); ++i) {
    std::printf("  %-20s %llu\n",
                std::string(wasm::op_info(static_cast<wasm::Op>(top[i].second))
                                .name)
                    .c_str(),
                static_cast<unsigned long long>(top[i].first));
  }
  return 0;
}

int cmd_wat(int argc, char** argv) {
  if (argc < 1) throw Error("usage: acctee wat <module.wasm>");
  wasm::Module module = load_module(argv[0]);
  std::fputs(wasm::print_wat(module).c_str(), stdout);
  return 0;
}

void usage() {
  std::fputs(
      "acctee — trusted resource accounting for WebAssembly\n"
      "usage:\n"
      "  acctee instrument <in> <out.wasm> [--pass naive|flow|loop]\n"
      "  acctee run <module> [--entry NAME] [--arg TYPE:VALUE ...]\n"
      "             [--platform native|wasm|sgx-sim|sgx-hw] [--input FILE]\n"
      "             [--profile] [--folded] [--sample-interval N]\n"
      "  acctee metrics <module> [--entry NAME] [--arg TYPE:VALUE ...]\n"
      "             [--requests N] [--pass P] [--format prom|json]\n"
      "             [--out FILE]\n"
      "  acctee trace <module> [--entry NAME] [--arg TYPE:VALUE ...]\n"
      "             [--requests N] [--pass P] [--json] [--chrome FILE]\n"
      "  acctee verify-instr <module> [--counter N] [--weights unit|base]\n"
      "  acctee verify-instr --builtin [--weights unit|base]\n"
      "  acctee audit verify <ledger>... [--identity HEX]...\n"
      "  acctee audit reconcile <ledger>... <metrics.prom> [--tolerance X]\n"
      "  acctee audit trace <ledger>... [<trace-id-hex>]\n"
      "  acctee gap [<module>] [--entry NAME] [--arg TYPE:VALUE ...]\n"
      "             [--scale N] [--host-weight N] [--metrics]\n"
      "  acctee top [--ticks N] [--requests N] [--interval MS]\n"
      "  acctee inspect <module>\n"
      "  acctee wat <module.wasm>\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  try {
    std::string cmd = argv[1];
    if (cmd == "instrument") return cmd_instrument(argc - 2, argv + 2);
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "metrics") return cmd_metrics(argc - 2, argv + 2);
    if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
    if (cmd == "verify-instr") return cmd_verify_instr(argc - 2, argv + 2);
    if (cmd == "audit") return cmd_audit(argc - 2, argv + 2);
    if (cmd == "gap") return cmd_gap(argc - 2, argv + 2);
    if (cmd == "top") return cmd_top(argc - 2, argv + 2);
    if (cmd == "inspect") return cmd_inspect(argc - 2, argv + 2);
    if (cmd == "wat") return cmd_wat(argc - 2, argv + 2);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acctee: %s\n", e.what());
    return 1;
  }
}
