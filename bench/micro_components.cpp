// google-benchmark microbenchmarks of AccTEE's own components: interpreter
// dispatch rate, instrumentation pass latency, SHA-256 / Lamport signing
// throughput, offline ledger verification, and attestation round trips. These are engineering
// benchmarks (regression tracking), not paper-figure reproductions.
#include <benchmark/benchmark.h>

#include "analysis/opt/opt.hpp"
#include "analysis/verifier.hpp"
#include "audit/ledger.hpp"
#include "audit/verifier.hpp"
#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "core/runtime_env.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "instrument/passes.hpp"
#include "interp/compiled_module.hpp"
#include "interp/instance.hpp"
#include "wasm/binary.hpp"
#include "wasm/wat_parser.hpp"
#include "workloads/faas_functions.hpp"
#include "workloads/polybench.hpp"
#include "workloads/usecases.hpp"

using namespace acctee;

namespace {

void BM_InterpreterDispatch(benchmark::State& state) {
  wasm::Module module = workloads::build_polybench("gemm", 32);
  uint64_t instructions = 0;
  for (auto _ : state) {
    interp::Instance::Options opts;
    opts.cache_model = state.range(0) != 0;
    interp::Instance inst(module, {}, opts);
    inst.invoke("run");
    instructions += inst.stats().instructions;
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterDispatch)->Arg(0)->Arg(1);

// Accounting granularity: the hot-loop cost behind the block-batching work.
// Arg(0) selects the accounting mode (0 = block-batched, 1 = per-instruction
// serial accounting). Cache model off so the loop itself dominates.
void BM_DispatchAccountingMatrix(benchmark::State& state) {
  interp::CompiledModulePtr compiled =
      interp::compile(workloads::build_polybench("gemm", 32));
  interp::Instance::Options opts;
  opts.cache_model = false;
  opts.per_instruction_accounting = state.range(0) != 0;
  uint64_t instructions = 0;
  for (auto _ : state) {
    interp::Instance inst(compiled, {}, opts);
    inst.invoke("run");
    instructions += inst.stats().instructions;
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DispatchAccountingMatrix)->ArgName("per_instr")->Arg(0)->Arg(1);

// Call-bound dispatch: naive recursive fib(22), ~57k calls per run. Calls
// and returns are where the run loop writes its pc and stack pointer back
// and re-derives them, and where enter_frame checks the frame reservation.
void BM_DispatchRecursiveCalls(benchmark::State& state) {
  interp::CompiledModulePtr compiled =
      interp::compile(wasm::parse_wat(R"((module
    (func $fib (param i32) (result i32)
      local.get 0
      i32.const 2
      i32.lt_u
      if (result i32)
        local.get 0
      else
        local.get 0 i32.const 1 i32.sub call $fib
        local.get 0 i32.const 2 i32.sub call $fib
        i32.add
      end)
    (func (export "run") (result i32) i32.const 22 call $fib)))"));
  interp::Instance::Options opts;
  opts.cache_model = false;
  interp::Instance inst(compiled, {}, opts);
  for (auto _ : state) {
    inst.reset();
    benchmark::DoNotOptimize(inst.invoke("run"));
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(inst.stats().instructions) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DispatchRecursiveCalls);

// --- Prepare vs instantiate: the amortisation the CompiledModule pipeline
// buys. Cold = decode/flatten the module for every request (the pre-refactor
// per-request cost); shared = one compile(), then a cheap borrowing Instance
// per request. The ratio of the two times is the per-request speedup.
void BM_ColdCompilePerRequest(benchmark::State& state) {
  wasm::Module module = workloads::build_polybench("atax", 16);
  interp::Instance::Options opts;
  opts.cache_model = false;
  for (auto _ : state) {
    interp::Instance inst(module, {}, opts);  // copies + re-flattens
    inst.invoke("run");
    benchmark::DoNotOptimize(inst.stats().instructions);
  }
}
BENCHMARK(BM_ColdCompilePerRequest);

void BM_SharedCompiledModulePerRequest(benchmark::State& state) {
  interp::CompiledModulePtr compiled =
      interp::compile(workloads::build_polybench("atax", 16));
  interp::Instance::Options opts;
  opts.cache_model = false;
  for (auto _ : state) {
    interp::Instance inst(compiled, {}, opts);
    inst.invoke("run");
    benchmark::DoNotOptimize(inst.stats().instructions);
  }
}
BENCHMARK(BM_SharedCompiledModulePerRequest);

// --- The per-request instance layer on its own: constructing a fresh
// instance, and resetting a reused one between requests (the sharded
// gateway's freelists). Both should cost what a request touches, not what
// the module declares. Arg 0 is echo, which declares 56 pages (3.6 MB) and
// touches under 50 KB serving a 128 px image; Arg 1 is atax at n=16. Cache
// model on and the runtime env bound, as in the accounting enclave.
struct InstanceCase {
  interp::CompiledModulePtr compiled;
  Bytes input;  // one request's io_read input
  const char* label;
};

InstanceCase instance_case(int64_t arg) {
  if (arg == 0) {
    return {interp::compile(workloads::faas_echo()),
            workloads::make_test_image(128, 1), "echo, 128 px"};
  }
  return {interp::compile(workloads::build_polybench("atax", 16)), {},
          "atax, n=16"};
}

void BM_Instantiate(benchmark::State& state) {
  InstanceCase c = instance_case(state.range(0));
  core::IoChannel channel;
  for (auto _ : state) {
    interp::Instance inst(c.compiled, core::make_runtime_env(&channel), {});
    benchmark::DoNotOptimize(inst.memory());
  }
  state.SetLabel(c.label);
}
BENCHMARK(BM_Instantiate)->Arg(0)->Arg(1);

// The request between resets runs untimed; a fixed iteration count keeps
// it from multiplying the run time up to --benchmark_min_time of resets.
void BM_InstanceReset(benchmark::State& state) {
  InstanceCase c = instance_case(state.range(0));
  core::IoChannel channel;
  interp::Instance inst(c.compiled, core::make_runtime_env(&channel), {});
  for (auto _ : state) {
    state.PauseTiming();
    channel = core::IoChannel{};
    channel.input = c.input;
    inst.invoke("run");
    state.ResumeTiming();
    inst.reset();
    benchmark::DoNotOptimize(inst.memory());
  }
  state.SetLabel(c.label);
}
BENCHMARK(BM_InstanceReset)->Arg(0)->Arg(1)->Iterations(2000);

// Preparation alone (what the shared pipeline pays exactly once).
void BM_ModuleCompile(benchmark::State& state) {
  wasm::Module module = workloads::build_polybench("atax", 16);
  for (auto _ : state) {
    interp::CompiledModulePtr compiled = interp::compile(module);
    benchmark::DoNotOptimize(compiled->flat().size());
  }
}
BENCHMARK(BM_ModuleCompile);

void BM_InstrumentationPass(benchmark::State& state) {
  wasm::Module module = workloads::build_polybench("gemm", 32);
  auto pass = static_cast<instrument::PassKind>(state.range(0));
  for (auto _ : state) {
    auto result =
        instrument::instrument(module, instrument::InstrumentOptions{pass, {}});
    benchmark::DoNotOptimize(result.counter_global);
  }
}
BENCHMARK(BM_InstrumentationPass)->Arg(0)->Arg(1)->Arg(2);

// The AE-side static counter-equivalence proof (analysis/verifier.hpp):
// the one-time per-module cost the prepare() LRU amortises. Arg selects
// the pass the module was instrumented with, so all three increment
// shapes (per-block, flow-folded, hoisted-loop) are covered.
void BM_VerifyInstrumentation(benchmark::State& state) {
  wasm::Module module = workloads::build_polybench("gemm", 32);
  auto pass = static_cast<instrument::PassKind>(state.range(0));
  auto result =
      instrument::instrument(module, instrument::InstrumentOptions{pass, {}});
  for (auto _ : state) {
    analysis::VerifyResult verdict = analysis::verify_instrumented_module(
        result.module, result.counter_global, instrument::WeightTable::unit());
    if (!verdict.ok) state.SkipWithError(verdict.error.c_str());
    benchmark::DoNotOptimize(verdict.cost_vector_digest[0]);
  }
}
BENCHMARK(BM_VerifyInstrumentation)->Arg(0)->Arg(1)->Arg(2);

// --- The AE's prepare miss, as on tenant_churn: every request a cold
// deploy under LoopBased instrumentation, unit weights and opt level 3.
// Arg 0 is jacobi-2d n=8, 1 gemm n=16, 2 Darknet.
wasm::Module prepare_case(int64_t arg, const char** label) {
  if (arg == 0) {
    *label = "jacobi-2d, n=8";
    return workloads::build_polybench("jacobi-2d", 8);
  }
  if (arg == 1) {
    *label = "gemm, n=16";
    return workloads::build_polybench("gemm", 16);
  }
  *label = "Darknet";
  return workloads::usecase_darknet();
}

instrument::InstrumentOptions churn_policy() {
  instrument::InstrumentOptions options;
  options.pass = instrument::PassKind::LoopBased;
  options.weights = instrument::WeightTable::unit();
  options.opt_level = analysis::opt::kMaxOptLevel;
  return options;
}

// Evidence verify, decode, validate, flatten, the baseline proof, the §19
// pipeline, lowering and the lowering bind check. A prepared cache of
// capacity 0 can never hit.
void BM_AePrepareMiss(benchmark::State& state) {
  const char* label = nullptr;
  wasm::Module module = prepare_case(state.range(0), &label);
  sgx::Platform platform("bench", to_bytes("seed"));
  core::InstrumentationEnclave ie(platform, churn_policy(), 1);
  auto output = ie.instrument_binary(wasm::encode(module));
  core::AccountingEnclave::Config config;
  config.trusted_ie_identity = ie.identity();
  config.instrumentation = churn_policy();
  config.signing_capacity = 1;
  config.prepared_cache_capacity = 0;
  core::AccountingEnclave ae(platform, config);
  for (auto _ : state) {
    auto prepared = ae.prepare(output.instrumented_binary, output.evidence);
    benchmark::DoNotOptimize(prepared->lowering_digest);
  }
  state.SetLabel(label);
}
BENCHMARK(BM_AePrepareMiss)->Arg(0)->Arg(1)->Arg(2);

// The canonical digests a miss hashes, over the L3 artifact the AE runs.
interp::CompiledModulePtr optimised_case(int64_t arg, const char** label) {
  const instrument::InstrumentOptions policy = churn_policy();
  auto result = instrument::instrument(prepare_case(arg, label), policy);
  return analysis::opt::optimise_compiled(
      interp::compile(result.module), result.counter_global,
      policy.opt_level, policy.weights, {});
}

void BM_LoweringDigest(benchmark::State& state) {
  const char* label = nullptr;
  interp::CompiledModulePtr compiled = optimised_case(state.range(0), &label);
  for (auto _ : state) {
    crypto::Digest digest = interp::lowering_digest(
        compiled->flat(), compiled->lowered(), compiled->lower_options());
    benchmark::DoNotOptimize(digest);
  }
  state.SetLabel(label);
}
BENCHMARK(BM_LoweringDigest)->Arg(0)->Arg(1)->Arg(2);

void BM_FlatDigest(benchmark::State& state) {
  const char* label = nullptr;
  interp::CompiledModulePtr compiled = optimised_case(state.range(0), &label);
  for (auto _ : state) {
    crypto::Digest digest = analysis::opt::flat_digest(compiled->flat());
    benchmark::DoNotOptimize(digest);
  }
  state.SetLabel(label);
}
BENCHMARK(BM_FlatDigest)->Arg(0)->Arg(1)->Arg(2);

void BM_BinaryCodecRoundTrip(benchmark::State& state) {
  wasm::Module module = workloads::build_polybench("3mm", 32);
  for (auto _ : state) {
    Bytes bin = wasm::encode(module);
    wasm::Module decoded = wasm::decode(bin);
    benchmark::DoNotOptimize(decoded.functions.size());
  }
}
BENCHMARK(BM_BinaryCodecRoundTrip);

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    auto digest = crypto::sha256(data);
    benchmark::DoNotOptimize(digest[0]);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(std::string(crypto::sha256_backend()));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(1024)->Arg(1 << 20);

// Rows that hash batches through sha256_many name both paths the CPU
// picked: the one-message compression and the multi-message path.
std::string hash_label() {
  return std::string(crypto::sha256_backend()) + ", " +
         std::string(crypto::sha256_many_backend());
}

// One sha256_many batch: /32 is 256 revealed-preimage-sized messages, /16384
// is 32 one-time public keys.
void BM_Sha256Many(benchmark::State& state) {
  size_t length = static_cast<size_t>(state.range(0));
  size_t count = length == 32 ? 256 : 32;
  Bytes data(count * length);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  std::vector<const uint8_t*> messages(count);
  for (size_t i = 0; i < count; ++i) messages[i] = data.data() + i * length;
  std::vector<crypto::Digest> out(count);
  for (auto _ : state) {
    crypto::sha256_many(messages, length, out);
    benchmark::DoNotOptimize(out[0][0]);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(count));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(count * length));
  state.SetLabel(hash_label());
}
BENCHMARK(BM_Sha256Many)->Arg(32)->Arg(16384);

// One Lamport key: 512 PRF calls and 512 preimage hashes.
void BM_LamportKeygen(benchmark::State& state) {
  Bytes seed = to_bytes("bench");
  for (auto _ : state) {
    crypto::LamportKeyPair kp = crypto::LamportKeyPair::from_seed(seed);
    benchmark::DoNotOptimize(kp.pub.hashes[0][0]);
  }
  state.SetLabel(hash_label());
}
BENCHMARK(BM_LamportKeygen);

// Spends one one-time key per iteration.
void BM_LamportSign(benchmark::State& state) {
  crypto::Signer signer(to_bytes("bench"), 256);
  Bytes message = to_bytes("resource log");
  for (auto _ : state) {
    crypto::Signature sig = signer.sign(message);
    benchmark::DoNotOptimize(sig.lamport.revealed[0][0]);
  }
  state.SetLabel(hash_label());
}
BENCHMARK(BM_LamportSign)->Iterations(256);

void BM_LamportVerify(benchmark::State& state) {
  crypto::Signer signer(to_bytes("bench"), 4);
  Bytes message = to_bytes("resource log");
  crypto::Signature sig = signer.sign(message);
  crypto::Digest id = signer.identity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::signature_verify(id, message, sig));
  }
  state.SetLabel(hash_label());
}
BENCHMARK(BM_LamportVerify);

// audit::verify_ledger over a sealed ledger of 512 billed echo requests,
// checkpointed every 64 as the gateway does; per_entry is the time per
// ledger entry.
void BM_LedgerVerify(benchmark::State& state) {
  constexpr int kEntries = 512;
  sgx::Platform platform("bench", to_bytes("seed"));
  instrument::InstrumentOptions options;
  core::InstrumentationEnclave ie(platform, options, 4);
  auto output = ie.instrument_binary(wasm::encode(workloads::faas_echo()));
  core::AccountingEnclave::Config config;
  config.trusted_ie_identity = ie.identity();
  config.instrumentation = options;
  config.signing_capacity = kEntries + kEntries / 64;
  core::AccountingEnclave ae(platform, config);
  audit::Ledger ledger(64);
  ledger.set_ae_identity(ae.identity());
  ledger.set_checkpoint_signer(
      [&ae](BytesView payload) { return ae.sign_checkpoint(payload); });
  Bytes image = workloads::make_test_image(16, 1);
  for (int i = 0; i < kEntries; ++i) {
    auto outcome =
        ae.execute(output.instrumented_binary, output.evidence, "run", {},
                   image);
    ledger.append({"tenant", "echo", outcome.signed_log});
  }
  ledger.seal();
  for (auto _ : state) {
    audit::VerifyReport report = audit::verify_ledger(ledger, ae.identity());
    if (!report.ok) state.SkipWithError("the ledger does not verify");
  }
  state.counters["per_entry"] = benchmark::Counter(
      kEntries, benchmark::Counter::kIsIterationInvariantRate |
                    benchmark::Counter::kInvert);
  state.SetLabel(hash_label());
}
BENCHMARK(BM_LedgerVerify)->Unit(benchmark::kMillisecond);

void BM_EndToEndAccountedExecution(benchmark::State& state) {
  sgx::Platform platform("bench", to_bytes("seed"));
  instrument::InstrumentOptions options;
  core::InstrumentationEnclave ie(platform, options, 4);
  wasm::Module module = workloads::build_polybench("atax", 48);
  auto output = ie.instrument_binary(wasm::encode(module));

  core::AccountingEnclave::Config config;
  config.trusted_ie_identity = ie.identity();
  config.instrumentation = options;
  config.platform = interp::Platform::WasmSgxSim;
  config.signing_capacity = 4096;
  core::AccountingEnclave ae(platform, config);
  for (auto _ : state) {
    auto outcome = ae.execute(output.instrumented_binary, output.evidence,
                              "run", {});
    benchmark::DoNotOptimize(outcome.signed_log.log.weighted_instructions);
  }
}
BENCHMARK(BM_EndToEndAccountedExecution)->Iterations(16);

}  // namespace

BENCHMARK_MAIN();
