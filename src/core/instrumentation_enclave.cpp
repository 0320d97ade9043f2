#include "core/instrumentation_enclave.hpp"

#include "analysis/opt/opt.hpp"
#include "analysis/verifier.hpp"
#include "crypto/hmac.hpp"
#include "interp/flatten.hpp"
#include "wasm/binary.hpp"
#include "wasm/validator.hpp"

namespace acctee::core {

const char* const kInstrumentationEnclaveCode =
    "AccTEE Instrumentation Enclave v1.0 — deterministic accounting "
    "instrumentation of WebAssembly modules (naive/flow-based/loop-based), "
    "publicly auditable.";

namespace {
Bytes ie_signer_seed(const sgx::Enclave& enclave) {
  // The signing seed is derived from sealed enclave key material, so the
  // identity is stable per (platform, enclave code).
  return enclave.platform().seal_key(enclave.measurement());
}
}  // namespace

InstrumentationEnclave::InstrumentationEnclave(
    sgx::Platform& platform, instrument::InstrumentOptions options,
    uint32_t signing_capacity)
    : enclave_(platform.create_enclave(to_bytes(kInstrumentationEnclaveCode))),
      options_(std::move(options)),
      signer_(ie_signer_seed(*enclave_), signing_capacity) {}

sgx::Measurement InstrumentationEnclave::expected_measurement() {
  return crypto::sha256(to_bytes(kInstrumentationEnclaveCode));
}

sgx::Quote InstrumentationEnclave::identity_quote() const {
  crypto::Digest id = signer_.identity();
  return enclave_->quoted_report(BytesView(id.data(), id.size()));
}

InstrumentationEnclave::Output InstrumentationEnclave::instrument_binary(
    BytesView wasm_binary) {
  wasm::Module module = wasm::decode(wasm_binary);
  wasm::validate(module);

  // The evidence binds the original program's naive cost vector — a claim
  // the AE's static verifier independently recovers from the instrumented
  // binary and cross-checks (analysis/verifier.hpp). The vector is priced
  // under the same host-call surcharge the instrumentation applies.
  const instrument::HostChargePolicy host_charge =
      instrument::HostChargePolicy::for_module(module,
                                               options_.host_call_weight);
  crypto::Digest cost_digest = analysis::cost_vector_digest(
      analysis::naive_cost_vector(module, options_.weights, host_charge));

  instrument::InstrumentResult result = instrument::instrument(module, options_);

  Output out;
  out.instrumented_binary = wasm::encode(result.module);
  out.stats = result.stats;
  out.evidence.input_hash = crypto::sha256(wasm_binary);
  out.evidence.output_hash = crypto::sha256(out.instrumented_binary);
  out.evidence.weight_table_hash = options_.weights.hash();
  out.evidence.pass = options_.pass;
  out.evidence.counter_global = result.counter_global;
  out.evidence.cost_vector_digest = cost_digest;
  out.evidence.host_call_weight = options_.host_call_weight;
  if (options_.opt_level != 0) {
    // Verified middle-end (DESIGN.md §19): flatten the instrumented module
    // and run the optimisation pipeline — each pass is proved
    // counter-equivalent before its output is accepted — then sign the
    // per-pass trail. The AE re-derives the same trail deterministically
    // from the instrumented binary and rejects any divergence, so a
    // compromised IE cannot smuggle an under-counting transform through
    // the claims. The pipeline reads only the flat form, so the module is
    // flattened, not compiled: the IE does no lowering work.
    const instrument::HostChargePolicy instr_charge =
        instrument::HostChargePolicy::for_module(result.module,
                                                 options_.host_call_weight);
    analysis::opt::PipelineResult pr = analysis::opt::run_pipeline(
        result.module, interp::flatten_module(result.module),
        result.counter_global, options_.opt_level, options_.weights,
        instr_charge);
    out.evidence.opt_level = pr.trail.opt_level;
    for (const analysis::opt::PassReport& report : pr.trail.passes) {
      out.evidence.opt_passes.push_back(
          {report.name, report.cost_vector_digest, report.flat_digest});
    }
  }
  out.evidence.signature = signer_.sign(out.evidence.signed_payload());
  return out;
}

}  // namespace acctee::core
