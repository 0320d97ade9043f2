#include "core/accounting_enclave.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>

#include "analysis/opt/opt.hpp"
#include "analysis/verifier.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"
#include "wasm/binary.hpp"
#include "wasm/validator.hpp"

namespace acctee::core {

namespace {
std::string next_ae_labels() {
  static std::atomic<uint64_t> n{0};
  return obs::label_pair("enclave", std::to_string(n.fetch_add(1)));
}
}  // namespace

const char* const kAccountingEnclaveCode =
    "AccTEE Accounting Enclave v1.0 — WebAssembly execution sandbox with "
    "trusted weighted-instruction, memory and I/O accounting, publicly "
    "auditable.";

AccountingEnclave::AccountingEnclave(sgx::Platform& platform, Config config)
    : enclave_(platform.create_enclave(to_bytes(kAccountingEnclaveCode))),
      config_(std::move(config)),
      signer_(platform.seal_key(enclave_->measurement()),
              config_.signing_capacity),
      labels_(next_ae_labels()) {
  obs::Registry& reg = obs::Registry::global();
  prepared_hits_ = &reg.counter("acctee_ae_prepared_cache_hits_total", labels_);
  prepared_misses_ =
      &reg.counter("acctee_ae_prepared_cache_misses_total", labels_);
  prepared_entries_ = &reg.gauge("acctee_ae_prepared_cache_entries", labels_);
  pinned_entries_ = &reg.gauge("acctee_ae_prepared_pinned_entries", labels_);
  executions_ = &reg.counter("acctee_ae_executions_total", labels_);
  traps_ = &reg.counter("acctee_ae_traps_total", labels_);
  limit_exceeded_ = &reg.counter("acctee_ae_limit_exceeded_total", labels_);
  interim_logs_ = &reg.counter("acctee_ae_interim_logs_total", labels_);
  verify_total_ = &reg.counter("acctee_ae_instr_verify_total", labels_);
  verify_failures_ =
      &reg.counter("acctee_ae_instr_verify_failures_total", labels_);
  verify_seconds_ = &reg.histogram("acctee_ae_instr_verify_seconds",
                                   obs::default_latency_bounds(), labels_);
}

sgx::Measurement AccountingEnclave::expected_measurement() {
  return crypto::sha256(to_bytes(kAccountingEnclaveCode));
}

sgx::Quote AccountingEnclave::identity_quote() const {
  crypto::Digest id = signer_.identity();
  return enclave_->quoted_report(BytesView(id.data(), id.size()));
}

crypto::Signature AccountingEnclave::sign_checkpoint(BytesView payload) {
  if (payload.size() < kAuditCheckpointDomain.size() ||
      !std::equal(kAuditCheckpointDomain.begin(), kAuditCheckpointDomain.end(),
                  payload.begin(),
                  [](char c, uint8_t b) {
                    return static_cast<uint8_t>(c) == b;
                  })) {
    throw Error("sign_checkpoint: payload lacks the audit-checkpoint domain");
  }
  return signer_.sign(payload);
}

std::shared_ptr<const AccountingEnclave::PreparedModule>
AccountingEnclave::prepare(BytesView instrumented_binary,
                           const InstrumentationEvidence& evidence) {
  auto prepare_span = obs::Tracer::global().span("ae.prepare");
  crypto::Digest binary_hash = crypto::sha256(instrumented_binary);
  crypto::Digest evidence_digest = crypto::sha256(evidence.signed_payload());

  // Pinned entries first: they are the per-shard hot modules and must hit
  // regardless of LRU pressure from cold tenants.
  if (auto pinned_it = pinned_.find(binary_hash);
      pinned_it != pinned_.end() &&
      pinned_it->second->evidence_digest == evidence_digest) {
    prepared_hits_->inc();
    return pinned_it->second;
  }

  // Cache lookup: a hit must have been verified against the exact same
  // evidence claims (the payload binds hashes, pass, weights and counter
  // index; the signature over it was checked at insertion time).
  auto it = prepared_index_.find(binary_hash);
  if (it != prepared_index_.end() &&
      (*it->second)->evidence_digest == evidence_digest) {
    prepared_hits_->inc();
    prepared_lru_.splice(prepared_lru_.begin(), prepared_lru_, it->second);
    return prepared_lru_.front();
  }

  // --- 1. Verify the instrumentation evidence (paper Fig. 3). ---
  {
    auto verify_span = obs::Tracer::global().span("ae.verify_evidence");
    if (!evidence.verify(config_.trusted_ie_identity)) {
      throw AttestationError("evidence signature does not verify against the "
                             "trusted instrumentation enclave");
    }
    if (binary_hash != evidence.output_hash) {
      throw AttestationError("binary does not match instrumentation evidence");
    }
    if (evidence.pass != config_.instrumentation.pass) {
      throw AttestationError("evidence pass level differs from agreed policy");
    }
    if (evidence.weight_table_hash != config_.instrumentation.weights.hash()) {
      throw AttestationError("evidence weight table differs from agreed table");
    }
    if (evidence.host_call_weight !=
        config_.instrumentation.host_call_weight) {
      throw AttestationError(
          "evidence host-call surcharge differs from agreed policy");
    }
  }

  // --- 2. Load, re-validate and flatten inside the enclave (once). ---
  wasm::Module module;
  std::vector<interp::FlatFunc> baseline;
  {
    auto compile_span = obs::Tracer::global().span("ae.compile");
    module = wasm::decode(instrumented_binary);
    wasm::validate(module);
    baseline = interp::flatten_module(module);
  }
  // The counter global must not merely exist under the right export name:
  // a decoy (wrong type, immutable, or pre-charged initial value) would
  // skew every signed log, so its declaration is validated too.
  if (auto err =
          analysis::check_counter_global(module, evidence.counter_global)) {
    throw AttestationError("counter global rejected: " + *err);
  }
  // The AE derives the surcharge policy from its own copy of the module —
  // import count and table reachability are never taken from the evidence.
  const instrument::HostChargePolicy host_charge =
      instrument::HostChargePolicy::for_module(
          module, config_.instrumentation.host_call_weight);

  // --- 3. Statically re-prove the instrumentation (DESIGN.md §14): the
  // IE's signature says who produced the module; this says the module
  // actually accounts every path correctly. The proof is the §19 one
  // (bounds and region structure, then §14), so the pipeline below can
  // inherit it for every pass that leaves the baseline unchanged. ---
  crypto::Digest cost_digest{};
  crypto::Digest lowering_digest{};
  std::optional<analysis::opt::OptVerifyResult> baseline_proof;
  if (config_.verify_instrumentation) {
    auto verify_span = obs::Tracer::global().span("ae.verify_counters");
    auto started = std::chrono::steady_clock::now();
    analysis::opt::OptVerifyResult verdict =
        analysis::opt::verify_optimised_module(
            module, baseline, evidence.counter_global,
            config_.instrumentation.weights, host_charge);
    verify_seconds_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count());
    verify_total_->inc();
    if (!verdict.ok) {
      verify_failures_->inc();
      throw AttestationError("instrumentation failed static verification: " +
                             verdict.error);
    }
    if (verdict.cost_vector_digest != evidence.cost_vector_digest) {
      verify_failures_->inc();
      throw AttestationError(
          "instrumentation evidence cost-vector digest does not match the "
          "statically recovered cost vector");
    }
    cost_digest = verdict.cost_vector_digest;
    baseline_proof = std::move(verdict);
  }

  // --- 3b. Verified middle-end (DESIGN.md §19). The agreed policy fixes
  // the optimisation level; the evidence must claim exactly that level, and
  // the AE re-runs the deterministic pipeline from its own baseline
  // flattening — each pass output that differs from its input re-proved
  // counter-equivalent — and refuses to execute unless the IE's signed
  // per-pass trail matches its own derivation digest-for-digest. At level 0
  // the pipeline returns the baseline and the trail is empty. Execution
  // then binds to the AE-derived form, never to anything the IE shipped. ---
  const uint32_t opt_level = std::min(config_.instrumentation.opt_level,
                                      analysis::opt::kMaxOptLevel);
  if (evidence.opt_level != opt_level) {
    throw AttestationError(
        "evidence optimisation level differs from agreed policy");
  }
  analysis::opt::PipelineResult pr;
  {
    auto opt_span = obs::Tracer::global().span("ae.optimise");
    pr = analysis::opt::run_pipeline(
        module, std::move(baseline), evidence.counter_global, opt_level,
        config_.instrumentation.weights, host_charge,
        baseline_proof ? &*baseline_proof : nullptr);
  }
  if (pr.trail.passes.size() != evidence.opt_passes.size()) {
    throw AttestationError(
        "evidence optimisation trail length differs from the re-derived "
        "pipeline");
  }
  for (size_t i = 0; i < pr.trail.passes.size(); ++i) {
    const analysis::opt::PassReport& report = pr.trail.passes[i];
    const OptPassClaim& claim = evidence.opt_passes[i];
    if (claim.name != report.name ||
        claim.cost_vector_digest != report.cost_vector_digest ||
        claim.flat_digest != report.flat_digest) {
      throw AttestationError(
          "evidence optimisation trail diverges from the re-derived "
          "pipeline at pass '" + report.name + "'");
    }
  }

  // --- 4. Lower once: the one artifact that executes, built from the
  // final flat form. ---
  interp::CompiledModulePtr compiled;
  {
    auto lower_span = obs::Tracer::global().span("ae.lower");
    compiled = std::make_shared<const interp::CompiledModule>(
        std::move(module), std::move(pr.flat),
        interp::CompiledModule::CompileOptions{}, /*validated=*/true);
  }
  if (config_.verify_instrumentation) {
    // Verify-then-bind (DESIGN.md §15): the proofs above were carried out
    // over the flattened code; the interpreter executes the lowered
    // form. Bind the two by re-deriving the lowering and its digest over
    // the flat form that executes, so a tampered lowered stream can never
    // run under a verified identity.
    if (auto err = analysis::check_lowering(*compiled)) {
      verify_failures_->inc();
      throw AttestationError("lowering failed verify-then-bind: " + *err);
    }
    lowering_digest = compiled->lowering_digest();
  }
  prepared_misses_->inc();

  auto prepared = std::make_shared<const PreparedModule>(PreparedModule{
      std::move(compiled), binary_hash, evidence_digest,
      evidence.weight_table_hash, evidence.pass, evidence.counter_global,
      cost_digest, lowering_digest});

  if (config_.prepared_cache_capacity > 0) {
    if (it != prepared_index_.end()) {
      // Same binary, different (but valid) evidence: replace the entry.
      prepared_lru_.erase(it->second);
      prepared_index_.erase(it);
    }
    prepared_lru_.push_front(prepared);
    prepared_index_[binary_hash] = prepared_lru_.begin();
    if (prepared_lru_.size() > config_.prepared_cache_capacity) {
      prepared_index_.erase(prepared_lru_.back()->binary_hash);
      prepared_lru_.pop_back();
    }
    prepared_entries_->set(static_cast<int64_t>(prepared_lru_.size()));
  }
  return prepared;
}

std::shared_ptr<const AccountingEnclave::PreparedModule>
AccountingEnclave::prepare_pinned(BytesView instrumented_binary,
                                  const InstrumentationEvidence& evidence) {
  PreparedPtr prepared = prepare(instrumented_binary, evidence);
  // Move out of the LRU (if present) so a pinned module neither occupies
  // bounded capacity nor can ever be evicted.
  if (auto it = prepared_index_.find(prepared->binary_hash);
      it != prepared_index_.end()) {
    prepared_lru_.erase(it->second);
    prepared_index_.erase(it);
    prepared_entries_->set(static_cast<int64_t>(prepared_lru_.size()));
  }
  pinned_[prepared->binary_hash] = prepared;
  pinned_entries_->set(static_cast<int64_t>(pinned_.size()));
  return prepared;
}

AccountingEnclave::Outcome AccountingEnclave::execute(
    BytesView instrumented_binary, const InstrumentationEvidence& evidence,
    const std::string& entry, const interp::Values& args, Bytes input) {
  return execute(*prepare(instrumented_binary, evidence), entry, args,
                 std::move(input));
}

AccountingEnclave::Outcome AccountingEnclave::execute(
    const PreparedModule& prepared, const std::string& entry,
    const interp::Values& args, Bytes input) {
  // --- 3. Execute in the two-way sandbox: a cheap per-request instance
  // over the shared immutable artifact. ---
  IoChannel channel;
  channel.input = std::move(input);
  interp::ImportMap env = make_runtime_env(&channel);

  interp::Instance::Options options;
  options.platform = config_.platform;
  options.max_instructions = config_.max_instructions;
  options.dispatch = config_.dispatch;
  options.profiler = config_.profiler;
  auto instantiate_span = obs::Tracer::global().span("ae.instantiate");
  interp::Instance instance(prepared.compiled, std::move(env), options);
  instantiate_span.finish();

  return run_prepared(prepared, entry, args, instance, channel);
}

AccountingEnclave::Outcome AccountingEnclave::execute(
    const PreparedModule& prepared, const std::string& entry,
    const interp::Values& args, Bytes input, ExecSlot& slot) {
  if (slot.instance == nullptr || slot.binary_hash != prepared.binary_hash) {
    // (Re)initialise the slot for this module. The channel gets a stable
    // address the import closures keep pointing at across resets.
    slot.channel = std::make_unique<IoChannel>();
    slot.channel->input = std::move(input);
    interp::Instance::Options options;
    options.platform = config_.platform;
    options.max_instructions = config_.max_instructions;
    options.dispatch = config_.dispatch;
    options.profiler = config_.profiler;
    auto instantiate_span = obs::Tracer::global().span("ae.instantiate");
    slot.instance = std::make_unique<interp::Instance>(
        prepared.compiled, make_runtime_env(slot.channel.get()), options);
    instantiate_span.finish();
    slot.binary_hash = prepared.binary_hash;
  } else {
    // Reset-and-reuse: the channel is readied *before* the instance reset
    // so a start function observes the same I/O state as at construction.
    *slot.channel = IoChannel{};
    slot.channel->input = std::move(input);
    auto reset_span = obs::Tracer::global().span("ae.reset_slot");
    slot.instance->reset();
    reset_span.finish();
  }
  return run_prepared(prepared, entry, args, *slot.instance, *slot.channel);
}

AccountingEnclave::Outcome AccountingEnclave::run_prepared(
    const PreparedModule& prepared, const std::string& entry,
    const interp::Values& args, interp::Instance& instance,
    IoChannel& channel) {
  auto execute_span = obs::Tracer::global().span("ae.execute");
  executions_->inc();
  Outcome outcome;

  // Optional shadow resource meter: attached before the run, detached after
  // (including the trap path — detach happens past the catch). Purely an
  // observer; see the neutrality invariant in interp/shadow_meter.hpp.
  std::optional<interp::ShadowMeter> meter;
  if (config_.shadow_meter) {
    meter.emplace(config_.shadow_meter_config);
    instance.set_shadow_meter(&*meter);
  }

  auto make_signed_log = [&](interp::Instance& inst, bool trapped,
                             bool is_final) {
    const interp::ExecStats& stats = inst.stats();
    ResourceUsageLog log;
    log.module_hash = prepared.binary_hash;
    log.weight_table_hash = prepared.weight_table_hash;
    log.pass = prepared.pass;
    log.sequence = next_sequence_++;
    log.weighted_instructions = static_cast<uint64_t>(
        inst.read_global(instrument::kCounterExport).i64());
    log.peak_memory_bytes = stats.peak_memory_bytes;
    log.memory_integral = stats.memory_integral;
    log.io_bytes_in = stats.io_bytes_in;
    log.io_bytes_out = stats.io_bytes_out;
    log.trapped = trapped;
    log.is_final = is_final;
    log.prev_log_hash = prev_log_hash_;
    // Bind the ambient request identity (installed by the gateway worker's
    // TraceScope) into the signed log. The id is a pure function of tenant
    // and admission sequence — independent of whether tracing is enabled or
    // this request was sampled — so the signed bytes never vary with
    // observability state.
    if (const obs::TraceContext* ctx = obs::current_trace_context()) {
      log.trace_hi = ctx->trace_hi;
      log.trace_lo = ctx->trace_lo;
    }
    SignedResourceLog signed_log;
    signed_log.log = log;
    Bytes canonical = log.serialize();
    prev_log_hash_ = crypto::sha256(canonical);
    signed_log.signature = signer_.sign(canonical);
    return signed_log;
  };

  if (config_.checkpoint_interval != 0) {
    instance.set_checkpoint(
        config_.checkpoint_interval, [&](interp::Instance& inst) {
          outcome.interim_logs.push_back(
              make_signed_log(inst, /*trapped=*/false, /*is_final=*/false));
          interim_logs_->inc();
        });
  }

  bool trapped = false;
  {
    auto run_span = obs::Tracer::global().span("interp.run");
    try {
      outcome.results = instance.invoke(entry, args);
    } catch (const TrapError& trap) {
      trapped = true;
      outcome.trap_message = trap.what();
      traps_->inc();
      if (std::strstr(trap.what(), "instruction limit") != nullptr) {
        limit_exceeded_->inc();
      }
    }
  }

  // --- 4. Assemble and sign the final resource usage log. ---
  auto sign_span = obs::Tracer::global().span("ae.sign");
  outcome.signed_log = make_signed_log(instance, trapped, /*is_final=*/true);
  sign_span.finish();
  outcome.output = std::move(channel.output);
  outcome.stats = instance.stats();
  if (meter.has_value()) {
    instance.set_shadow_meter(nullptr);
    // What the counter bills per host-entry op: the call weight plus the
    // agreed host-call surcharge (instrument::HostChargePolicy).
    const uint64_t billed_host_weight =
        config_.instrumentation.weights.weight(wasm::Op::Call) +
        config_.instrumentation.host_call_weight;
    outcome.gap = interp::compute_gap_profile(
        *meter, outcome.stats, outcome.signed_log.log.weighted_instructions,
        billed_host_weight);
  }
  return outcome;
}

SignedTelemetrySnapshot AccountingEnclave::sign_telemetry() {
  TelemetrySnapshot snap;
  snap.sequence = next_telemetry_sequence_++;
  snap.prev_snapshot_hash = prev_telemetry_hash_;
  // This enclave's own operational counters (only its enclave="N" label
  // set), then the process-wide billing counters — the series `acctee audit
  // reconcile` checks against the ledger. Registry enumeration order is
  // (name, labels), so the sample list is deterministic for a given state.
  for (const obs::CounterSample& c :
       obs::Registry::global().counter_samples("acctee_ae_")) {
    if (c.labels != labels_) continue;
    snap.samples.push_back({c.name, c.labels, c.value});
  }
  for (const obs::CounterSample& c :
       obs::Registry::global().counter_samples("acctee_billing_")) {
    snap.samples.push_back({c.name, c.labels, c.value});
  }
  SignedTelemetrySnapshot signed_snap;
  signed_snap.snapshot = std::move(snap);
  Bytes payload = signed_snap.snapshot.payload();
  prev_telemetry_hash_ = crypto::sha256(payload);
  signed_snap.signature = signer_.sign(payload);
  return signed_snap;
}

}  // namespace acctee::core
