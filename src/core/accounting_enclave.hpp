// The Accounting Enclave (AE, paper Fig. 2/3): AccTEE's two-way sandbox.
//
// The AE runs at the infrastructure provider. It (1) verifies that the
// workload binary carries genuine instrumentation evidence from a trusted
// instrumentation enclave, (2) executes it in the WebAssembly execution
// sandbox under the platform's SGX cost model, (3) reads the protected
// weighted instruction counter and the runtime's memory/I/O accounting, and
// (4) emits a signed resource usage log that both parties trust.
#pragma once

#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/evidence.hpp"
#include "core/resource_log.hpp"
#include "core/runtime_env.hpp"
#include "core/telemetry.hpp"
#include "interp/compiled_module.hpp"
#include "interp/instance.hpp"
#include "interp/shadow_meter.hpp"
#include "obs/metrics.hpp"
#include "sgx/platform.hpp"

namespace acctee::core {

/// Publicly auditable enclave code.
extern const char* const kAccountingEnclaveCode;

class AccountingEnclave {
 public:
  struct Config {
    /// Identity root of the instrumentation enclave whose evidence the AE
    /// accepts (obtained by the infrastructure provider via attestation of
    /// the IE; see session.hpp for the full handshake).
    crypto::Digest trusted_ie_identity{};
    /// Accounting parameters both parties agreed on.
    instrument::InstrumentOptions instrumentation;
    MemoryPolicy memory_policy = MemoryPolicy::Peak;
    /// Platform the workload executes under (drives the SGX cost model).
    interp::Platform platform = interp::Platform::WasmSgxHw;
    /// Resource limit: abort workloads beyond this many instructions.
    uint64_t max_instructions = UINT64_MAX;
    /// Vestigial: copied into Instance::Options::dispatch, which nothing
    /// reads (the interpreter has one execution technique). The lowered
    /// form it executes is only ever run after check_lowering binds it to
    /// the verified flattened code (verify-then-bind, DESIGN.md §15).
    interp::DispatchMode dispatch = interp::DispatchMode::Auto;
    /// Statically re-prove the instrumentation inside the AE before the
    /// first execution of a module (analysis/verifier.hpp): counter-flow
    /// equivalence to naive accounting, counter write protection, and the
    /// evidence's cost-vector digest. On by default — with it, a buggy or
    /// compromised IE can sign whatever it likes and the AE still refuses
    /// to run an under-counting module. The result is cached with the
    /// prepared module, so the LRU amortises the analysis cost.
    bool verify_instrumentation = true;
    uint32_t signing_capacity = 512;
    /// When non-zero, the AE additionally emits a signed *interim* log
    /// every this many executed instructions (paper §3.3: periodic
    /// progress feedback to the content/workload provider).
    uint64_t checkpoint_interval = 0;
    /// Capacity (entries, LRU) of the prepared-module cache: verified +
    /// compiled modules reused across executions so repeat requests skip
    /// decode/validate/flatten and the evidence signature check (paper
    /// §3.3's prepare-once amortisation, applied to the AE). 0 disables
    /// caching — every execute() re-prepares from scratch.
    size_t prepared_cache_capacity = 16;
    /// Optional per-function profiler attached to every execution's
    /// Instance (obs/profile.hpp). Diagnostic only: the selected profiled
    /// run loop attributes block costs by function but never alters
    /// ExecStats, checkpoints, or signed logs (tested in
    /// tests/block_accounting_test.cpp). The caller owns the profiler and
    /// must not run executions concurrently while it is set.
    obs::FuncProfiler* profiler = nullptr;
    /// Attach an untrusted shadow resource meter to every execution and
    /// surface the billed-vs-true cost gap in Outcome::gap (DESIGN.md §18).
    /// Observability only: the meter never writes billed state, and enabling
    /// it leaves ExecStats, checkpoints and every signed ledger byte
    /// bit-identical (the neutrality gate in tests/gap_test.cpp). Requires
    /// the hooks to be compiled in (interp::Instance::shadow_meter_available);
    /// otherwise no profile is produced.
    bool shadow_meter = false;
    /// Shadow-meter pricing and replay-hierarchy geometry.
    interp::ShadowMeter::Config shadow_meter_config;
  };

  AccountingEnclave(sgx::Platform& platform, Config config);

  static sgx::Measurement expected_measurement();

  /// The AE's signer identity root (bound to its quote report data).
  crypto::Digest identity() const { return signer_.identity(); }
  sgx::Quote identity_quote() const;

  struct Outcome {
    interp::Values results;       // entry function results (empty on trap)
    Bytes output;                 // bytes the workload wrote via io_write
    SignedResourceLog signed_log;
    /// Periodic in-flight logs (is_final = false), oldest first; empty
    /// unless Config::checkpoint_interval is set.
    std::vector<SignedResourceLog> interim_logs;
    std::string trap_message;     // non-empty iff log.trapped
    interp::ExecStats stats;      // raw runtime statistics (diagnostics)
    /// Billed-vs-true cost gap profile; present iff Config::shadow_meter is
    /// set and the meter hooks were compiled in. Diagnostic only — never
    /// part of the signed log.
    std::optional<interp::GapProfile> gap;
  };

  /// The immutable outcome of the AE's preparation pipeline for one module:
  /// evidence verified, binary decoded + re-validated, counter export
  /// checked, functions flattened. Everything a per-request Instance needs,
  /// shareable across any number of (concurrent) executions.
  struct PreparedModule {
    interp::CompiledModulePtr compiled;
    crypto::Digest binary_hash{};
    /// sha256 of the evidence's signed payload; a cache hit requires the
    /// offered evidence to make exactly the claims that were verified.
    crypto::Digest evidence_digest{};
    crypto::Digest weight_table_hash{};
    instrument::PassKind pass = instrument::PassKind::LoopBased;
    uint32_t counter_global = 0;
    /// Digest of the per-function naive cost vector the static verifier
    /// recovered from the binary (all zero when verification is disabled).
    crypto::Digest cost_vector_digest{};
    /// Digest binding the lowered internal bytecode to the verified
    /// flattened code (analysis::check_lowering; all zero when verification
    /// is disabled). With verification on, executions of this prepared
    /// module run the lowered bytecode only because this bind succeeded.
    crypto::Digest lowering_digest{};
  };

  /// Verifies evidence and compiles the binary — or returns the cached
  /// artifact if this (binary, evidence) pair was already prepared. Throws
  /// AttestationError if the evidence does not check out; nothing is cached
  /// in that case.
  std::shared_ptr<const PreparedModule> prepare(
      BytesView instrumented_binary, const InstrumentationEvidence& evidence);

  /// prepare() + pin: the prepared module is moved out of the LRU into the
  /// pinned set, where it is never evicted and does not count against
  /// `prepared_cache_capacity`. The pinning hook exists for the sharded
  /// gateway's per-shard AE pools (DESIGN.md §16): a shard's deployed
  /// function is its hot module — evicting it under cache pressure from
  /// cold tenants would re-run evidence verification and the static
  /// counter-equivalence proof on the request path.
  std::shared_ptr<const PreparedModule> prepare_pinned(
      BytesView instrumented_binary, const InstrumentationEvidence& evidence);

  /// A reusable execution slot for the freelist path: one IoChannel and one
  /// Instance constructed on first use and reset-and-reused afterwards,
  /// pinned to a single prepared module (binary_hash). Reusing a slot
  /// produces bit-identical ExecStats, checkpoints and signed logs to a
  /// fresh instantiation (interp::Instance::reset); what it saves is the
  /// per-request allocation storm (linear memory, stack, cache arrays).
  /// A slot belongs to one worker thread; it is not synchronised.
  struct ExecSlot {
    crypto::Digest binary_hash{};
    std::unique_ptr<IoChannel> channel;
    std::unique_ptr<interp::Instance> instance;
  };

  /// Executes `entry(args)` over an already-prepared module with `input` on
  /// the I/O channel. Workload traps do NOT throw: a trapped workload still
  /// consumed resources, so the outcome carries a signed log with
  /// trapped=true (the infrastructure provider must be paid either way).
  Outcome execute(const PreparedModule& prepared, const std::string& entry,
                  const interp::Values& args, Bytes input = {});

  /// execute() through a reusable slot: if `slot` already holds an instance
  /// of this prepared module it is reset and reused (no allocation);
  /// otherwise the slot is (re)initialised for this module. Accounting is
  /// bit-identical to the slot-less overload (tested in tests/faas_test.cpp
  /// and tests/core_features_test.cpp).
  Outcome execute(const PreparedModule& prepared, const std::string& entry,
                  const interp::Values& args, Bytes input, ExecSlot& slot);

  /// prepare() + execute(): verifies evidence (cached after the first call
  /// for a given binary) and runs the workload. Throws AttestationError if
  /// the evidence does not check out — execution never starts on an
  /// unverified binary.
  Outcome execute(BytesView instrumented_binary,
                  const InstrumentationEvidence& evidence,
                  const std::string& entry, const interp::Values& args,
                  Bytes input = {});

  /// Signs an audit-ledger checkpoint payload (audit::Checkpoint::payload)
  /// with the AE identity — one signature amortised over a whole batch of
  /// logs. Only domain-separated checkpoint bytes are accepted (the payload
  /// must start with kAuditCheckpointDomain), so a checkpoint signature can
  /// never be passed off as a resource-log signature or vice versa.
  crypto::Signature sign_checkpoint(BytesView payload);

  /// sha256 of the canonical bytes of the last log this AE signed (the
  /// prev_log_hash the *next* log will carry); all-zero before the first.
  const crypto::Digest& last_log_hash() const { return prev_log_hash_; }

  /// Signs a snapshot of this enclave's own telemetry: its acctee_ae_*
  /// counter series (this enclave's label set only) plus the process-wide
  /// acctee_billing_* counters. Snapshots are sequenced and hash-chained
  /// per enclave (like the log chain, separate state), domain-separated via
  /// kTelemetrySnapshotDomain, and signed with the AE identity — the
  /// offline verifier (audit::verify_telemetry_chain) can then prove the
  /// provider's scrape-side telemetry consistent with the signed ledger.
  SignedTelemetrySnapshot sign_telemetry();

  /// sha256 of the last telemetry payload this AE signed; all-zero before
  /// the first snapshot.
  const crypto::Digest& last_telemetry_hash() const {
    return prev_telemetry_hash_;
  }

  // Prepared-module cache statistics (observable amortisation). Thin reads
  // of this enclave's registry series (obs/metrics.hpp): the same numbers a
  // metrics scrape reports under acctee_ae_prepared_cache_{hits,misses}_total.
  uint64_t prepared_cache_hits() const { return prepared_hits_->value(); }
  uint64_t prepared_cache_misses() const { return prepared_misses_->value(); }
  size_t prepared_cache_size() const { return prepared_lru_.size(); }
  size_t prepared_pinned_count() const { return pinned_.size(); }

  const Config& config() const { return config_; }

 private:
  using PreparedPtr = std::shared_ptr<const PreparedModule>;

  std::unique_ptr<sgx::Enclave> enclave_;
  Config config_;
  crypto::Signer signer_;
  uint64_t next_sequence_ = 0;
  // Hash-chain state over every log this enclave signs (interim + final,
  // across sessions): the next log's prev_log_hash.
  crypto::Digest prev_log_hash_{};
  // Telemetry-snapshot chain state (independent of the log chain).
  uint64_t next_telemetry_sequence_ = 0;
  crypto::Digest prev_telemetry_hash_{};

  Outcome run_prepared(const PreparedModule& prepared,
                       const std::string& entry, const interp::Values& args,
                       interp::Instance& instance, IoChannel& channel);

  // Bounded LRU over prepared modules, keyed by binary hash. Front of the
  // list is the most recently used entry.
  std::list<PreparedPtr> prepared_lru_;
  std::map<crypto::Digest, std::list<PreparedPtr>::iterator> prepared_index_;
  // Pinned prepared modules (prepare_pinned): never evicted, not counted
  // against prepared_cache_capacity.
  std::map<crypto::Digest, PreparedPtr> pinned_;

  // Per-enclave series in the process registry, labelled enclave="N".
  std::string labels_;
  obs::Counter* prepared_hits_ = nullptr;
  obs::Counter* prepared_misses_ = nullptr;
  obs::Gauge* prepared_entries_ = nullptr;
  obs::Gauge* pinned_entries_ = nullptr;
  obs::Counter* executions_ = nullptr;
  obs::Counter* traps_ = nullptr;
  obs::Counter* limit_exceeded_ = nullptr;
  obs::Counter* interim_logs_ = nullptr;
  obs::Counter* verify_total_ = nullptr;
  obs::Counter* verify_failures_ = nullptr;
  obs::Histogram* verify_seconds_ = nullptr;
};

}  // namespace acctee::core
