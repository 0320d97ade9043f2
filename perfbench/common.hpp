// Shared pieces of the repository benchmark (README.md in this directory):
// the billing policy every workload runs under, reference runs for the
// correctness gate, direct-AE billing, the per-layer timers of the traced
// replay, and the one-line JSON result.
//
// Everything here calls the system only through its public headers; no
// in-program span or shadow meter is read or enabled.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "audit/ledger.hpp"
#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "faas/sequence_authority.hpp"
#include "interp/compiled_module.hpp"
#include "interp/instance.hpp"
#include "sgx/platform.hpp"

namespace acctee::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

/// What one run reports. `failed` counts failed or refused operations
/// (mismatches, exceptions, sheds, quota rejects, rejected logs) out of
/// `attempted`; any failure makes the run incorrect.
class Result {
 public:
  void attempt(uint64_t n) { attempted_ += n; }
  void fail(uint64_t n, const std::string& why);
  void metric(const std::string& name, double value, const std::string& unit);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  const std::vector<std::string>& problems() const { return problems_; }

  /// The run's last stdout line: correct, attempted, failed, metrics.
  std::string json() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> problems_;  // the first few failure reasons
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1] (the gateway's own definition).
double percentile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);

/// Round loop shared by the workloads: keeps starting rounds while the
/// next one (predicted from the mean so far) still fits in the budget, and
/// always runs at least `min_rounds`.
class RoundBudget {
 public:
  RoundBudget(double seconds, size_t min_rounds)
      : seconds_(seconds), min_rounds_(min_rounds), start_(Clock::now()) {}
  bool next();  // call before each round
  size_t rounds() const { return rounds_; }

 private:
  double seconds_;
  size_t min_rounds_;
  size_t rounds_ = 0;
  Clock::time_point start_;
};

/// The one billing policy of every workload: LoopBased pass, unit weights,
/// the highest optimisation level, otherwise the default AE config.
instrument::InstrumentOptions billing_policy();
core::AccountingEnclave::Config ae_config(const crypto::Digest& ie_identity,
                                          uint32_t signing_capacity,
                                          uint64_t checkpoint_interval = 0);
/// Options of the Instance the AE builds for every execution.
interp::Instance::Options ae_instance_options(
    const core::AccountingEnclave::Config& config);

/// One-time keys an AE needs to sign `logs` resource logs plus one ledger
/// checkpoint per `checkpoint_every` logs and the sealing checkpoint.
uint32_t signing_capacity_for(uint64_t logs, size_t checkpoint_every);

/// One module and the request it serves, with its reference run.
struct Job {
  std::string name;
  wasm::Module original;
  Bytes binary;  // wasm::encode(original): what the IE instruments
  std::string entry = "run";
  interp::Values args;
  Bytes input;
  interp::CompiledModulePtr plain;  // uninstrumented, for the replay

  // Uninstrumented reference run made at set-up (the correctness gate).
  interp::Values ref_results;
  Bytes ref_output;
  uint64_t ref_weighted = 0;  // WeightTable · ExecStats::per_op
};

Job make_job(std::string name, wasm::Module module, interp::Values args = {},
             Bytes input = {});

/// What the correctness gate finds wrong with a billed execution of `job`,
/// or the empty string: no trap, the reference results and output, and a
/// final log billing exactly the reference's weighted instructions.
std::string check_outcome(const Job& job,
                          const core::AccountingEnclave::Outcome& outcome);

/// An IE provisioned for one deploy, sized to the modules it instruments.
struct InstrumentedSet {
  std::unique_ptr<sgx::Platform> platform;
  std::unique_ptr<core::InstrumentationEnclave> ie;
  std::vector<core::InstrumentationEnclave::Output> outputs;
};
/// Instruments `jobs[i].binary` in order; when `instrument_us` is non-null
/// it receives each instrument_binary() wall time.
InstrumentedSet instrument_all(const std::vector<const Job*>& jobs,
                               const std::string& tag,
                               std::vector<double>* instrument_us = nullptr);

/// Per-layer accumulators of the traced replay: mean value per call.
class Layers {
 public:
  void add(const std::string& name, double value);
  double mean(const std::string& name) const;

  template <class F>
  auto time(const std::string& name, F&& f) {
    auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      add(name, us_since(t0));
    } else {
      auto value = f();
      add(name, us_since(t0));
      return value;
    }
  }

 private:
  std::map<std::string, std::pair<double, uint64_t>> acc_;
};

/// The billing path of a request outside the gateway: every signed log is
/// verified against the AE identity, sequence-checked, and appended to the
/// AE's ledger, exactly as the gateway's record path does. With `layers`
/// set, each call is timed on its own.
class DirectBilling {
 public:
  DirectBilling(core::AccountingEnclave& ae, size_t checkpoint_every);

  /// False (after recording nothing further) on the first rejected log.
  /// With `layers` set, `timed_us` receives the sum of the timed calls.
  bool record(const std::string& tenant, const std::string& function,
              const core::AccountingEnclave::Outcome& outcome,
              Layers* layers = nullptr, double* timed_us = nullptr);
  void seal() { ledger_.seal(); }
  const audit::Ledger& ledger() const { return ledger_; }
  const crypto::Digest& identity() const { return identity_; }
  /// Per-tenant totals of the final logs recorded so far.
  const std::map<std::string, audit::UsageTotals>& expected_totals() const {
    return expected_;
  }

 private:
  crypto::Digest identity_;
  faas::SequenceAuthority sequences_;
  audit::Ledger ledger_;
  std::map<std::string, audit::UsageTotals> expected_;
};

/// verify_ledger_set over `ledgers`; adds a failure to `result` unless the
/// set verifies and its merged totals equal `expected`. Returns the verify
/// wall time in microseconds per ledger entry.
double audit_ledgers(const std::vector<const audit::Ledger*>& ledgers,
                     const std::vector<crypto::Digest>& identities,
                     const std::map<std::string, audit::UsageTotals>& expected,
                     Result& result);

/// Times the prepare pipeline of one instrumented module layer by layer,
/// calling each layer's public function in the AE's order: evidence
/// verify, decode, validate, compile, counter-equivalence verify, the
/// optimisation pipeline, lowering bind. False if any layer refuses.
bool time_prepare_layers(const core::InstrumentationEnclave::Output& module,
                         const crypto::Digest& ie_identity, Layers& layers);

/// Wall-time split of the interpreter work of one request, in ns per billed
/// instruction: plain (uninstrumented, cache model off), instrumented with
/// the cache model off, and instrumented with it on (the AE's options).
struct InterpSplit {
  std::vector<double> plain, instr_off, instr_on, ae_execute;
  uint64_t billed = 0;        // reference instructions (unit weights)
  uint64_t instrumented = 0;  // executed by the instrumented module
  uint64_t llc_misses = 0;    // instrumented, cache model on
};

/// Runs `job` on benchmark-owned instances: a fresh instrumented instance
/// with the AE's options (instantiate, invoke and reset timed), then the
/// cache-off instrumented and plain variants (invoke timed).
void time_interp_layers(const Job& job,
                        const interp::CompiledModulePtr& instrumented,
                        const interp::Instance::Options& ae_options,
                        Layers& layers, InterpSplit& split);

/// Reports every per-layer metric from a traced replay. `service_us` is the
/// untraced mean request time the replay is compared against.
void report_layers(const Layers& layers, const InterpSplit& split,
                   double service_us, double shard_imbalance,
                   double prepared_hit_ratio, Result& result);

/// Times crypto::Signer construction per key and sign() over a serialized
/// resource log, on a benchmark-owned signer of `keys` one-time keys.
class SignProbe {
 public:
  SignProbe(uint32_t keys, Layers& layers);
  void sign(const core::ResourceUsageLog& log, Layers& layers);

 private:
  std::unique_ptr<crypto::Signer> signer_;
};

}  // namespace acctee::perfbench
