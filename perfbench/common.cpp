#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/opt/opt.hpp"
#include "analysis/verifier.hpp"
#include "audit/verifier.hpp"
#include "common/error.hpp"
#include "core/runtime_env.hpp"
#include "wasm/binary.hpp"
#include "wasm/validator.hpp"

namespace acctee::perfbench {

// --------------------------------------------------------------- result ---

void Result::fail(uint64_t n, const std::string& why) {
  failed_ += n;
  if (problems_.size() < 8) problems_.push_back(why);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail(1, "metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_.push_back({name, {value, unit}});
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].second.first);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].first +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics_[i].second.second + "\"}";
  }
  return out + "}}";
}

// ----------------------------------------------------------- statistics ---

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

bool RoundBudget::next() {
  double elapsed = seconds_since(start_);
  bool go = rounds_ < min_rounds_ ||
            (rounds_ > 0 &&
             elapsed + elapsed / static_cast<double>(rounds_) <= seconds_);
  if (go) ++rounds_;
  return go;
}

// --------------------------------------------------------------- policy ---

instrument::InstrumentOptions billing_policy() {
  instrument::InstrumentOptions options;
  options.pass = instrument::PassKind::LoopBased;
  options.weights = instrument::WeightTable::unit();
  options.opt_level = analysis::opt::kMaxOptLevel;
  return options;
}

core::AccountingEnclave::Config ae_config(const crypto::Digest& ie_identity,
                                          uint32_t signing_capacity,
                                          uint64_t checkpoint_interval) {
  core::AccountingEnclave::Config config;
  config.trusted_ie_identity = ie_identity;
  config.instrumentation = billing_policy();
  config.signing_capacity = signing_capacity;
  config.checkpoint_interval = checkpoint_interval;
  if (config.shadow_meter || config.profiler != nullptr) {
    throw Error("perfbench: the AE config must run without shadow meter "
                "and profiler");
  }
  return config;
}

interp::Instance::Options ae_instance_options(
    const core::AccountingEnclave::Config& config) {
  interp::Instance::Options options;
  options.platform = config.platform;
  options.max_instructions = config.max_instructions;
  options.dispatch = config.dispatch;
  return options;
}

uint32_t signing_capacity_for(uint64_t logs, size_t checkpoint_every) {
  uint64_t checkpoints = logs / checkpoint_every + 1;  // + the sealing one
  return static_cast<uint32_t>(logs + checkpoints + 2);
}

// ------------------------------------------------------- jobs, reference ---

Job make_job(std::string name, wasm::Module module, interp::Values args,
             Bytes input) {
  Job job;
  job.name = std::move(name);
  job.binary = wasm::encode(module);
  job.original = std::move(module);
  job.args = std::move(args);
  job.input = std::move(input);
  job.plain = interp::compile(job.original);

  core::IoChannel channel;
  channel.input = job.input;
  interp::Instance instance(
      job.plain, core::make_runtime_env(&channel),
      ae_instance_options(core::AccountingEnclave::Config{}));
  job.ref_results = instance.invoke(job.entry, job.args);
  job.ref_output = std::move(channel.output);
  job.ref_weighted =
      instance.stats().weighted(billing_policy().weights.raw());
  return job;
}

std::string check_outcome(const Job& job,
                          const core::AccountingEnclave::Outcome& outcome) {
  const core::ResourceUsageLog& log = outcome.signed_log.log;
  if (log.trapped) return job.name + ": trapped: " + outcome.trap_message;
  if (!log.is_final) return job.name + ": last log is not final";
  bool same_results = outcome.results.size() == job.ref_results.size();
  for (size_t i = 0; same_results && i < job.ref_results.size(); ++i) {
    same_results = outcome.results[i].type == job.ref_results[i].type &&
                   outcome.results[i].bits == job.ref_results[i].bits;
  }
  if (!same_results) return job.name + ": result differs from the reference";
  if (outcome.output != job.ref_output) {
    return job.name + ": output differs from the reference";
  }
  if (log.weighted_instructions != job.ref_weighted) {
    return job.name + ": billed " + std::to_string(log.weighted_instructions) +
           " weighted instructions, reference " +
           std::to_string(job.ref_weighted);
  }
  return "";
}

InstrumentedSet instrument_all(const std::vector<const Job*>& jobs,
                               const std::string& tag,
                               std::vector<double>* instrument_us) {
  InstrumentedSet set;
  set.platform = std::make_unique<sgx::Platform>(
      "perfbench-ie-" + tag, to_bytes("perfbench-ie-seed-" + tag));
  set.ie = std::make_unique<core::InstrumentationEnclave>(
      *set.platform, billing_policy(),
      static_cast<uint32_t>(std::max<size_t>(jobs.size(), 1)));
  set.outputs.reserve(jobs.size());
  for (const Job* job : jobs) {
    auto t0 = Clock::now();
    set.outputs.push_back(set.ie->instrument_binary(job->binary));
    if (instrument_us != nullptr) instrument_us->push_back(us_since(t0));
  }
  return set;
}

// --------------------------------------------------------------- layers ---

void Layers::add(const std::string& name, double value) {
  auto& [sum, count] = acc_[name];
  sum += value;
  ++count;
}

double Layers::mean(const std::string& name) const {
  auto it = acc_.find(name);
  if (it == acc_.end()) throw Error("perfbench: layer never timed: " + name);
  return it->second.first / static_cast<double>(it->second.second);
}

// -------------------------------------------------------------- billing ---

DirectBilling::DirectBilling(core::AccountingEnclave& ae,
                             size_t checkpoint_every)
    : identity_(ae.identity()), ledger_(checkpoint_every) {
  ledger_.set_ae_identity(identity_);
  core::AccountingEnclave* enclave = &ae;
  ledger_.set_checkpoint_signer([enclave](BytesView payload) {
    return enclave->sign_checkpoint(payload);
  });
}

bool DirectBilling::record(const std::string& tenant,
                           const std::string& function,
                           const core::AccountingEnclave::Outcome& outcome,
                           Layers* layers, double* timed_us) {
  double timed = 0;
  auto step = [&](const char* name, auto&& call) {
    if (layers == nullptr) return call();
    auto t0 = Clock::now();
    auto value = call();
    double us = us_since(t0);
    layers->add(name, us);
    timed += us;
    return value;
  };
  auto record_one = [&](const core::SignedResourceLog& log) {
    if (!step("core.log_verify_us", [&] { return log.verify(identity_); })) {
      return false;
    }
    if (!step("faas.sequence_accept_us", [&] {
          return sequences_.accept(identity_, log.log.sequence);
        })) {
      return false;
    }
    step("audit.ledger_append_us", [&] {
      ledger_.append(audit::LedgerEntry{tenant, function, log});
      return true;
    });
    return true;
  };
  bool ok = true;
  for (const core::SignedResourceLog& log : outcome.interim_logs) {
    if (!(ok = record_one(log))) break;
  }
  if (ok && (ok = record_one(outcome.signed_log))) {
    expected_[tenant].add(outcome.signed_log.log);
  }
  if (timed_us != nullptr) *timed_us = timed;
  return ok;
}

double audit_ledgers(const std::vector<const audit::Ledger*>& ledgers,
                     const std::vector<crypto::Digest>& identities,
                     const std::map<std::string, audit::UsageTotals>& expected,
                     Result& result) {
  // The auditor's read path is deterministic computation over the ledger
  // bytes: repeat it until 0.1 s was measured (at most 8 times) and keep
  // the fastest, the one least disturbed by other load on the machine.
  audit::LedgerSetReport report;
  double us = 0, total_us = 0;
  for (int rep = 0; rep < 8 && total_us < 1e5; ++rep) {
    auto t0 = Clock::now();
    report = audit::verify_ledger_set(ledgers, identities);
    double rep_us = us_since(t0);
    us = rep == 0 ? rep_us : std::min(us, rep_us);
    total_us += rep_us;
  }
  size_t entries = 0;
  for (const audit::Ledger* ledger : ledgers) {
    entries += ledger->entries().size();
  }
  if (!report.ok) {
    result.fail(std::max<size_t>(entries, 1),
                "verify_ledger_set failed: " + report.to_string());
  } else if (report.merged_totals != expected) {
    result.fail(std::max<size_t>(entries, 1),
                "merged ledger totals differ from the billed totals");
  }
  return us / static_cast<double>(std::max<size_t>(entries, 1));
}

bool time_prepare_layers(const core::InstrumentationEnclave::Output& module,
                         const crypto::Digest& ie_identity, Layers& layers) {
  const instrument::InstrumentOptions policy = billing_policy();
  const core::InstrumentationEvidence& evidence = module.evidence;
  bool ok = layers.time("core.evidence_verify_us",
                        [&] { return evidence.verify(ie_identity); });
  wasm::Module decoded = layers.time("wasm.decode_us", [&] {
    return wasm::decode(module.instrumented_binary);
  });
  std::string error;
  ok &= layers.time("wasm.validate_us",
                    [&] { return wasm::validate(decoded, &error); });
  interp::CompiledModule::CompileOptions no_validate;
  no_validate.validate = false;
  interp::CompiledModulePtr compiled = layers.time("interp.compile_us", [&] {
    return interp::compile(std::move(decoded), no_validate);
  });
  const instrument::HostChargePolicy host_charge =
      instrument::HostChargePolicy::for_module(compiled->module(),
                                               policy.host_call_weight);
  ok &= layers.time("analysis.verify_us", [&] {
    return analysis::verify_instrumented_module(
               compiled->module(), compiled->flat(), evidence.counter_global,
               policy.weights, host_charge)
        .ok;
  });
  // The AE's optimisation stage: re-run the pipeline and build the
  // artifact that executes the transformed form.
  interp::CompiledModulePtr optimised = layers.time("analysis.opt_us", [&] {
    analysis::opt::PipelineResult pr = analysis::opt::run_pipeline(
        compiled->module(), compiled->flat(), evidence.counter_global,
        policy.opt_level, policy.weights, host_charge);
    interp::CompiledModule::CompileOptions copts;
    copts.validate = false;
    copts.lower = compiled->lower_options();
    return std::make_shared<const interp::CompiledModule>(
        compiled->module(), std::move(pr.flat), compiled->flat(),
        std::move(copts), /*validated=*/true);
  });
  ok &= layers.time("analysis.lowering_bind_us", [&] {
    return !analysis::check_lowering(*optimised).has_value();
  });
  return ok;
}

void time_interp_layers(const Job& job,
                        const interp::CompiledModulePtr& instrumented,
                        const interp::Instance::Options& ae_options,
                        Layers& layers, InterpSplit& split) {
  // Instrumented, with the AE's own options (cache model on).
  core::IoChannel channel;
  channel.input = job.input;
  auto t0 = Clock::now();
  interp::Instance instance(instrumented, core::make_runtime_env(&channel),
                            ae_options);
  layers.add("interp.instantiate_us", us_since(t0));
  t0 = Clock::now();
  instance.invoke(job.entry, job.args);
  double on_us = us_since(t0);
  layers.add("interp.invoke_us", on_us);
  const interp::ExecStats on_stats = instance.stats();
  channel = core::IoChannel{};
  channel.input = job.input;
  layers.time("interp.reset_us", [&] { instance.reset(); });

  interp::Instance::Options cache_off = ae_options;
  cache_off.cache_model = false;
  auto invoke_us = [&](const interp::CompiledModulePtr& compiled) {
    core::IoChannel ch;
    ch.input = job.input;
    interp::Instance inst(compiled, core::make_runtime_env(&ch), cache_off);
    auto start = Clock::now();
    inst.invoke(job.entry, job.args);
    return us_since(start);
  };
  double off_us = invoke_us(instrumented);
  double plain_us = invoke_us(job.plain);

  const double billed =
      static_cast<double>(std::max<uint64_t>(job.ref_weighted, 1));
  split.instr_on.push_back(on_us * 1e3 / billed);
  split.instr_off.push_back(off_us * 1e3 / billed);
  split.plain.push_back(plain_us * 1e3 / billed);
  split.billed += job.ref_weighted;
  split.instrumented += on_stats.instructions;
  split.llc_misses += on_stats.llc_misses;
}

void report_layers(const Layers& layers, const InterpSplit& split,
                   double service_us, double shard_imbalance,
                   double prepared_hit_ratio, Result& result) {
  static const char* const kMicros[] = {
      "interp.reset_us",        "interp.instantiate_us",
      "interp.invoke_us",       "interp.compile_us",
      "wasm.decode_us",         "wasm.validate_us",
      "analysis.verify_us",     "analysis.opt_us",
      "analysis.lowering_bind_us", "core.evidence_verify_us",
      "core.prepare_us",        "core.ae_execute_us",
      "core.log_verify_us",     "crypto.sign_us",
      "crypto.keygen_us_per_key", "audit.ledger_append_us",
      "faas.sequence_accept_us", "instrument.instrument_us",
  };
  for (const char* name : kMicros) result.metric(name, layers.mean(name), "us");

  const double stage_sum = layers.mean("bench.replay_stage_sum_us");
  result.metric("faas.unattributed_us", service_us - stage_sum, "us");
  result.metric("faas.shard_imbalance", shard_imbalance, "ratio");
  result.metric("core.prepared_hit_ratio", prepared_hit_ratio, "ratio");
  result.metric("bench.service_us", service_us, "us");
  result.metric("bench.replay_stage_sum_us", stage_sum, "us");
  result.metric("bench.replay_request_us",
                layers.mean("bench.replay_request_us"), "us");

  // ns per billed instruction. The instrumented cache-on invoke is split
  // into dispatch (plain, cache off), instrumentation (instrumented minus
  // plain, both cache off) and cache simulation (on minus off): each share
  // is the mean fraction over requests times the geomean of the whole, so
  // the three sum to it exactly.
  const size_t n = split.instr_on.size();
  double f_plain = 0, f_instr = 0, f_cache = 0;
  for (size_t i = 0; i < n; ++i) {
    f_plain += split.plain[i] / split.instr_on[i];
    f_instr += (split.instr_off[i] - split.plain[i]) / split.instr_on[i];
    f_cache += (split.instr_on[i] - split.instr_off[i]) / split.instr_on[i];
  }
  const double on = geomean(split.instr_on);
  const double scale = on / static_cast<double>(std::max<size_t>(n, 1));
  result.metric("interp.dispatch_ns_per_instr", f_plain * scale, "ns/instr");
  result.metric("instrument.ns_per_instr", f_instr * scale, "ns/instr");
  result.metric("cachesim.ns_per_instr", f_cache * scale, "ns/instr");
  result.metric("core.overhead_ns_per_instr",
                geomean(split.ae_execute) - on, "ns/instr");
  const double billed =
      static_cast<double>(std::max<uint64_t>(split.billed, 1));
  result.metric("instrument.added_instr_frac",
                (static_cast<double>(split.instrumented) - billed) / billed,
                "ratio");
  result.metric("cachesim.llc_miss_per_kinstr",
                static_cast<double>(split.llc_misses) * 1e3 / billed,
                "1/kinstr");
}

SignProbe::SignProbe(uint32_t keys, Layers& layers) {
  auto t0 = Clock::now();
  signer_ = std::make_unique<crypto::Signer>(to_bytes("perfbench-sign-probe"),
                                             keys);
  layers.add("crypto.keygen_us_per_key", us_since(t0) / keys);
}

void SignProbe::sign(const core::ResourceUsageLog& log, Layers& layers) {
  if (signer_->keys_remaining() == 0) return;
  Bytes canonical = log.serialize();
  layers.time("crypto.sign_us", [&] { return signer_->sign(canonical); });
}

}  // namespace acctee::perfbench
