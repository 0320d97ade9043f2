#include "direct_ae.hpp"

#include <algorithm>
#include <cstdio>

namespace acctee::perfbench {

namespace {

constexpr size_t kCheckpointEvery = 64;

struct Deployment {
  InstrumentedSet ie;
  std::unique_ptr<sgx::Platform> platform;
  std::unique_ptr<core::AccountingEnclave> ae;
  std::vector<std::shared_ptr<const core::AccountingEnclave::PreparedModule>>
      prepared;  // per job; empty unless prepare_at_deploy
};

/// A cold deploy: one IE instruments every job, one AE gets keys for the
/// logs `order` will sign (and, for compute_jobs, prepares every job).
Deployment deploy(const DirectWorkload& w, const std::vector<size_t>& order,
                  const std::string& tag,
                  std::vector<double>* instrument_us = nullptr) {
  Deployment d;
  std::vector<const Job*> jobs;
  for (const Job& job : w.jobs) jobs.push_back(&job);
  d.ie = instrument_all(jobs, w.name + tag, instrument_us);
  uint64_t logs = 0;
  for (size_t j : order) logs += w.logs_per_run(w.jobs[j]);
  d.platform = std::make_unique<sgx::Platform>(
      "perfbench-ae-" + w.name + tag,
      to_bytes("perfbench-ae-seed-" + w.name + tag));
  d.ae = std::make_unique<core::AccountingEnclave>(
      *d.platform,
      ae_config(d.ie.ie->identity(),
                signing_capacity_for(logs, kCheckpointEvery),
                w.checkpoint_interval));
  if (w.prepare_at_deploy) {
    for (const auto& out : d.ie.outputs) {
      d.prepared.push_back(
          d.ae->prepare(out.instrumented_binary, out.evidence));
    }
  }
  return d;
}

std::string tenant_of(size_t job) { return "tenant-" + std::to_string(job); }

struct RoundStats {
  double setup_s = 0, audit_us_per_log = 0;
};

RoundStats run_round(const DirectWorkload& w, const std::vector<size_t>& order,
                     size_t round, Result& result,
                     std::vector<std::vector<double>>& job_ns,
                     std::vector<std::vector<double>>& job_us) {
  RoundStats rs;
  auto t0 = Clock::now();
  Deployment d = deploy(w, order, "-r" + std::to_string(round));
  rs.setup_s = seconds_since(t0);

  DirectBilling billing(*d.ae, kCheckpointEvery);
  for (size_t j : order) {
    const Job& job = w.jobs[j];
    const core::InstrumentationEnclave::Output& module = d.ie.outputs[j];
    result.attempt(1);
    auto start = Clock::now();
    core::AccountingEnclave::Outcome outcome =
        w.prepare_at_deploy
            ? d.ae->execute(*d.prepared[j], job.entry, job.args, job.input)
            : d.ae->execute(module.instrumented_binary, module.evidence,
                            job.entry, job.args, job.input);
    double execute_us = us_since(start);
    bool recorded = billing.record(tenant_of(j), job.name, outcome);
    job_us[j].push_back(us_since(start));
    std::string why = recorded ? check_outcome(job, outcome)
                               : job.name + ": billing path rejected a log";
    if (!why.empty()) result.fail(1, why);
    job_ns[j].push_back(execute_us * 1e3 /
                        static_cast<double>(job.ref_weighted));
  }
  billing.seal();
  rs.audit_us_per_log = audit_ledgers({&billing.ledger()}, {billing.identity()},
                                      billing.expected_totals(), result);
  std::fprintf(stderr, "round %zu: setup %.3f s, audit %.1f us per log\n",
               round, rs.setup_s, rs.audit_us_per_log);
  return rs;
}

/// The traced replay of one round's requests: the same public calls in the
/// same order, each timed on its own, plus the layers below them.
void replay(const DirectWorkload& w, const std::vector<size_t>& order,
            double service_us, Result& result) {
  Layers layers;
  InterpSplit split;
  std::vector<double> instrument_us;
  Deployment d = deploy(w, order, "-replay", &instrument_us);
  for (double us : instrument_us) layers.add("instrument.instrument_us", us);
  const crypto::Digest ie_identity = d.ie.ie->identity();
  if (w.prepare_at_deploy) {
    for (const auto& module : d.ie.outputs) {
      if (!time_prepare_layers(module, ie_identity, layers)) {
        result.fail(1, "prepare layers refused a deployed module");
      }
    }
  }
  core::AccountingEnclave& ae = *d.ae;
  const uint64_t hits0 = ae.prepared_cache_hits();
  const uint64_t misses0 = ae.prepared_cache_misses();
  DirectBilling billing(ae, kCheckpointEvery);
  SignProbe signer(static_cast<uint32_t>(std::min<size_t>(order.size(), 512)),
                   layers);
  const interp::Instance::Options options = ae_instance_options(ae.config());

  for (size_t j : order) {
    const Job& job = w.jobs[j];
    const core::InstrumentationEnclave::Output& module = d.ie.outputs[j];
    result.attempt(1);
    if (!w.prepare_at_deploy &&
        !time_prepare_layers(module, ie_identity, layers)) {
      result.fail(1, job.name + ": prepare layers refused the module");
    }
    auto t0 = Clock::now();
    auto prepared = ae.prepare(module.instrumented_binary, module.evidence);
    double prepare_us = us_since(t0);
    auto t1 = Clock::now();
    core::AccountingEnclave::Outcome outcome =
        ae.execute(*prepared, job.entry, job.args, job.input);
    double execute_us = us_since(t1);
    double billing_us = 0;
    bool recorded =
        billing.record(tenant_of(j), job.name, outcome, &layers, &billing_us);
    layers.add("bench.replay_request_us", us_since(t0));
    layers.add("core.prepare_us", prepare_us);
    layers.add("core.ae_execute_us", execute_us);
    layers.add("bench.replay_stage_sum_us",
               prepare_us + execute_us + billing_us);
    std::string why = recorded ? check_outcome(job, outcome)
                               : job.name + ": billing path rejected a log";
    if (!why.empty()) result.fail(1, why);
    split.ae_execute.push_back(execute_us * 1e3 /
                               static_cast<double>(job.ref_weighted));
    signer.sign(outcome.signed_log.log, layers);
    time_interp_layers(job, prepared->compiled, options, layers, split);
  }
  billing.seal();
  audit_ledgers({&billing.ledger()}, {billing.identity()},
                billing.expected_totals(), result);
  const double hits = static_cast<double>(ae.prepared_cache_hits() - hits0);
  const double misses =
      static_cast<double>(ae.prepared_cache_misses() - misses0);
  report_layers(layers, split, service_us, /*shard_imbalance=*/1.0,
                hits / std::max(hits + misses, 1.0), result);
}

}  // namespace

void run_direct(const DirectWorkload& w, const Args& args, Result& result) {
  std::vector<RoundStats> rounds;
  // Per job: AE-execute ns per billed instruction, request microseconds.
  std::vector<std::vector<double>> job_ns(w.jobs.size());
  std::vector<std::vector<double>> job_us(w.jobs.size());
  RoundBudget budget(args.trace ? args.seconds / 4 : args.seconds,
                     args.trace ? 1 : 3);
  while (budget.next()) {
    size_t round = budget.rounds() - 1;
    rounds.push_back(
        run_round(w, w.order(round), round, result, job_ns, job_us));
  }
  double request_sum_us = 0;
  size_t requests = 0;
  for (const std::vector<double>& us : job_us) {
    for (double v : us) request_sum_us += v;
    requests += us.size();
  }
  std::fprintf(stderr, "%s: %zu rounds, %zu requests\n", w.name.c_str(),
               rounds.size(), requests);
  if (args.trace) {
    replay(w, w.order(0), request_sum_us / static_cast<double>(requests),
           result);
    return;
  }

  // Every request of these workloads is identical, deterministic work that
  // recurs every round (a job) or every pass over the pool (a module), so
  // each job is represented by its fastest execution, the one least
  // disturbed by other load on the machine. Throughput is one pass over
  // the jobs at those times; latency percentiles are taken over the jobs.
  std::vector<double> per_job_ns, per_job_us;
  double pass_us = 0;
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    if (job_ns[j].empty()) continue;
    per_job_ns.push_back(*std::min_element(job_ns[j].begin(),
                                           job_ns[j].end()));
    per_job_us.push_back(*std::min_element(job_us[j].begin(),
                                           job_us[j].end()));
    pass_us += per_job_us.back();
    std::printf("job %-14s ns_per_instr %.4f  request_us %.1f  "
                "instructions %llu  runs %zu\n",
                w.jobs[j].name.c_str(), per_job_ns.back(), per_job_us.back(),
                static_cast<unsigned long long>(w.jobs[j].ref_weighted),
                job_ns[j].size());
  }
  std::vector<double> setup_s;
  double audit_us = rounds.front().audit_us_per_log;
  for (const RoundStats& r : rounds) {
    setup_s.push_back(r.setup_s);
    audit_us = std::min(audit_us, r.audit_us_per_log);
  }
  result.metric("setup_s", median(setup_s), "s");
  result.metric("requests_per_s",
                static_cast<double>(per_job_us.size()) * 1e6 / pass_us, "1/s");
  result.metric("request_p50_us", percentile(per_job_us, 0.50), "us");
  result.metric("request_p99_us", percentile(per_job_us, 0.99), "us");
  result.metric("ns_per_instr", geomean(per_job_ns), "ns/instr");
  result.metric("audit_us_per_log", audit_us, "us");
}

}  // namespace acctee::perfbench
