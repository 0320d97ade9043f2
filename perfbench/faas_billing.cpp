// faas_billing: billed echo requests through the sharded gateway.
//
// 2 shards x 1 worker fed by 1 producer (Block backpressure, pooled
// instances), tenants uniform over 1,000, images of 32/64/128 px. Each
// round deploys afresh (IE instrumentation, gateway, per-worker AE keys
// sized to the round) and submits its whole stream as one closed batch.
#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "common/rng.hpp"
#include "faas/sharded_gateway.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"
#include "workloads/faas_functions.hpp"

namespace acctee::perfbench {

namespace {

constexpr uint32_t kTenants = 1000;
constexpr uint32_t kSides[] = {32, 64, 128};
constexpr size_t kImagesPerSide = 8;
constexpr size_t kRoundRequests = 1000;
constexpr size_t kCheckpointEvery = 64;
constexpr uint32_t kShards = 2;

struct Inputs {
  // echo jobs, one per image side (reference runs of that size)
  std::vector<Job> echo;
  std::vector<std::vector<Bytes>> images;  // [side][k]
};

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  Xoshiro256 rng(seed);
  for (uint32_t side : kSides) {
    std::vector<Bytes> images;
    for (size_t k = 0; k < kImagesPerSide; ++k) {
      images.push_back(workloads::make_test_image(side, rng.next()));
    }
    in.echo.push_back(make_job("echo-" + std::to_string(side),
                               workloads::faas_echo(), {}, images.front()));
    in.images.push_back(std::move(images));
  }
  return in;
}

struct Stream {
  std::vector<faas::Request> requests;
  std::vector<size_t> side;  // index into kSides per request
};

Stream make_stream(const Inputs& in, uint64_t seed, size_t round) {
  Stream s;
  Xoshiro256 rng(SplitMix64(seed).next() + round);
  for (size_t i = 0; i < kRoundRequests; ++i) {
    char tenant[32];
    std::snprintf(tenant, sizeof tenant, "tenant-%04u",
                  static_cast<unsigned>(rng.next_below(kTenants)));
    size_t side = rng.next_below(std::size(kSides));
    s.requests.push_back(
        {tenant, in.images[side][rng.next_below(kImagesPerSide)]});
    s.side.push_back(side);
  }
  return s;
}

faas::ShardedGatewayConfig gateway_config() {
  faas::ShardedGatewayConfig config;
  config.base.setup = faas::Setup::WasmSgxHwInstr;
  config.shards = kShards;
  config.workers_per_shard = 1;
  config.pool_instances = true;
  config.backpressure = faas::ShardedGatewayConfig::Backpressure::Block;
  return config;
}

struct Deployment {
  InstrumentedSet ie;
  std::unique_ptr<faas::ShardedGateway> gateway;
};

/// The round's cold deploy: instrument echo, build the gateway, provision
/// one AE per worker with keys for the logs its shard will sign.
Deployment deploy(const Inputs& in, const Stream& stream, size_t round) {
  Deployment d;
  d.ie = instrument_all({&in.echo.front()}, "faas" + std::to_string(round));
  d.gateway = std::make_unique<faas::ShardedGateway>(
      interp::compile(in.echo.front().original), "run", gateway_config());
  std::vector<uint64_t> per_shard(kShards, 0);
  for (const faas::Request& r : stream.requests) {
    ++per_shard[d.gateway->shard_for(r.tenant)];
  }
  uint64_t busiest = *std::max_element(per_shard.begin(), per_shard.end());
  const core::InstrumentationEnclave::Output& echo = d.ie.outputs.front();
  d.gateway->deploy_billing(
      "perfbench-faas-" + std::to_string(round),
      to_bytes("perfbench-faas-seed-" + std::to_string(round)),
      ae_config(d.ie.ie->identity(),
                signing_capacity_for(busiest, kCheckpointEvery)),
      echo.instrumented_binary, echo.evidence, kCheckpointEvery);
  return d;
}

struct RoundStats {
  double setup_s = 0, rps = 0, p50_us = 0, p99_us = 0, mean_us = 0;
  double ns_per_instr = 0, audit_us_per_log = 0, imbalance = 0;
};

/// One deploy + closed batch + correctness gate.
RoundStats run_round(const Inputs& in, const Stream& stream, size_t round,
                     Result& result) {
  RoundStats rs;
  auto t0 = Clock::now();
  Deployment d = deploy(in, stream, round);
  rs.setup_s = seconds_since(t0);

  const size_t n = stream.requests.size();
  result.attempt(n);
  std::vector<Bytes> outputs;
  faas::ScenarioResult sr =
      d.gateway->run_scenario(stream.requests, /*producers=*/1, &outputs);
  if (sr.shed_total + sr.quota_rejected_total != 0 ||
      sr.totals.requests != n) {
    result.fail(n - std::min<uint64_t>(sr.totals.requests, n),
                "gateway shed, refused or lost requests");
  }
  uint64_t bad_outputs = 0;
  for (size_t i = 0; i < n; ++i) {
    if (outputs[i] != stream.requests[i].input) ++bad_outputs;
  }
  if (bad_outputs != 0) result.fail(bad_outputs, "echo output != input");

  // Each worker drains its shard's queue in stream order, so its ledger
  // must hold exactly those requests' final logs, in order.
  std::vector<const audit::Ledger*> ledgers = d.gateway->ledgers();
  std::vector<std::vector<size_t>> expected(ledgers.size());
  for (size_t i = 0; i < n; ++i) {
    expected[d.gateway->shard_for(stream.requests[i].tenant)].push_back(i);
  }
  uint64_t billed = 0, bad_logs = 0;
  for (size_t s = 0; s < ledgers.size(); ++s) {
    const auto& entries = ledgers[s]->entries();
    if (entries.size() != expected[s].size()) {
      result.fail(n, "ledger entry count differs from the routed requests");
      continue;
    }
    for (size_t k = 0; k < entries.size(); ++k) {
      const faas::Request& req = stream.requests[expected[s][k]];
      const core::ResourceUsageLog& log = entries[k].signed_log.log;
      const Job& ref = in.echo[stream.side[expected[s][k]]];
      if (entries[k].tenant != req.tenant || !log.is_final || log.trapped ||
          log.weighted_instructions != ref.ref_weighted) {
        ++bad_logs;
      }
      billed += log.weighted_instructions;
    }
  }
  if (bad_logs != 0) result.fail(bad_logs, "signed echo log != reference");
  rs.audit_us_per_log = audit_ledgers(ledgers, d.gateway->ae_identities(),
                                      d.gateway->billing_totals(), result);

  rs.rps = sr.wall_requests_per_second;
  rs.p50_us = sr.totals.latency_p50_ms * 1e3;
  rs.p99_us = sr.totals.latency_p99_ms * 1e3;
  rs.mean_us = sr.totals.latency_mean_ms * 1e3;
  rs.ns_per_instr = rs.mean_us * 1e3 * static_cast<double>(n) /
                    static_cast<double>(std::max<uint64_t>(billed, 1));
  rs.imbalance = sr.shard_imbalance;
  return rs;
}

/// The traced replay: the round's stream again, serially, through the
/// public calls of the gateway's billing path with a timer around each.
void replay(const Inputs& in, const Stream& stream, Layers& layers,
            InterpSplit& split, double* hit_ratio, Result& result) {
  std::vector<double> instrument_us;
  InstrumentedSet ie = instrument_all({&in.echo.front()}, "faas-replay",
                                      &instrument_us);
  for (double us : instrument_us) layers.add("instrument.instrument_us", us);
  const core::InstrumentationEnclave::Output& echo = ie.outputs.front();
  for (int i = 0; i < 16; ++i) {
    if (!time_prepare_layers(echo, ie.ie->identity(), layers)) {
      result.fail(1, "echo prepare layers refused the module");
    }
  }

  const size_t n = stream.requests.size();
  sgx::Platform platform("perfbench-faas-replay",
                         to_bytes("perfbench-faas-replay-seed"));
  core::AccountingEnclave::Config config =
      ae_config(ie.ie->identity(), signing_capacity_for(n, kCheckpointEvery));
  core::AccountingEnclave ae(platform, config);
  ae.prepare_pinned(echo.instrumented_binary, echo.evidence);
  const uint64_t hits0 = ae.prepared_cache_hits();
  const uint64_t misses0 = ae.prepared_cache_misses();
  DirectBilling billing(ae, kCheckpointEvery);
  core::AccountingEnclave::ExecSlot slot;
  SignProbe signer(static_cast<uint32_t>(std::min<size_t>(n, 512)), layers);
  const interp::Instance::Options options = ae_instance_options(config);
  std::map<std::string, uint64_t> admissions;

  result.attempt(n);
  for (size_t i = 0; i < n; ++i) {
    const faas::Request& req = stream.requests[i];
    const Job& ref = in.echo[stream.side[i]];
    obs::TraceContext context =
        obs::make_trace_context(req.tenant, admissions[req.tenant]++);
    obs::TraceScope scope(context);
    // The gateway resolves its pinned module by pointer; the public
    // equivalent is prepare(), a pinned hit.
    auto t0 = Clock::now();
    auto prepared = ae.prepare(echo.instrumented_binary, echo.evidence);
    double prepare_us = us_since(t0);
    layers.add("core.prepare_us", prepare_us);
    auto t1 = Clock::now();
    core::AccountingEnclave::Outcome outcome =
        ae.execute(*prepared, "run", {}, req.input, slot);
    double execute_us = us_since(t1);
    layers.add("core.ae_execute_us", execute_us);
    double billing_us = 0;
    bool recorded = billing.record(req.tenant, "run", outcome, &layers,
                                   &billing_us);
    layers.add("bench.replay_request_us", us_since(t0));
    layers.add("bench.replay_stage_sum_us",
               prepare_us + execute_us + billing_us);
    if (!recorded || outcome.output != req.input ||
        outcome.signed_log.log.weighted_instructions != ref.ref_weighted) {
      result.fail(1, "replayed echo request failed its gate");
    }
    split.ae_execute.push_back(
        execute_us * 1e3 / static_cast<double>(ref.ref_weighted));
    signer.sign(outcome.signed_log.log, layers);
    // Echo's work depends only on the input size: the interpreter layers
    // run on the reference image of the request's size.
    time_interp_layers(ref, prepared->compiled, options, layers, split);
  }
  billing.seal();
  audit_ledgers({&billing.ledger()}, {billing.identity()},
                billing.expected_totals(), result);
  const double hits = static_cast<double>(ae.prepared_cache_hits() - hits0);
  const double misses =
      static_cast<double>(ae.prepared_cache_misses() - misses0);
  *hit_ratio = hits / std::max(hits + misses, 1.0);
}

}  // namespace

void run_faas_billing(const Args& args, Result& result) {
  const Inputs in = make_inputs(args.seed);
  std::vector<RoundStats> rounds;
  RoundBudget budget(args.trace ? args.seconds / 3 : args.seconds,
                     args.trace ? 1 : 3);
  while (budget.next()) {
    Stream stream = make_stream(in, args.seed, budget.rounds() - 1);
    rounds.push_back(run_round(in, stream, budget.rounds() - 1, result));
    const RoundStats& r = rounds.back();
    std::fprintf(stderr,
                 "round %zu: setup %.3f s, %.0f req/s, p50 %.1f us, p99 %.1f "
                 "us, imbalance %.3f\n",
                 rounds.size() - 1, r.setup_s, r.rps, r.p50_us, r.p99_us,
                 r.imbalance);
  }
  auto med = [&](double RoundStats::*field) {
    std::vector<double> v;
    for (const RoundStats& r : rounds) v.push_back(r.*field);
    return median(std::move(v));
  };
  auto lowest = [&](double RoundStats::*field) {
    double v = rounds.front().*field;
    for (const RoundStats& r : rounds) v = std::min(v, r.*field);
    return v;
  };
  std::fprintf(stderr, "faas_billing: %zu rounds of %zu requests\n",
               rounds.size(), kRoundRequests);
  if (!args.trace) {
    result.metric("setup_s", med(&RoundStats::setup_s), "s");
    result.metric("requests_per_s", med(&RoundStats::rps), "1/s");
    result.metric("request_p50_us", med(&RoundStats::p50_us), "us");
    // A round's p99 is where stalls caused by other load on the machine
    // land; the lowest round p99 is the tail the gateway itself produces.
    result.metric("request_p99_us", lowest(&RoundStats::p99_us), "us");
    result.metric("ns_per_instr", med(&RoundStats::ns_per_instr), "ns/instr");
    // Verification repeats identical work every round: keep the fastest.
    result.metric("audit_us_per_log", lowest(&RoundStats::audit_us_per_log),
                  "us");
    return;
  }
  Layers layers;
  InterpSplit split;
  double hit_ratio = 0;
  replay(in, make_stream(in, args.seed, 0), layers, split, &hit_ratio, result);
  report_layers(layers, split, med(&RoundStats::mean_us),
                med(&RoundStats::imbalance), hit_ratio, result);
}

}  // namespace acctee::perfbench
