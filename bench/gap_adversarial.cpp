// Adversarial billed-vs-true gap benchmark (DESIGN.md §18).
//
// Runs the adversarial workload family (src/workloads/adversarial.hpp)
// through the full IE -> AE pipeline with the shadow resource meter
// attached, and reports the billed-vs-true cost gap per workload and
// dimension. The host-sink workload additionally runs under the per-host-
// call surcharge (InstrumentOptions::host_call_weight) to show the gap
// closing once host entries are priced.
//
// Modes:
//   --json <path>   machine-readable BENCH_gap.json (CI archives it),
//   --check         gate mode: exit 1 when any workload's headline cycles
//                   gap ratio leaves its recorded band — a too-small
//                   adversarial ratio means the meter lost sight of a gap,
//                   a too-large baseline/closed ratio means accounting
//                   regressed,
//   --neutrality    billing-neutrality mode: run every workload twice on
//                   identically-seeded platforms with the meter off and on,
//                   require bit-identical ExecStats and signed ledger
//                   bytes (exit 1 on any difference),
//   --smoke         CI scale.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/accounting_enclave.hpp"
#include "core/instrumentation_enclave.hpp"
#include "wasm/binary.hpp"
#include "workloads/adversarial.hpp"

using namespace acctee;

namespace {

struct Pipeline {
  sgx::Platform platform;
  core::InstrumentationEnclave ie;
  core::AccountingEnclave ae;

  Pipeline(const std::string& id, uint64_t host_call_weight, bool meter)
      : platform(id, to_bytes("gap-bench-seed")),
        ie(platform, options(host_call_weight)),
        ae(platform, ae_config(ie, host_call_weight, meter)) {}

  static instrument::InstrumentOptions options(uint64_t host_call_weight) {
    instrument::InstrumentOptions opts;
    opts.pass = instrument::PassKind::LoopBased;
    opts.host_call_weight = host_call_weight;
    return opts;
  }

  static core::AccountingEnclave::Config ae_config(
      core::InstrumentationEnclave& ie, uint64_t host_call_weight, bool meter) {
    core::AccountingEnclave::Config config;
    config.trusted_ie_identity = ie.identity();
    config.instrumentation = options(host_call_weight);
    config.platform = interp::Platform::WasmSgxSim;
    config.shadow_meter = meter;
    return config;
  }

  core::AccountingEnclave::Outcome run(const workloads::AdversarialCase& c) {
    Bytes binary = wasm::encode(c.module);
    auto deployed = ie.instrument_binary(binary);
    return ae.execute(deployed.instrumented_binary, deployed.evidence, "run",
                      {}, c.input);
  }
};

struct DimensionRow {
  const char* name;
  interp::GapDimension value;
};

std::vector<DimensionRow> rows(const interp::GapProfile& gap) {
  return {{"cycles", gap.cycles},
          {"host_cycles", gap.host_cycles},
          {"cache_cycles", gap.cache_cycles},
          {"mem_grow_bytes", gap.mem_grow_bytes},
          {"io_bytes", gap.io_bytes}};
}

/// Recorded headline-cycles gap-ratio bands, the CI regression gate. The
/// lower bound asserts the meter still *sees* each adversarial gap; the
/// upper bound asserts sound accounting stays sound (baseline) and that the
/// host surcharge still closes the host gap (host_sink+charge). Bands are
/// deliberately loose: they catch order-of-magnitude regressions, not
/// machine noise.
struct RatioBand {
  const char* workload;
  double min_ratio;
  double max_ratio;
};

constexpr RatioBand kBands[] = {
    {"baseline", 0.5, 8.0},
    {"host_sink", 20.0, 1e9},
    {"grow_churn", 1.0, 1e9},
    {"io_amplifier", 4.0, 1e9},
    {"cache_thrasher", 4.0, 1e9},
    {"instr_asymmetry", 2.0, 1e9},
    {"host_sink+charge", 0.2, 8.0},
};

bool flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

int run_neutrality(uint32_t scale) {
  // Identically-seeded platforms => identical AE signer identities and
  // sequence spaces; the only difference between the two runs is the meter.
  Pipeline off("gap-neutrality", 0, /*meter=*/false);
  Pipeline on("gap-neutrality", 0, /*meter=*/true);

  bool ok = true;
  for (const workloads::AdversarialCase& c :
       workloads::adversarial_suite(scale)) {
    auto a = off.run(c);
    auto b = on.run(c);
    Bytes la = a.signed_log.log.serialize();
    Bytes lb = b.signed_log.log.serialize();
    const bool stats_equal = a.stats == b.stats;
    const bool logs_equal =
        la == lb && a.signed_log.signature.serialize() ==
                        b.signed_log.signature.serialize();
    if (!stats_equal || !logs_equal) {
      std::printf("NEUTRALITY VIOLATION: %s (stats %s, log %s)\n",
                  c.name.c_str(), stats_equal ? "ok" : "DIFFER",
                  logs_equal ? "ok" : "DIFFER");
      ok = false;
    }
    if (!b.gap.has_value()) {
      std::printf("NEUTRALITY: %s produced no gap profile with meter on\n",
                  c.name.c_str());
      ok = false;
    }
  }
  std::printf("neutrality: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_requested(argc, argv);
  const uint32_t scale = smoke ? 1 : 4;
  if (flag(argc, argv, "--neutrality")) return run_neutrality(scale);

  bench::JsonReporter json("gap_adversarial", argc, argv);
  const bool check = flag(argc, argv, "--check");

  Pipeline plain("gap-bench", 0, /*meter=*/true);
  // The gap-closing configuration: host entries surcharged at the simulated
  // ring-transition cost, wired through evidence and re-proved by the AE's
  // counter-equivalence verifier.
  const uint64_t host_weight =
      interp::CostConfig::for_platform(interp::Platform::WasmSgxSim)
          .host_call_cycles;
  Pipeline charged("gap-bench-charged", host_weight, /*meter=*/true);

  struct Measured {
    std::string name;
    interp::GapProfile gap;
  };
  std::vector<Measured> measured;

  for (const workloads::AdversarialCase& c :
       workloads::adversarial_suite(scale)) {
    auto outcome = plain.run(c);
    measured.push_back({c.name, outcome.gap.value()});
    if (c.name == "host_sink") {
      auto closed = charged.run(c);
      measured.push_back({"host_sink+charge", closed.gap.value()});
    }
  }

  std::printf("%-18s %-15s %14s %14s %10s\n", "workload", "dimension",
              "billed", "true", "ratio");
  for (const Measured& m : measured) {
    for (const DimensionRow& row : rows(m.gap)) {
      std::printf("%-18s %-15s %14llu %14llu %10.2f\n", m.name.c_str(),
                  row.name,
                  static_cast<unsigned long long>(row.value.billed),
                  static_cast<unsigned long long>(row.value.true_cost),
                  row.value.gap_ratio());
    }
    json.record(m.name, 1, 0, 0,
                {{"billed_cycles", static_cast<double>(m.gap.cycles.billed)},
                 {"true_cycles", static_cast<double>(m.gap.cycles.true_cost)},
                 {"cycles_gap_ratio", m.gap.cycles.gap_ratio()},
                 {"host_gap_ratio", m.gap.host_cycles.gap_ratio()},
                 {"cache_true_cycles",
                  static_cast<double>(m.gap.cache_cycles.true_cost)},
                 {"grow_true_bytes",
                  static_cast<double>(m.gap.mem_grow_bytes.true_cost)},
                 {"io_gap_ratio", m.gap.io_bytes.gap_ratio()}});
  }
  if (!json.write()) return 1;

  if (check) {
    bool ok = true;
    for (const RatioBand& band : kBands) {
      const Measured* m = nullptr;
      for (const Measured& candidate : measured) {
        if (candidate.name == band.workload) m = &candidate;
      }
      if (m == nullptr) {
        std::printf("GATE: workload %s missing from run\n", band.workload);
        ok = false;
        continue;
      }
      const double ratio = m->gap.cycles.gap_ratio();
      if (ratio < band.min_ratio || ratio > band.max_ratio) {
        std::printf("GATE: %s cycles gap ratio %.2f outside [%.2f, %.2f]\n",
                    band.workload, ratio, band.min_ratio, band.max_ratio);
        ok = false;
      }
    }
    std::printf("gap gate: %s\n", ok ? "PASS" : "FAIL");
    if (!ok) return 1;
  }
  return 0;
}
