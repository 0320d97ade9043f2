// Verified optimising middle-end (DESIGN.md §19).
//
// A deterministic pass pipeline over the flattened form that *transforms*
// instrumented code instead of only checking it, under a verify-after-each-
// pass discipline: every pass output must re-prove the §14 counter-
// equivalence property (via the collapsed view of its guarded fast-path
// regions) before the next pass runs, and the whole pipeline is re-run and
// byte-compared inside the AE before an optimised module is ever executed
// (the same verify-then-bind discipline §15 established for lowering).
//
// Passes (all gated by opt_level, all OFF at level 0):
//   1 dead-blocks     elide statically unreachable flat code; the recovered
//                     cost vector shrinks by exactly the elided weight
//   1 coalesce-calls  inline tiny straight-line leaf callees behind a
//                     guarded region: one fused charge replaces the call
//                     plus the callee's own increment
//   2 fold-loops      fold constant-trip single-block counted loops
//                     (br_if-bottom, any of lt_s/le_s/gt_s/ge_s/ne, step≠1)
//                     into one multiply-and-charge region
//   3 fold-loops      additionally folds perfect two-level counted nests
//
// The transforms never change *what* the workload pays — only where the
// accounting executes: ExecStats, checkpoint firings and signed ledger
// bytes are bit-identical between opt_level=0 and opt_level=max (the
// region guard falls back to the verbatim slow copy whenever wholesale
// charging could be observed). See interp::OptRegion for the runtime
// contract.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "instrument/weights.hpp"
#include "interp/compiled_module.hpp"
#include "interp/flatten.hpp"
#include "wasm/ast.hpp"

namespace acctee::analysis::opt {

/// Highest meaningful Config::opt_level ("max"). Levels above clamp.
inline constexpr uint32_t kMaxOptLevel = 3;

/// Per-pass evidence diff: what the pass did and the proof that it kept the
/// module equivalent. The digests are what evidence payload v4 binds.
struct PassReport {
  std::string name;
  uint32_t min_level = 0;      // smallest opt_level that enables the pass
  uint32_t blocks_before = 0;  // basic blocks, summed over functions
  uint32_t blocks_after = 0;
  uint32_t increments_before = 0;  // hot-path increment sites (slow copies
  uint32_t increments_after = 0;   // excluded)
  uint32_t regions_added = 0;
  uint32_t ops_elided = 0;
  // Recovered cost vector of the transformed module (§14 proof re-run on
  // the collapsed view) and canonical digest of the transformed flat code.
  crypto::Digest cost_vector_digest{};
  crypto::Digest flat_digest{};
  // True when the output was flat_equal to the input, so the digests and
  // counts are the input's and no proof ran (proof_micros stays 0).
  bool proof_inherited = false;
  uint64_t proof_micros = 0;  // wall time of the per-pass equivalence proof

  friend bool operator==(const PassReport&, const PassReport&) = default;
};

/// The pass list with its per-pass proofs — the IE computes one, claims it
/// in evidence v4, and the AE re-derives its own and compares.
struct OptTrail {
  uint32_t opt_level = 0;
  std::vector<PassReport> passes;
};

struct PipelineResult {
  std::vector<interp::FlatFunc> flat;
  OptTrail trail;
  // Wall time of the baseline's proof when the pipeline had to run it (a
  // pass left the baseline unchanged and the caller supplied no verdict).
  uint64_t baseline_proof_micros = 0;
};

struct OptVerifyResult;

/// Runs the pass pipeline for `opt_level` over `baseline` (the canonical
/// flattening of the instrumented module). Deterministic: same inputs, same
/// bytes. Every pass output that differs from its input is re-proved (§14
/// on the collapsed view plus the per-region semantic re-derivation); a
/// failed proof throws Error — a pass must never ship unproven output
/// (fail-closed). An output flat_equal to its input inherits the input's
/// proof, digests and counts. The baseline is proved on first such need,
/// unless `baseline_proof` carries the caller's own accepting
/// verify_optimised_module verdict over this exact baseline; a verdict that
/// is not ok or covers a different function count throws Error.
PipelineResult run_pipeline(const wasm::Module& module,
                            const std::vector<interp::FlatFunc>& baseline,
                            uint32_t counter_global, uint32_t opt_level,
                            const instrument::WeightTable& weights,
                            const instrument::HostChargePolicy& host_charge,
                            const OptVerifyResult* baseline_proof = nullptr);

/// The same, taking ownership of the baseline: at opt_level 0 it comes
/// back as the result without a copy.
PipelineResult run_pipeline(const wasm::Module& module,
                            std::vector<interp::FlatFunc>&& baseline,
                            uint32_t counter_global, uint32_t opt_level,
                            const instrument::WeightTable& weights,
                            const instrument::HostChargePolicy& host_charge,
                            const OptVerifyResult* baseline_proof = nullptr);

/// Convenience for execution paths: runs the pipeline over an already
/// compiled (validated) module and returns a new artifact that executes the
/// optimised flat form (`base` itself at opt_level 0). `trail_out`
/// (optional) receives the per-pass evidence.
interp::CompiledModulePtr optimise_compiled(
    const interp::CompiledModulePtr& base, uint32_t counter_global,
    uint32_t opt_level, const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge,
    OptTrail* trail_out = nullptr);

/// Verdict of the optimised-module proof (the §14 re-run on the transformed
/// code): region structure + per-region semantic re-derivation from the
/// slow copies + counter dataflow over the collapsed view.
struct OptVerifyResult {
  bool ok = false;
  std::string error;
  uint32_t regions = 0;  // regions checked across all functions
  // Recovered per-function cost vector of the transformed module and its
  // digest (analysis::cost_vector_digest encoding).
  std::vector<uint64_t> cost_vector;
  crypto::Digest cost_vector_digest{};
};

/// Proves that a transformed flat module still bills exactly: every region
/// is structurally sound (single entry, no external edges into fast or slow
/// ranges), every region's charge equals the re-derived cost of its slow
/// copy (trip counts, histograms and counter amounts recomputed — never
/// trusted), every fast body is the slow body minus its increments, and the
/// §14 wrapping-debt proof holds over the collapsed view. Nothing about the
/// transform is taken on faith, so this also rejects hostile "optimised"
/// modules (the mutation corpus in analysis/mutate.hpp).
OptVerifyResult verify_optimised_module(
    const wasm::Module& module, const std::vector<interp::FlatFunc>& flat,
    uint32_t counter_global, const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge);

/// One-call acceptance gate shared by the AE, the CLI and the mutation
/// harness: the proof must pass AND the recovered cost-vector digest must
/// equal the claimed one. Any mutation of code, regions or claims flips
/// this to false.
bool check_optimised_flat(const wasm::Module& module,
                          const std::vector<interp::FlatFunc>& flat,
                          uint32_t counter_global,
                          const instrument::WeightTable& weights,
                          const instrument::HostChargePolicy& host_charge,
                          const crypto::Digest& claimed_cost_digest);

/// Canonical digest of a flat module's code/tables/regions (domain
/// "acctee.optflat.v1"). Used for the per-pass trail and determinism tests.
crypto::Digest flat_digest(const std::vector<interp::FlatFunc>& flat);

/// Structural byte-equality of two flat modules: everything flat_digest
/// and verify_optimised_module read (signatures, locals, code, tables,
/// regions). The block summaries are derived from those, so equal modules
/// have equal blocks. run_pipeline uses it to let an unchanged pass output
/// inherit its input's proof.
bool flat_equal(const std::vector<interp::FlatFunc>& a,
                const std::vector<interp::FlatFunc>& b);

/// The collapsed view of a transformed module: region fast bodies become
/// unreachable scaffolding (their last op a synthetic trap sink) and every
/// region enter becomes an unconditional jump to its slow copy. The §14
/// verifier runs on this view unchanged — slow copies are verbatim baseline
/// code, so the wrapping-debt proof applies as-is.
std::vector<interp::FlatFunc> collapsed_view(
    const std::vector<interp::FlatFunc>& flat);

/// Hot-path increment sites: 4-op counter-increment windows outside region
/// slow copies. Reported per pass (before → after). One pass over the code
/// with a cursor over the slow copies sorted by start.
uint32_t count_hot_increments(const std::vector<interp::FlatFunc>& flat,
                              uint32_t counter_global);

}  // namespace acctee::analysis::opt
