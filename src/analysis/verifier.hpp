// The static counter-equivalence verifier (DESIGN.md §14).
//
// Entry point of src/analysis: given an instrumented module, the agreed
// counter global and the agreed weight table — and nothing else — prove
// that the module's counter updates are cost-equivalent to the naive
// per-block weighted accounting, and that nothing but the recognised
// instrumentation can touch the counter. On success the verifier also
// recovers the original program's per-function naive cost vector, whose
// digest the instrumentation evidence binds (core/evidence.hpp), so the
// AE cross-checks the IE's claim against its own independent analysis and
// the IE drops out of the accounting TCB.
//
// What is verified, per defined function:
//  1. CFG reconstruction over the flattened code (analysis/cfg.hpp).
//  2. Recognition of increment sequences and counted-loop regions
//     (analysis/counter_flow.hpp, analysis/loops.hpp).
//  3. Write protection: no remaining workload op reads or writes the
//     counter global.
//  4. The debt dataflow: along every CFG path the increments sum exactly
//     to the weighted workload cost (counterexample path on failure).
// Plus, module level: the counter global itself is a mutable i64 exported
// under the agreed name with initial value 0 (a decoy global is rejected).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "instrument/weights.hpp"
#include "interp/compiled_module.hpp"
#include "interp/flatten.hpp"
#include "interp/lower.hpp"
#include "wasm/ast.hpp"

namespace acctee::analysis {

/// Per-function summary of a successful verification.
struct FunctionReport {
  uint32_t index = 0;  // function index-space index (imports first)
  std::string name;
  uint64_t recovered_cost = 0;  // static naive weighted cost (workload ops)
  uint32_t blocks = 0;
  uint32_t increments = 0;
  uint32_t hoisted_loops = 0;
  uint32_t folded_loops = 0;  // constant-trip regions
};

struct VerifyResult {
  bool ok = false;
  /// Human-readable reason with a concrete counterexample path when the
  /// dataflow found a diverging or unbalanced path; empty when ok.
  std::string error;
  std::vector<FunctionReport> functions;
  /// Recovered per-defined-function static naive cost (module order). Equals
  /// naive_cost_vector() of the original module when verification succeeds.
  std::vector<uint64_t> cost_vector;
  crypto::Digest cost_vector_digest{};
};

/// Integrity of the counter global itself: in range, exported under
/// instrument::kCounterExport at this index, i64, mutable, initial value 0.
/// Returns an error description, or nullopt when the global checks out.
std::optional<std::string> check_counter_global(const wasm::Module& module,
                                                uint32_t counter_global);

/// Verifies an already-compiled module (AE path: reuses the flattening the
/// execution pipeline produced). `host_charge` extends the agreed pricing
/// with the deterministic per-host-call surcharge (instrument/weights.hpp);
/// the default zero policy verifies classic weight-only instrumentation.
/// A module instrumented under one policy never verifies under another —
/// the surcharge alters the debt the dataflow must see balanced.
VerifyResult verify_instrumented_module(
    const wasm::Module& module, const std::vector<interp::FlatFunc>& flat,
    uint32_t counter_global, const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge = {});

/// Convenience overload: validates and flattens `module` first. Throws
/// ValidationError if the module itself is malformed.
VerifyResult verify_instrumented_module(
    const wasm::Module& module, uint32_t counter_global,
    const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge = {});

/// Static naive weighted cost per defined function of an *uninstrumented*
/// module (what the verifier recovers from an instrumented one). The module
/// must already be validated.
std::vector<uint64_t> naive_cost_vector(
    const wasm::Module& module, const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge = {});

/// Canonical digest binding a cost vector into instrumentation evidence.
crypto::Digest cost_vector_digest(const std::vector<uint64_t>& costs);

/// Lowering verification — the bind half of verify-then-bind (DESIGN.md
/// §15). The static proofs above are carried out over the *flattened* code;
/// the execution pipeline may then run the *lowered* bytecode instead. This
/// check closes that gap: it deterministically re-lowers the verified
/// flattened code with the recorded options and requires the module's
/// lowered form and its digest to match exactly, so a tampered lowering
/// (edited immediate, dropped block or fused counter charge, retargeted
/// branch, under-reserved frame — see enumerate_lowering_mutations) can
/// never execute under a verified identity. `module` supplies the call
/// signatures the frame reservation is re-derived from. Returns an error
/// description, or nullopt when the lowering is bound.
std::optional<std::string> check_lowering(
    const wasm::Module& module, const std::vector<interp::FlatFunc>& flat,
    const std::vector<interp::BcFunc>& lowered,
    const interp::LowerOptions& options, const crypto::Digest& digest);

/// Convenience overload over a compiled module's own lowering.
std::optional<std::string> check_lowering(
    const interp::CompiledModule& compiled);

}  // namespace acctee::analysis
