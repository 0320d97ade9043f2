// Deterministic mutation harness for the counter-equivalence verifier.
//
// Corrupts an *instrumented* module in ways a buggy or malicious
// instrumentation enclave might: dropping an increment, halving its
// amount, moving it across a branch (so one path pays and the other does
// not), retargeting the final global.set at a decoy global, and corrupting
// a hoisted loop's claimed per-iteration weight. Every mutant keeps the
// module valid — it would execute fine and simply under- or mis-account —
// so the only line of defence is the static verifier, whose negative tests
// (tests/analysis_test.cpp) assert zero false accepts over the full corpus.
// tools/mutate_instr.cpp drives the same enumeration standalone.
//
// Enumeration order is a deterministic pre-order walk over function bodies,
// so site indices are stable for a given module and the corpus is exactly
// reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/bytecode.hpp"
#include "interp/flatten.hpp"
#include "wasm/ast.hpp"

namespace acctee::analysis {

enum class MutationKind : uint8_t {
  DropIncrement,             // erase the whole 4-op increment sequence
  HalveIncrement,            // halve the i64.const amount
  MoveIncrementAcrossBranch, // move the sequence past an adjacent branch
  RetargetIncrement,         // global.set a decoy global instead
  CorruptHoistedWeight,      // halve the epilogue's claimed body weight
};

const char* to_string(MutationKind kind);

struct MutationSite {
  MutationKind kind = MutationKind::DropIncrement;
  uint32_t function = 0;  // defined-function index
  std::string description;
};

/// Enumerates every applicable mutation site of an instrumented module, in
/// deterministic order.
std::vector<MutationSite> enumerate_mutations(const wasm::Module& module,
                                              uint32_t counter_global);

/// Applies site `index` of enumerate_mutations() to a copy of the module.
/// The result is structurally valid Wasm. Throws Error on a bad index.
wasm::Module apply_mutation(const wasm::Module& module, uint32_t counter_global,
                            size_t index);

// ---- lowered-bytecode tampering (DESIGN.md §15) ----
//
// The second half of the corpus attacks stage three of the pipeline: the
// lowered superinstruction stream an interpreter would actually execute.
// Each mutant is a *structurally plausible* lowered module — it would run
// and simply mis-account (a dropped batched charge, a zeroed fused counter
// increment, a nudged fused immediate, a rewired fused branch) or write
// past its frame (an operand reservation one slot short) — so the only
// line of defence is the AE's verify-then-bind check
// (analysis::check_lowering), whose negative tests assert zero false
// accepts over this corpus too.

enum class LoweringMutationKind : uint8_t {
  EditImmediate,           // +1 a fused constant operand (K_*/LKOS_*)
  DropBlockCharge,         // zero an EnterBlock's batched accounting charge
  DropFusedCounterCharge,  // zero a GlobalAddConstI64 addend
  RetargetFusedBranch,     // point a fused compare+branch at the entry block
  UnderReserveFrame,       // one slot off a function's BcFunc::max_height
};

const char* to_string(LoweringMutationKind kind);

struct LoweringMutationSite {
  LoweringMutationKind kind = LoweringMutationKind::EditImmediate;
  uint32_t function = 0;  // defined-function index
  uint32_t pc = 0;        // bytecode pc of the mutated instruction (0 for
                          // UnderReserveFrame, which edits the function)
  std::string description;
};

/// Enumerates every applicable lowered-bytecode mutation site, in
/// deterministic order: per function, its instruction sites in (pc, kind)
/// order, then its UnderReserveFrame site.
std::vector<LoweringMutationSite> enumerate_lowering_mutations(
    const std::vector<interp::BcFunc>& lowered);

/// Applies site `index` of enumerate_lowering_mutations() to a copy of the
/// lowered module. Throws Error on a bad index.
std::vector<interp::BcFunc> apply_lowering_mutation(
    const std::vector<interp::BcFunc>& lowered, size_t index);

// ---- optimised-flat tampering (DESIGN.md §19) ----
//
// The third corpus attacks the verified middle-end: each mutant is a
// *structurally plausible* transformed flat module a buggy or hostile
// optimiser might emit — a region that under-states its wholesale charge,
// a loop folded with the wrong trip count (all totals rescaled
// consistently, so nothing is internally contradictory), an inlined call
// that miscounts the callee, a live block elided as if it were dead, a
// fast path that does different work than its slow copy, or a guard
// retargeted past the slow copy entirely. The only line of defence is
// analysis::opt::check_optimised_flat (region re-derivation + the
// collapsed-view §14 proof + the cost-vector digest), whose negative tests
// assert zero false accepts over this corpus.

enum class OptMutationKind : uint8_t {
  UnderpayCharge,       // halve a region's wholesale counter amount
  WrongTripFold,        // halve a fold's trip count, rescaling all totals
  InlineMiscount,       // drop one callee op from a coalesce region's charge
  ElideLiveBlock,       // remove a reachable op as if dead-block elision hit it
  FastBodyOpSwap,       // neutralise a fast-body op the slow copy executes
  FastBodyCounterWrite, // make the fast body touch the counter global
  RetargetGuard,        // point the region enter at the join, skipping the loop
};

const char* to_string(OptMutationKind kind);

struct OptMutationSite {
  OptMutationKind kind = OptMutationKind::UnderpayCharge;
  uint32_t function = 0;  // defined-function index
  uint32_t region = 0;    // region index (unused for ElideLiveBlock)
  std::string description;
};

/// Enumerates every applicable mutation site of a transformed flat module
/// (analysis::opt::run_pipeline output), in deterministic order.
std::vector<OptMutationSite> enumerate_opt_mutations(
    const std::vector<interp::FlatFunc>& flat);

/// Applies site `index` of enumerate_opt_mutations() to a copy of the
/// transformed flat module. Throws Error on a bad index.
std::vector<interp::FlatFunc> apply_opt_mutation(
    const std::vector<interp::FlatFunc>& flat, size_t index);

}  // namespace acctee::analysis
