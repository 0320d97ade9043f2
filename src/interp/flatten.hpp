// Flattening: compiles the structured tree IR into a compact, directly
// executable instruction array with pre-resolved branch targets and stack
// unwind depths. This happens once per function at instantiation time, so
// the hot interpreter loop never walks the tree or searches for labels.
#pragma once

#include <vector>

#include "wasm/ast.hpp"

namespace acctee::interp {

/// A pre-resolved branch destination.
struct BrTarget {
  uint32_t pc = 0;      // absolute index into FlatFunc::code
  uint32_t unwind = 0;  // operand-stack height (within frame) to unwind to
  uint8_t arity = 0;    // number of values the branch carries

  friend bool operator==(const BrTarget&, const BrTarget&) = default;
};

/// One executable instruction.
///
/// Field use by op kind:
///  * br / br_if:        `target` (pc/unwind/arity inline)
///  * if:                `target` = else-branch (or end) destination
///  * br_table:          `a` = index into FlatFunc::br_tables
///  * call/local/global: `a` = index
///  * memory ops:        `b` = static offset
///  * consts:            `b` = raw bits
///  * return:            `arity` = function result count
struct FlatOp {
  wasm::Op op = wasm::Op::Nop;
  bool synthetic = false;  // internal jump/halt: excluded from accounting
  uint8_t arity = 0;
  uint32_t a = 0;
  uint32_t target_pc = 0;
  uint32_t unwind = 0;
  uint64_t b = 0;
};

/// One entry of a block's compact per-opcode histogram delta.
struct BlockOpCount {
  wasm::Op op = wasm::Op::Nop;
  uint32_t count = 0;

  friend bool operator==(const BlockOpCount&, const BlockOpCount&) = default;
};

/// Marker tag carried in FlatOp::b by the synthetic Op::Nop that heads an
/// optimisation region (analysis/opt, DESIGN.md §19). Real Nops always carry
/// b == 0, so the interpreter's Nop handler can detect markers with one
/// compare and the binary decoder never learns a new opcode.
inline constexpr uint64_t kRegionEnterTag = 1;

enum class OptRegionKind : uint8_t {
  FoldLoop = 1,      // const-trip single-block loop folded to one charge
  FoldNest = 2,      // perfect two-level counted nest folded to one charge
  CoalesceCall = 3,  // tiny leaf call inlined, one fused increment
};

/// A guarded fast-path accounting region installed by the optimisation
/// pipeline (analysis/opt). Layout in FlatFunc::code:
///
///   enter_pc:                synthetic Nop, b = kRegionEnterTag,
///                            a = region index, target_pc = slow_begin
///   [fast_begin, fast_end):  the fast body — synthetic copies of the
///                            original ops minus every counter increment;
///                            they execute but are never accounted
///   fast_end:                the join (original continuation)
///   [slow_begin, slow_end):  verbatim copy of the original (baseline) ops,
///                            non-synthetic, ending in a synthetic Br back
///                            to the join
///
/// The enter marker is a guard-plus-charge: when the region's statically
/// known accounting span would cross a checkpoint, the instruction limit,
/// the call-depth limit, or serial accounting is in force, control jumps to
/// the slow copy, which accounts exactly like the untransformed module. On
/// the fast path the whole span is charged wholesale (instructions, cycles,
/// per-op histogram, weighted-counter global) before the body runs, so
/// every observable cumulative total — ExecStats, checkpoint firings, the
/// signed ledger — is bit-identical to opt_level=0. A trap inside a fast
/// body leaves the full region charge standing (a bounded, provider-
/// favourable over-charge; see DESIGN.md §19).
struct OptRegion {
  OptRegionKind kind = OptRegionKind::FoldLoop;
  uint32_t enter_pc = 0;
  uint32_t fast_begin = 0;
  uint32_t fast_end = 0;
  uint32_t slow_begin = 0;
  uint32_t slow_end = 0;
  uint32_t callee = 0;        // CoalesceCall: callee index (full index space)
  uint64_t trips = 1;         // Fold*: derived constant trip count
  uint64_t instr_total = 0;   // accounted ops the slow path would execute
  uint64_t cycles_total = 0;  // summed per-opcode base costs of the span
  uint64_t counter_amount = 0;     // folded weighted-counter bump
  uint32_t counter_global = 0;
  uint32_t calls_folded = 0;   // × CostModel call overhead at charge time
  uint32_t frames_needed = 0;  // CoalesceCall: guard the call-depth limit
  // Histogram of the span: [hist_begin, hist_end) into FlatFunc::region_hist.
  uint32_t hist_begin = 0;
  uint32_t hist_end = 0;

  friend bool operator==(const OptRegion&, const OptRegion&) = default;
};

/// Accounting summary of one basic block: a maximal straight-line run of
/// FlatOps that control flow can only enter at the first op and only leave
/// after the last. Charged wholesale on block entry by the interpreter
/// (paper Fig. 4 batching, applied to the simulator itself) instead of one
/// bookkeeping update per instruction.
///
/// Block boundaries (computed once at flatten time):
///  * every branch target starts a block,
///  * every control transfer (br/br_if/br_table/if/return/call/
///    call_indirect/unreachable) and every synthetic op ends one,
///  * `memory.grow` ends one, because it observes the instruction counter
///    mid-execution (the memory-size integral) and must see exactly the
///    serial count.
struct BlockCost {
  uint32_t end_pc = 0;        // one past the last op of the block
  uint32_t instructions = 0;  // accounted (non-synthetic) ops in the block
  uint64_t cycles = 0;        // summed per-opcode base costs
  // Histogram delta: [hist_begin, hist_end) into FlatFunc::block_hist.
  uint32_t hist_begin = 0;
  uint32_t hist_end = 0;
};

/// A flattened function body.
struct FlatFunc {
  uint32_t type_index = 0;
  std::vector<wasm::ValType> local_types;  // params then locals
  uint32_t num_params = 0;
  std::vector<FlatOp> code;  // terminated by a synthetic return
  std::vector<std::vector<BrTarget>> br_tables;
  // Basic-block accounting summaries (code order). `block_index[pc]` maps
  // every pc to the id of the block containing it; the interpreter only
  // consults it at block heads. `block_hist` is the flattened backing store
  // of all blocks' histogram deltas (one allocation per function).
  std::vector<BlockCost> blocks;
  std::vector<uint32_t> block_index;
  std::vector<BlockOpCount> block_hist;
  // Optimisation regions (analysis/opt, DESIGN.md §19), in enter_pc order.
  // Empty unless the opt pipeline transformed this function. `region_hist`
  // is the flattened backing store of all regions' charge histograms.
  std::vector<OptRegion> regions;
  std::vector<BlockOpCount> region_hist;
};

/// True for the synthetic Nop marker heading an optimisation region.
inline bool is_region_enter(const FlatOp& op) {
  return op.synthetic && op.op == wasm::Op::Nop && op.b == kRegionEnterTag;
}

/// Flattens one defined function of a *validated* module.
FlatFunc flatten(const wasm::Module& module, const wasm::Function& func);

/// Flattens every defined function of a *validated* module, in module
/// order: the canonical baseline the §14 proof and the §19 pipeline read.
std::vector<FlatFunc> flatten_module(const wasm::Module& module);

/// Recomputes the basic-block partition and per-block accounting summaries
/// of `ff` from its code, branch tables and regions. flatten() calls this;
/// the optimisation pipeline (analysis/opt) re-calls it after editing code.
void compute_block_costs(FlatFunc& ff);

/// Per-pc operand-stack heights of a flat function: the number of operand
/// slots above the frame's locals just before the op at that pc runs,
/// recovered by forward propagation from entry. `call`/`call_indirect`
/// effects come from the module's types, a branch target's height is the
/// branch's `unwind + arity`, and a region-enter marker reaches its slow
/// copy at its own height (heights are unique in valid wasm). Unreachable
/// pcs keep the kUnknownHeight sentinel. Throws Error on an inconsistency
/// or a pop below the frame's operand base, which would mean the flat code
/// is not the (optionally §19-transformed) flattening of a valid module.
inline constexpr uint32_t kUnknownHeight = UINT32_MAX;
std::vector<uint32_t> operand_heights(const wasm::Module& module,
                                      const FlatFunc& ff);

/// The largest reachable entry of operand_heights(): the exact maximum
/// operand height any execution of `ff` reaches, which lowering records as
/// the function's frame reservation (BcFunc::max_height).
uint32_t max_operand_height(const wasm::Module& module, const FlatFunc& ff);

}  // namespace acctee::interp
