// Shared internals of the optimisation passes (analysis/opt). The matchers
// here are the single source of truth for what a pass may transform AND what
// the verifier re-derives from a transformed module: the pass computes a
// region's charge from these facts, and verify_optimised_module recomputes
// the same facts from the slow copy and demands equality, so a region whose
// claims were not produced by this exact derivation cannot verify.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "instrument/weights.hpp"
#include "interp/flatten.hpp"
#include "wasm/ast.hpp"

namespace acctee::analysis::opt::detail {

/// Mirror of the interpreter's block-terminator set for flat ops (a fast
/// body may only contain ops that fall through, plus its own backedges).
bool flat_op_ends_block(const interp::FlatOp& op);

/// If `pc` starts a canonical 4-op counter increment
/// (`global.get C / i64.const n / i64.add / global.set C`, all real ops),
/// returns the raw i64 amount.
std::optional<uint64_t> increment_amount_at(
    const std::vector<interp::FlatOp>& code, uint32_t pc,
    uint32_t counter_global);

/// Everything a fold region charges, re-derived from a code range alone.
struct FoldFacts {
  uint32_t lo = 0;  // loop head (first body pc)
  uint32_t hi = 0;  // one past the bottom br_if (the backedge)
  bool nest = false;
  uint32_t inner_lo = 0;  // nest only: inner loop head
  uint32_t inner_hi = 0;  // nest only: one past the inner backedge
  uint64_t trips = 0;     // total dynamic iterations (outer × inner for nests)
  uint64_t inner_trips = 0;            // nest only: per outer iteration
  std::vector<uint32_t> increment_pcs;  // start pc of every increment window
  uint64_t counter_amount = 0;          // total folded counter bump
  uint64_t instr_total = 0;             // real ops the loop executes
  uint64_t cycles_total = 0;            // summed base costs
  std::vector<interp::BlockOpCount> hist;  // per-opcode execution histogram
};

/// Matches a constant-trip bottom-tested counted loop (or, with
/// `allow_nest`, a perfect two-level counted nest) whose body starts at
/// `lo`, and derives its exact execution facts. `init_before` is the pc just
/// past the loop's preceding `loop` op — `lo` itself for a loop in place,
/// the region's enter_pc when matching a slow copy (the slow copy shares the
/// original preheader). Requirements, all re-derived from code:
///  * straight-line body: no block-ending op except the backedge br_if(s),
///  * the backedge tail is `<update> local.tee v / i32.const K / cmp / br_if`
///    or `local.get v / i32.const K / cmp / br_if` with exactly one const-
///    step induction write, cmp ∈ {lt_s, le_s, gt_s, ge_s, ne},
///  * the induction init `i32.const S / local.set v` reaches the loop head
///    unclobbered and nothing branches between init and head,
///  * trip count from (S, K, step, cmp) with do-while semantics, rejected
///    unless provably wrap-free in i32,
///  * at least one increment window in the body (increment-free counted
///    loops are already optimal under LoopBased instrumentation),
///  * no counter access outside increment windows,
///  * no branch from outside [lo, hi) into it (scanned over `ff`),
///  * totals fit the region's u32 histogram counts.
std::optional<FoldFacts> match_counted_loop(const interp::FlatFunc& ff,
                                            uint32_t lo, uint32_t init_before,
                                            uint32_t counter_global,
                                            bool allow_nest);

/// Everything a coalesce region charges, re-derived from the callee alone.
struct CoalesceFacts {
  uint32_t callee = 0;   // full function index-space index
  uint32_t nparams = 0;
  std::vector<wasm::ValType> callee_locals;  // params then locals
  std::vector<uint32_t> increment_pcs;       // in the callee's code
  uint64_t counter_amount = 0;  // the callee's summed increment amounts
  uint64_t instr_total = 0;     // the call op + the callee's real ops
  uint64_t cycles_total = 0;
  std::vector<interp::BlockOpCount> hist;
};

/// Matches a tiny straight-line leaf callee eligible for call coalescing:
/// every op before the final synthetic return is real, falls through, and
/// never touches the counter outside increment windows; at least one
/// increment; at most kMaxCoalesceOps real ops; no regions of its own.
inline constexpr uint32_t kMaxCoalesceOps = 24;
std::optional<CoalesceFacts> match_coalesce_callee(
    const wasm::Module& module, const std::vector<interp::FlatFunc>& flat,
    uint32_t callee, uint32_t counter_global);

/// The exact fast-body op sequence of a coalesce region: argument spills
/// into the appended caller locals (reverse order), typed zero-inits of the
/// callee's non-param locals, then the callee body minus the increment
/// windows at `increment_pcs`, local indices shifted by `base`. Both the
/// pass (emission) and the verifier (comparison) use this one generator.
std::vector<interp::FlatOp> coalesce_fast_body(
    const interp::FlatFunc& callee, uint32_t nparams, uint32_t base,
    const std::vector<uint32_t>& increment_pcs);

/// Rebuilds one FlatFunc under an old-pc → new-pc map, deferring branch
/// remaps until every op has its final position. Pre-existing regions are
/// carried over with their pcs remapped (a pass never edits inside one).
class FuncEditor {
 public:
  explicit FuncEditor(const interp::FlatFunc& src);

  uint32_t pos() const { return static_cast<uint32_t>(out_.code.size()); }
  const interp::FlatFunc& src() const { return src_; }

  /// Copies src op `old_pc` verbatim; its branch target (if any) is remapped
  /// through the old→new map at finish().
  void copy(uint32_t old_pc);
  /// Appends a new op whose target (if any) is already in new-pc space.
  uint32_t emit(interp::FlatOp op);
  /// Appends a copy of src op `old_pc` with `synthetic` forced and an
  /// explicit new-space target (region body copies use offset math).
  uint32_t emit_copy(uint32_t old_pc, bool synthetic,
                     uint32_t new_target = 0);
  /// Appends a copy of src op `old_pc` whose target is remapped through the
  /// old→new map at finish() (slow-copy exits jumping to the join).
  uint32_t emit_with_old_target(interp::FlatOp op, uint32_t old_target);
  /// Records where references to src pc `old_pc` should land.
  void map_old(uint32_t old_pc, uint32_t new_pc);
  /// Appends caller locals (coalesce spill slots); returns the base index.
  uint32_t append_locals(const std::vector<wasm::ValType>& types);
  /// Appends a region built by this pass (pcs already in new space, `a` of
  /// the marker fixed up at finish) with its charge histogram.
  void add_region(interp::OptRegion region,
                  const std::vector<interp::BlockOpCount>& hist);

  /// Remaps deferred targets, branch tables and carried-over regions, sorts
  /// regions, rewrites marker indices and recomputes block costs. Throws
  /// Error on a dangling target (a pass bug, never valid output).
  interp::FlatFunc finish();

 private:
  const interp::FlatFunc& src_;
  interp::FlatFunc out_;
  std::vector<uint32_t> new_pc_;  // UINT32_MAX = dropped
  struct Pending {
    uint32_t site;  // out_.code index whose target_pc holds an old pc
  };
  std::vector<Pending> pending_;
  std::vector<bool> table_live_;
  std::vector<interp::OptRegion> added_regions_;
};

/// Pass transforms (identity when nothing matches; each returns the input
/// unchanged — same bytes — for functions it does not touch).
std::vector<interp::FlatFunc> pass_dead_blocks(
    const wasm::Module& module, const std::vector<interp::FlatFunc>& flat,
    uint32_t* ops_elided);
std::vector<interp::FlatFunc> pass_coalesce_calls(
    const wasm::Module& module, const std::vector<interp::FlatFunc>& flat,
    uint32_t counter_global, const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge, uint32_t* regions_added);
std::vector<interp::FlatFunc> pass_fold_loops(
    const wasm::Module& module, const std::vector<interp::FlatFunc>& flat,
    uint32_t counter_global, bool allow_nests, uint32_t* regions_added);

}  // namespace acctee::analysis::opt::detail
