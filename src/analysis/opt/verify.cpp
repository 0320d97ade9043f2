// verify_optimised_module: the machine-checked counter-equivalence proof
// for transformed modules (DESIGN.md §19). Three layers, none of which
// trusts anything the transform wrote:
//
//  1. Structure — regions are disjoint, single-entry (nothing targets a
//     marker or branches into a fast/slow range from outside), fall-through
//     cannot reach a slow copy, and every op's immediates are in range (a
//     hostile flat module must not be able to make the interpreter index
//     out of bounds).
//  2. Semantics — every region's charge is re-derived from its slow copy by
//     the same matcher the pass used: trip counts from the induction code,
//     histograms and cycle totals from the op sequence, counter amounts
//     from the increment windows. The fast body must be exactly the slow
//     body minus its increments (coalesce: exactly the canonical spill +
//     zero-init + remapped-callee sequence over scratch locals nothing else
//     touches), so the two paths are observably identical.
//  3. Dataflow — the §14 wrapping-debt proof re-runs over the collapsed
//     view, where every region is replaced by an unconditional jump to its
//     verbatim slow copy; the recovered cost vector of the transformed
//     module is the proof's output, and the caller compares its digest
//     against the claim (evidence v4 / the pipeline trail).
#include <string>

#include "analysis/opt/internal.hpp"
#include "analysis/opt/opt.hpp"
#include "analysis/verifier.hpp"

namespace acctee::analysis::opt {

using interp::FlatFunc;
using interp::FlatOp;
using interp::OptRegion;
using interp::OptRegionKind;
using wasm::Op;

namespace {

struct Checker {
  const wasm::Module& module;
  const std::vector<FlatFunc>& flat;
  uint32_t counter_global;
  std::string error;

  bool fail(uint32_t df, const std::string& why) {
    error = "function #" + std::to_string(df) + ": " + why;
    return false;
  }

  /// Immediate-range sanity for every op (hostile flat must not crash the
  /// interpreter, let alone execute).
  bool check_bounds(uint32_t df) {
    const FlatFunc& ff = flat[df];
    const uint32_t n = static_cast<uint32_t>(ff.code.size());
    const uint32_t num_funcs = static_cast<uint32_t>(
        module.imports.size() + module.functions.size());
    const uint32_t num_globals = static_cast<uint32_t>(module.globals.size());
    if (n == 0) return fail(df, "empty code array");
    for (uint32_t pc = 0; pc < n; ++pc) {
      const FlatOp& op = ff.code[pc];
      switch (op.op) {
        case Op::If:
        case Op::Br:
        case Op::BrIf:
          if (op.target_pc >= n) return fail(df, "branch target out of range");
          break;
        case Op::Nop:
          if (interp::is_region_enter(op) && op.target_pc >= n) {
            return fail(df, "region enter target out of range");
          }
          break;
        case Op::BrTable:
          if (op.a >= ff.br_tables.size()) {
            return fail(df, "br_table index out of range");
          }
          for (const interp::BrTarget& t : ff.br_tables[op.a]) {
            if (t.pc >= n) return fail(df, "br_table target out of range");
          }
          break;
        case Op::Call:
          if (op.a >= num_funcs) return fail(df, "call index out of range");
          break;
        case Op::CallIndirect:
          if (op.a >= module.types.size()) {
            return fail(df, "call_indirect type out of range");
          }
          break;
        case Op::LocalGet:
        case Op::LocalSet:
        case Op::LocalTee:
          if (op.a >= ff.local_types.size()) {
            return fail(df, "local index out of range");
          }
          break;
        case Op::GlobalGet:
        case Op::GlobalSet:
          if (op.a >= num_globals) return fail(df, "global index out of range");
          break;
        default:
          break;
      }
    }
    return true;
  }

  bool in_fast(const OptRegion& r, uint32_t pc) const {
    return pc >= r.fast_begin && pc < r.fast_end;
  }
  bool in_slow(const OptRegion& r, uint32_t pc) const {
    return pc >= r.slow_begin && pc < r.slow_end;
  }

  bool check_structure(uint32_t df) {
    const FlatFunc& ff = flat[df];
    const uint32_t n = static_cast<uint32_t>(ff.code.size());
    // Marker ↔ region bijection.
    uint32_t markers = 0;
    for (uint32_t pc = 0; pc < n; ++pc) {
      if (interp::is_region_enter(ff.code[pc])) ++markers;
    }
    if (markers != ff.regions.size()) {
      return fail(df, "marker count does not match region count");
    }
    for (uint32_t i = 0; i < ff.regions.size(); ++i) {
      const OptRegion& r = ff.regions[i];
      if (i > 0 && ff.regions[i - 1].enter_pc >= r.enter_pc) {
        return fail(df, "regions not sorted by enter_pc");
      }
      if (r.enter_pc >= n || r.fast_begin != r.enter_pc + 1 ||
          r.fast_end < r.fast_begin || r.fast_end > n ||
          r.slow_begin >= r.slow_end || r.slow_end > n) {
        return fail(df, "region range out of bounds");
      }
      if (r.hist_begin > r.hist_end ||
          r.hist_end > ff.region_hist.size()) {
        return fail(df, "region histogram range out of bounds");
      }
      const FlatOp& enter = ff.code[r.enter_pc];
      if (!interp::is_region_enter(enter) || enter.a != i ||
          enter.target_pc != r.slow_begin) {
        return fail(df, "region enter marker mismatch");
      }
      if (r.counter_global != counter_global) {
        return fail(df, "region bound to a different counter global");
      }
      // Fast body: synthetic, never a nested marker, never counter access.
      for (uint32_t pc = r.fast_begin; pc < r.fast_end; ++pc) {
        const FlatOp& op = ff.code[pc];
        if (!op.synthetic || interp::is_region_enter(op)) {
          return fail(df, "fast body contains a real op or nested marker");
        }
        if ((op.op == Op::GlobalGet || op.op == Op::GlobalSet) &&
            op.a == counter_global) {
          return fail(df, "fast body touches the counter global");
        }
      }
      // Nothing falls through into the slow copy (and a copy at pc 0 is
      // entered by every call).
      if (r.slow_begin == 0) {
        return fail(df, "slow copy reachable by fall-through");
      }
      const Op before = ff.code[r.slow_begin - 1].op;
      if (!(before == Op::Br || before == Op::BrTable ||
            before == Op::Return || before == Op::Unreachable)) {
        return fail(df, "slow copy reachable by fall-through");
      }
      // Pairwise disjoint with every other region (marker+fast and slow).
      for (uint32_t j = i + 1; j < ff.regions.size(); ++j) {
        const OptRegion& o = ff.regions[j];
        auto overlap = [](uint32_t a1, uint32_t b1, uint32_t a2,
                          uint32_t b2) { return a1 < b2 && a2 < b1; };
        if (overlap(r.enter_pc, r.fast_end, o.enter_pc, o.fast_end) ||
            overlap(r.enter_pc, r.fast_end, o.slow_begin, o.slow_end) ||
            overlap(r.slow_begin, r.slow_end, o.enter_pc, o.fast_end) ||
            overlap(r.slow_begin, r.slow_end, o.slow_begin, o.slow_end)) {
          return fail(df, "regions overlap");
        }
      }
    }
    // Single-entry: branches may enter a fast range only from inside it, a
    // slow range only from inside it or its own marker, and nothing may
    // target a marker.
    auto check_edge = [&](uint32_t p, uint32_t t) {
      for (uint32_t i = 0; i < ff.regions.size(); ++i) {
        const OptRegion& r = ff.regions[i];
        if (t == r.enter_pc) return false;
        if (in_fast(r, t) && !in_fast(r, p)) return false;
        if (in_slow(r, t) && !(in_slow(r, p) || p == r.enter_pc)) {
          return false;
        }
      }
      return true;
    };
    for (uint32_t p = 0; p < n; ++p) {
      const FlatOp& op = ff.code[p];
      if (op.op == Op::If || op.op == Op::Br || op.op == Op::BrIf ||
          interp::is_region_enter(op)) {
        if (!check_edge(p, op.target_pc)) {
          return fail(df, "branch crosses a region boundary");
        }
      }
      if (op.op == Op::BrTable) {
        for (const interp::BrTarget& t : ff.br_tables[op.a]) {
          if (!check_edge(p, t.pc)) {
            return fail(df, "br_table entry crosses a region boundary");
          }
        }
      }
    }
    return true;
  }

  bool check_hist(uint32_t df, const OptRegion& r,
                  const std::vector<interp::BlockOpCount>& derived) {
    const FlatFunc& ff = flat[df];
    if (r.hist_end - r.hist_begin != derived.size()) {
      return fail(df, "region histogram length mismatch");
    }
    for (uint32_t k = 0; k < derived.size(); ++k) {
      if (!(ff.region_hist[r.hist_begin + k] == derived[k])) {
        return fail(df, "region histogram mismatch");
      }
    }
    return true;
  }

  bool check_fold(uint32_t df, const OptRegion& r) {
    const FlatFunc& ff = flat[df];
    if (r.callee != 0 || r.calls_folded != 0 || r.frames_needed != 0) {
      return fail(df, "fold region claims call effects");
    }
    // The slow copy ends in a height-preserving synthetic br to the join.
    const FlatOp& exit = ff.code[r.slow_end - 1];
    if (!(exit.synthetic && exit.op == Op::Br && exit.arity == 0 &&
          exit.target_pc == r.fast_end)) {
      return fail(df, "fold slow copy does not exit to the join");
    }
    if (r.slow_end - r.slow_begin < 2) return fail(df, "fold slow too short");
    const FlatOp& backedge = ff.code[r.slow_end - 2];
    if (exit.unwind != backedge.unwind) {
      return fail(df, "fold slow exit unwinds to the wrong height");
    }
    // Re-derive everything from the slow copy.
    std::optional<detail::FoldFacts> facts = detail::match_counted_loop(
        ff, r.slow_begin, r.enter_pc, counter_global, /*allow_nest=*/true);
    if (!facts) return fail(df, "fold slow copy is not a countable loop");
    if (facts->hi != r.slow_end - 1) {
      return fail(df, "fold region span disagrees with the derived loop");
    }
    const bool want_nest = r.kind == OptRegionKind::FoldNest;
    if (facts->nest != want_nest || facts->trips != r.trips ||
        facts->instr_total != r.instr_total ||
        facts->cycles_total != r.cycles_total ||
        facts->counter_amount != r.counter_amount) {
      return fail(df, "fold region charge disagrees with derivation");
    }
    if (!check_hist(df, r, facts->hist)) return false;
    // Fast body == slow body minus increments, branch targets mapped to the
    // first surviving op at or after their head.
    const uint32_t span = facts->hi - facts->lo;
    std::vector<uint32_t> fast_pc(span, UINT32_MAX);
    uint32_t fpc = r.fast_begin;
    size_t next_inc = 0;
    for (uint32_t q = facts->lo; q < facts->hi; ++q) {
      if (next_inc < facts->increment_pcs.size() &&
          q == facts->increment_pcs[next_inc]) {
        q += 3;
        ++next_inc;
        continue;
      }
      if (fpc >= r.fast_end) return fail(df, "fast body shorter than slow");
      fast_pc[q - facts->lo] = fpc++;
    }
    if (fpc != r.fast_end) return fail(df, "fast body longer than slow");
    next_inc = 0;
    for (uint32_t q = facts->lo; q < facts->hi; ++q) {
      if (next_inc < facts->increment_pcs.size() &&
          q == facts->increment_pcs[next_inc]) {
        q += 3;
        ++next_inc;
        continue;
      }
      const FlatOp& slow = ff.code[q];
      const FlatOp& fast = ff.code[fast_pc[q - facts->lo]];
      if (!(fast.synthetic && fast.op == slow.op && fast.arity == slow.arity &&
            fast.a == slow.a && fast.b == slow.b &&
            fast.unwind == slow.unwind)) {
        return fail(df, "fast body diverges from slow body");
      }
      if (slow.op == Op::BrIf) {
        uint32_t head = slow.target_pc;
        while (fast_pc[head - facts->lo] == UINT32_MAX) ++head;
        if (fast.target_pc != fast_pc[head - facts->lo]) {
          return fail(df, "fast backedge targets the wrong head");
        }
      }
    }
    return true;
  }

  bool check_coalesce(uint32_t df, const OptRegion& r) {
    const FlatFunc& ff = flat[df];
    if (r.slow_end != r.slow_begin + 2) {
      return fail(df, "coalesce slow copy is not call + br");
    }
    const FlatOp& call = ff.code[r.slow_begin];
    const FlatOp& exit = ff.code[r.slow_begin + 1];
    if (!(!call.synthetic && call.op == Op::Call && call.a == r.callee)) {
      return fail(df, "coalesce slow copy does not call the callee");
    }
    if (!(exit.synthetic && exit.op == Op::Br && exit.arity == 0 &&
          exit.target_pc == r.fast_end)) {
      return fail(df, "coalesce slow copy does not exit to the join");
    }
    std::optional<detail::CoalesceFacts> facts =
        detail::match_coalesce_callee(module, flat, r.callee, counter_global);
    if (!facts) return fail(df, "coalesce callee is not a foldable leaf");
    if (facts->instr_total != r.instr_total ||
        facts->cycles_total != r.cycles_total ||
        facts->counter_amount != r.counter_amount || r.trips != 1 ||
        r.calls_folded != 1 || r.frames_needed != 1) {
      return fail(df, "coalesce region charge disagrees with derivation");
    }
    if (!check_hist(df, r, facts->hist)) return false;
    // The fast body must be exactly the canonical inline sequence over a
    // scratch-local window nothing else touches.
    const FlatFunc& cf =
        flat[r.callee - static_cast<uint32_t>(module.imports.size())];
    std::vector<FlatOp> gen0 = detail::coalesce_fast_body(
        cf, facts->nparams, /*base=*/0, facts->increment_pcs);
    if (gen0.size() != r.fast_end - r.fast_begin) {
      return fail(df, "coalesce fast body length mismatch");
    }
    uint32_t base = 0;
    for (size_t j = 0; j < gen0.size(); ++j) {
      const Op o = gen0[j].op;
      if (o == Op::LocalGet || o == Op::LocalSet || o == Op::LocalTee) {
        const FlatOp& fast = ff.code[r.fast_begin + j];
        if (fast.a < gen0[j].a) {
          return fail(df, "coalesce local window underflows");
        }
        base = fast.a - gen0[j].a;
        break;
      }
    }
    std::vector<FlatOp> expect = detail::coalesce_fast_body(
        cf, facts->nparams, base, facts->increment_pcs);
    for (size_t j = 0; j < expect.size(); ++j) {
      const FlatOp& fast = ff.code[r.fast_begin + j];
      const FlatOp& want = expect[j];
      if (!(fast.synthetic && fast.op == want.op &&
            fast.arity == want.arity && fast.a == want.a &&
            fast.b == want.b)) {
        return fail(df, "coalesce fast body diverges from callee");
      }
    }
    // Scratch exclusivity: the spill window [base, base+len) is only ever
    // touched by this region's fast body — otherwise the fast and slow
    // paths would diverge in visible local state.
    const uint32_t len = static_cast<uint32_t>(cf.local_types.size());
    if (len != 0) {
      if (base + len > ff.local_types.size()) {
        return fail(df, "coalesce local window out of range");
      }
      for (uint32_t j = 0; j < len; ++j) {
        if (ff.local_types[base + j] != cf.local_types[j]) {
          return fail(df, "coalesce local window types mismatch");
        }
      }
      const uint32_t n = static_cast<uint32_t>(ff.code.size());
      for (uint32_t pc = 0; pc < n; ++pc) {
        if (in_fast(r, pc)) continue;
        const FlatOp& op = ff.code[pc];
        if ((op.op == Op::LocalGet || op.op == Op::LocalSet ||
             op.op == Op::LocalTee) &&
            op.a >= base && op.a < base + len) {
          return fail(df, "coalesce scratch locals touched outside region");
        }
      }
    }
    return true;
  }
};

}  // namespace

OptVerifyResult verify_optimised_module(
    const wasm::Module& module, const std::vector<FlatFunc>& flat,
    uint32_t counter_global, const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge) {
  OptVerifyResult result;
  if (flat.size() != module.functions.size()) {
    result.error = "flat module does not match the module's function count";
    return result;
  }
  Checker chk{module, flat, counter_global, {}};
  for (uint32_t df = 0; df < flat.size(); ++df) {
    if (!chk.check_bounds(df) || !chk.check_structure(df)) {
      result.error = chk.error;
      return result;
    }
    for (const OptRegion& r : flat[df].regions) {
      const bool ok = r.kind == OptRegionKind::CoalesceCall
                          ? chk.check_coalesce(df, r)
                          : chk.check_fold(df, r);
      if (!ok) {
        result.error = chk.error;
        return result;
      }
      ++result.regions;
    }
  }
  // Layer 3: the §14 proof over the collapsed view. Slow copies are
  // verbatim baseline code, so the wrapping-debt dataflow applies as-is;
  // its recovered cost vector is the transformed module's claim. Without
  // regions the view is the module itself, so it is not copied.
  VerifyResult vres =
      result.regions == 0
          ? verify_instrumented_module(module, flat, counter_global, weights,
                                       host_charge)
          : verify_instrumented_module(module, collapsed_view(flat),
                                       counter_global, weights, host_charge);
  if (!vres.ok) {
    result.error = "collapsed-view equivalence proof failed: " + vres.error;
    return result;
  }
  result.cost_vector = std::move(vres.cost_vector);
  result.cost_vector_digest = vres.cost_vector_digest;
  result.ok = true;
  return result;
}

}  // namespace acctee::analysis::opt
