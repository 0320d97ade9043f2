// Counter coalescing across tiny leaf calls: a call to a straight-line
// leaf callee (no control flow, no further calls) is inlined behind a
// guarded region — argument spills into appended caller locals, zero-inits,
// then the callee body minus its own counter increments — and the region
// charges the call op, the callee's ops and the callee's increments as one
// fused update. The verbatim `call` survives as the slow copy, taken
// whenever wholesale charging could be observed (checkpoint, limit, or the
// call-depth guard: the fast path pushes no frame, so the region refuses to
// run fast where the real call would trap on depth).
#include <limits>
#include <utility>

#include "analysis/cfg.hpp"
#include "analysis/counter_flow.hpp"
#include "analysis/dominators.hpp"
#include "analysis/loops.hpp"
#include "analysis/opt/internal.hpp"
#include "wasm/opcode.hpp"

namespace acctee::analysis::opt::detail {

using interp::FlatFunc;
using interp::FlatOp;
using interp::OptRegion;
using interp::OptRegionKind;
using wasm::Op;

namespace {

void add_hist(std::vector<interp::BlockOpCount>& hist, Op op,
              uint64_t count) {
  for (interp::BlockOpCount& h : hist) {
    if (h.op == op) {
      h.count += static_cast<uint32_t>(count);
      return;
    }
  }
  hist.push_back({op, static_cast<uint32_t>(count)});
}

}  // namespace

std::optional<CoalesceFacts> match_coalesce_callee(
    const wasm::Module& module, const std::vector<FlatFunc>& flat,
    uint32_t callee, uint32_t counter_global) {
  const uint32_t num_imports = static_cast<uint32_t>(module.imports.size());
  if (callee < num_imports) return std::nullopt;
  const uint32_t dc = callee - num_imports;
  if (dc >= flat.size()) return std::nullopt;
  const FlatFunc& cf = flat[dc];
  if (!cf.regions.empty()) return std::nullopt;
  if (cf.code.empty()) return std::nullopt;
  const uint32_t body_end = static_cast<uint32_t>(cf.code.size()) - 1;
  const FlatOp& ret = cf.code[body_end];
  if (!(ret.synthetic && ret.op == Op::Return)) return std::nullopt;
  if (body_end == 0 || body_end > kMaxCoalesceOps) return std::nullopt;

  CoalesceFacts facts;
  facts.callee = callee;
  facts.nparams = cf.num_params;
  facts.callee_locals = cf.local_types;
  uint32_t q = 0;
  while (q < body_end) {
    if (std::optional<uint64_t> amount =
            increment_amount_at(cf.code, q, counter_global)) {
      if (q + 4 > body_end) return std::nullopt;  // straddles the return
      facts.increment_pcs.push_back(q);
      facts.counter_amount += *amount;
      q += 4;
      continue;
    }
    const FlatOp& op = cf.code[q];
    if (op.synthetic || flat_op_ends_block(op)) return std::nullopt;
    if ((op.op == Op::GlobalGet || op.op == Op::GlobalSet) &&
        op.a == counter_global) {
      return std::nullopt;
    }
    ++q;
  }
  if (facts.increment_pcs.empty()) return std::nullopt;
  // Charge: the call op itself plus every real callee op (increments
  // included — the slow path and the untransformed module both pay them).
  facts.instr_total = 1 + body_end;
  facts.cycles_total = wasm::op_info(Op::Call).base_cost;
  add_hist(facts.hist, Op::Call, 1);
  for (uint32_t pc = 0; pc < body_end; ++pc) {
    facts.cycles_total += wasm::op_info(cf.code[pc].op).base_cost;
    add_hist(facts.hist, cf.code[pc].op, 1);
  }
  return facts;
}

namespace {

/// Pc ranges the pass must leave byte-exact: the body and preheader of
/// every §14-recognised counted-loop region (hoisted or const-trip). The
/// recogniser is positional — a region marker inside one of these would
/// break recognition, orphan the hoist scaffolding and fail the proof.
std::vector<std::pair<uint32_t, uint32_t>> protected_ranges(
    const FlatFunc& ff, uint32_t counter_global,
    const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  const analysis::Cfg cfg = analysis::build_cfg(ff);
  const std::vector<uint32_t> idom = analysis::immediate_dominators(cfg);
  const analysis::Classification cls =
      analysis::classify_ops(ff, cfg, counter_global);
  for (const analysis::CountedRegion& r : analysis::find_counted_regions(
           ff, cfg, idom, cls, counter_global, weights, host_charge)) {
    const analysis::BasicBlock& body = cfg.blocks[r.body_block];
    out.emplace_back(body.begin, body.end);
    const analysis::BasicBlock& pre = cfg.blocks[r.preheader_block];
    out.emplace_back(pre.begin, pre.end);
  }
  return out;
}

}  // namespace

std::vector<FlatFunc> pass_coalesce_calls(
    const wasm::Module& module, const std::vector<FlatFunc>& flat,
    uint32_t counter_global, const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge,
    uint32_t* regions_added) {
  constexpr uint32_t kMaxSitesPerFunction = 16;
  const uint32_t num_imports = static_cast<uint32_t>(module.imports.size());
  std::vector<FlatFunc> out;
  out.reserve(flat.size());
  uint32_t added = 0;
  for (uint32_t df = 0; df < flat.size(); ++df) {
    const FlatFunc& ff = flat[df];
    const uint32_t n = static_cast<uint32_t>(ff.code.size());
    auto inside_existing = [&](uint32_t pc) {
      for (const OptRegion& r : ff.regions) {
        if (pc >= r.enter_pc && pc < r.fast_end) return true;
        if (pc >= r.slow_begin && pc < r.slow_end) return true;
      }
      return false;
    };
    struct Site {
      uint32_t call_pc;
      CoalesceFacts facts;
    };
    std::vector<Site> sites;
    std::vector<uint32_t> heights;
    std::vector<std::pair<uint32_t, uint32_t>> keep_exact;
    bool keep_exact_known = false;
    auto inside_protected = [&](uint32_t pc) {
      if (!keep_exact_known) {
        keep_exact =
            protected_ranges(ff, counter_global, weights, host_charge);
        keep_exact_known = true;
      }
      for (const auto& [b, e] : keep_exact) {
        if (pc >= b && pc < e) return true;
      }
      return false;
    };
    for (uint32_t pc = 0; pc < n && sites.size() < kMaxSitesPerFunction;
         ++pc) {
      const FlatOp& op = ff.code[pc];
      if (op.synthetic || op.op != Op::Call) continue;
      if (op.a == df + num_imports) continue;  // a leaf never calls itself
      if (inside_existing(pc)) continue;
      if (inside_protected(pc)) continue;
      std::optional<CoalesceFacts> facts =
          match_coalesce_callee(module, flat, op.a, counter_global);
      if (!facts) continue;
      if (heights.empty()) heights = interp::operand_heights(module, ff);
      if (heights[pc] == interp::kUnknownHeight ||
          heights[pc + 1] == interp::kUnknownHeight) {
        continue;
      }
      sites.push_back({pc, std::move(*facts)});
    }
    if (sites.empty()) {
      out.push_back(ff);
      continue;
    }
    FuncEditor ed(ff);
    struct Placed {
      const Site* site;
      uint32_t enter_pc;
      uint32_t fast_begin;
      uint32_t fast_end;
    };
    std::vector<Placed> placed;
    size_t next_site = 0;
    for (uint32_t pc = 0; pc < n; ++pc) {
      if (next_site < sites.size() && pc == sites[next_site].call_pc) {
        const Site& s = sites[next_site];
        const FlatFunc& cf = flat[s.facts.callee - num_imports];
        const uint32_t base = ed.append_locals(cf.local_types);
        Placed pl;
        pl.site = &s;
        FlatOp enter;
        enter.op = Op::Nop;
        enter.synthetic = true;
        enter.b = interp::kRegionEnterTag;
        pl.enter_pc = ed.emit(enter);
        ed.map_old(pc, pl.enter_pc);
        pl.fast_begin = ed.pos();
        for (const FlatOp& op : coalesce_fast_body(
                 cf, cf.num_params, base, s.facts.increment_pcs)) {
          ed.emit(op);
        }
        pl.fast_end = ed.pos();
        placed.push_back(pl);
        ++next_site;
        continue;  // the join is the op after the call, copied next
      }
      ed.copy(pc);
    }
    for (const Placed& pl : placed) {
      const Site& s = *pl.site;
      const uint32_t slow_begin = ed.pos();
      ed.emit_copy(s.call_pc, /*synthetic=*/false);
      FlatOp exit;
      exit.op = Op::Br;
      exit.synthetic = true;
      exit.arity = 0;
      exit.unwind = heights[s.call_pc + 1];
      ed.emit_with_old_target(exit, s.call_pc + 1);
      const uint32_t slow_end = ed.pos();

      OptRegion region;
      region.kind = OptRegionKind::CoalesceCall;
      region.enter_pc = pl.enter_pc;
      region.fast_begin = pl.fast_begin;
      region.fast_end = pl.fast_end;
      region.slow_begin = slow_begin;
      region.slow_end = slow_end;
      region.callee = s.facts.callee;
      region.trips = 1;
      region.instr_total = s.facts.instr_total;
      region.cycles_total = s.facts.cycles_total;
      region.counter_amount = s.facts.counter_amount;
      region.counter_global = counter_global;
      region.calls_folded = 1;
      region.frames_needed = 1;
      ed.add_region(region, s.facts.hist);
      ++added;
    }
    FlatFunc rebuilt = ed.finish();
    for (const OptRegion& r : rebuilt.regions) {
      rebuilt.code[r.enter_pc].target_pc = r.slow_begin;
    }
    interp::compute_block_costs(rebuilt);
    out.push_back(std::move(rebuilt));
  }
  if (regions_added != nullptr) *regions_added = added;
  return out;
}

}  // namespace acctee::analysis::opt::detail
