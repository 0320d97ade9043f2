#include "interp/lower.hpp"

#include <optional>
#include <stdexcept>

namespace acctee::interp {

namespace {

using wasm::Op;

// Fusion pattern tables, generated from bytecode.def so the lowerer, the
// enum and the handlers can never disagree about which base op feeds which
// superinstruction.

std::optional<BcOp> cmpbr_for(Op op) {
  switch (op) {
#define ACCTEE_BC_ANY(name)
#define ACCTEE_BC_CMPBR(name, base, expr) \
  case Op::base:                          \
    return BcOp::name;
#define ACCTEE_BC_CMPBR_EQZ(name, base) \
  case Op::base:                        \
    return BcOp::name;
#include "interp/bytecode.def"
#undef ACCTEE_BC_CMPBR_EQZ
#undef ACCTEE_BC_CMPBR
#undef ACCTEE_BC_ANY
    default:
      return std::nullopt;
  }
}

std::optional<BcOp> llcmpbr_for(Op op) {
  switch (op) {
#define ACCTEE_BC_ANY(name)
#define ACCTEE_BC_LLCMPBR(name, base, expr) \
  case Op::base:                            \
    return BcOp::name;
#include "interp/bytecode.def"
#undef ACCTEE_BC_LLCMPBR
#undef ACCTEE_BC_ANY
    default:
      return std::nullopt;
  }
}

std::optional<BcOp> l2_for(Op op) {
  switch (op) {
#define ACCTEE_BC_ANY(name)
#define ACCTEE_BC_L2(name, base, expr) \
  case Op::base:                       \
    return BcOp::name;
#define ACCTEE_BC_L2_I32 ACCTEE_BC_L2
#define ACCTEE_BC_L2_I64 ACCTEE_BC_L2
#define ACCTEE_BC_L2_F32 ACCTEE_BC_L2
#define ACCTEE_BC_L2_F64 ACCTEE_BC_L2
#include "interp/bytecode.def"
#undef ACCTEE_BC_L2_F64
#undef ACCTEE_BC_L2_F32
#undef ACCTEE_BC_L2_I64
#undef ACCTEE_BC_L2_I32
#undef ACCTEE_BC_L2
#undef ACCTEE_BC_ANY
    default:
      return std::nullopt;
  }
}

std::optional<BcOp> k_i32_for(Op op) {
  switch (op) {
#define ACCTEE_BC_ANY(name)
#define ACCTEE_BC_K_I32(name, base, expr) \
  case Op::base:                          \
    return BcOp::name;
#include "interp/bytecode.def"
#undef ACCTEE_BC_K_I32
#undef ACCTEE_BC_ANY
    default:
      return std::nullopt;
  }
}

std::optional<BcOp> k_i64_for(Op op) {
  switch (op) {
#define ACCTEE_BC_ANY(name)
#define ACCTEE_BC_K_I64(name, base, expr) \
  case Op::base:                          \
    return BcOp::name;
#include "interp/bytecode.def"
#undef ACCTEE_BC_K_I64
#undef ACCTEE_BC_ANY
    default:
      return std::nullopt;
  }
}

std::optional<BcOp> ggos_for(Op op) {
  switch (op) {
#define ACCTEE_BC_ANY(name)
#define ACCTEE_BC_GGOS(name, base, expr) \
  case Op::base:                         \
    return BcOp::name;
#define ACCTEE_BC_GGOS_I32 ACCTEE_BC_GGOS
#define ACCTEE_BC_GGOS_I64 ACCTEE_BC_GGOS
#define ACCTEE_BC_GGOS_F32 ACCTEE_BC_GGOS
#define ACCTEE_BC_GGOS_F64 ACCTEE_BC_GGOS
#include "interp/bytecode.def"
#undef ACCTEE_BC_GGOS_F64
#undef ACCTEE_BC_GGOS_F32
#undef ACCTEE_BC_GGOS_I64
#undef ACCTEE_BC_GGOS_I32
#undef ACCTEE_BC_GGOS
#undef ACCTEE_BC_ANY
    default:
      return std::nullopt;
  }
}

std::optional<BcOp> lkos_i32_for(Op op) {
  switch (op) {
#define ACCTEE_BC_ANY(name)
#define ACCTEE_BC_LKOS_I32(name, base, expr) \
  case Op::base:                             \
    return BcOp::name;
#include "interp/bytecode.def"
#undef ACCTEE_BC_LKOS_I32
#undef ACCTEE_BC_ANY
    default:
      return std::nullopt;
  }
}

std::optional<BcOp> lkos_i64_for(Op op) {
  switch (op) {
#define ACCTEE_BC_ANY(name)
#define ACCTEE_BC_LKOS_I64(name, base, expr) \
  case Op::base:                             \
    return BcOp::name;
#include "interp/bytecode.def"
#undef ACCTEE_BC_LKOS_I64
#undef ACCTEE_BC_ANY
    default:
      return std::nullopt;
  }
}

// Tries to fuse a superinstruction starting at flat pc `i` (never reaching
// past the block end `end`); appends it to `out` and returns the number of
// flat ops consumed, or 0 when nothing matched. Synthetic ops never take
// part in a fusion — except inside an optimisation-region fast body
// (`fast`), whose synthetic op copies keep their original semantics and are
// only ever executed fully batched, so the fused forms behave identically.
// Longest patterns win.
uint32_t try_fuse(const FlatFunc& ff, uint32_t i, uint32_t end,
                  const std::vector<bool>& fast, BcFunc& out) {
  const std::vector<FlatOp>& c = ff.code;
  const uint32_t n = end - i;
  auto real = [&](uint32_t k) {
    return !c[i + k].synthetic || (!fast.empty() && fast[i + k]);
  };

  if (n >= 4 && real(0) && real(1) && real(2) && real(3)) {
    const FlatOp& o0 = c[i];
    const FlatOp& o1 = c[i + 1];
    const FlatOp& o2 = c[i + 2];
    const FlatOp& o3 = c[i + 3];
    // [global.get g][i64.const w][i64.add][global.set g] — the instrumented
    // counter increment (and any other constant global bump).
    if (o0.op == Op::GlobalGet && o1.op == Op::I64Const &&
        o2.op == Op::I64Add && o3.op == Op::GlobalSet && o3.a == o0.a) {
      BcInstr bi;
      bi.op = BcOp::GlobalAddConstI64;
      bi.a = o0.a;
      bi.b = o1.b;
      bi.flat_pc = i;
      bi.flat_end = i + 4;
      out.code.push_back(bi);
      return 4;
    }
    if (o0.op == Op::LocalGet && o1.op == Op::LocalGet) {
      // [local.get][local.get][cmp][br_if] — the loop back-edge shape.
      if (o3.op == Op::BrIf) {
        if (auto sop = llcmpbr_for(o2.op)) {
          BcInstr bi;
          bi.op = *sop;
          bi.a = o0.a;
          bi.c = o1.a;
          bi.target_pc = o3.target_pc;
          bi.unwind = o3.unwind;
          bi.arity = o3.arity;
          bi.flat_pc = i;
          bi.flat_end = i + 4;
          out.code.push_back(bi);
          return 4;
        }
      }
      // [local.get][local.get][binop][local.set]
      if (o3.op == Op::LocalSet) {
        if (auto sop = ggos_for(o2.op)) {
          BcInstr bi;
          bi.op = *sop;
          bi.a = o0.a;
          bi.c = o1.a;
          bi.unwind = o3.a;
          bi.flat_pc = i;
          bi.flat_end = i + 4;
          out.code.push_back(bi);
          return 4;
        }
      }
    }
    // [local.get][const][binop][local.set] — induction updates.
    if (o0.op == Op::LocalGet && o3.op == Op::LocalSet) {
      std::optional<BcOp> sop;
      if (o1.op == Op::I32Const) {
        sop = lkos_i32_for(o2.op);
      } else if (o1.op == Op::I64Const) {
        sop = lkos_i64_for(o2.op);
      }
      if (sop) {
        BcInstr bi;
        bi.op = *sop;
        bi.a = o0.a;
        bi.b = o1.b;
        bi.unwind = o3.a;
        bi.flat_pc = i;
        bi.flat_end = i + 4;
        out.code.push_back(bi);
        return 4;
      }
    }
  }

  if (n >= 2 && real(0) && real(1)) {
    const FlatOp& o0 = c[i];
    const FlatOp& o1 = c[i + 1];
    // [cmp][br_if]
    if (o1.op == Op::BrIf) {
      if (auto sop = cmpbr_for(o0.op)) {
        BcInstr bi;
        bi.op = *sop;
        bi.target_pc = o1.target_pc;
        bi.unwind = o1.unwind;
        bi.arity = o1.arity;
        bi.flat_pc = i;
        bi.flat_end = i + 2;
        out.code.push_back(bi);
        return 2;
      }
    }
    // [local.get][binop] — local as the right-hand operand.
    if (o0.op == Op::LocalGet) {
      if (auto sop = l2_for(o1.op)) {
        BcInstr bi;
        bi.op = *sop;
        bi.a = o0.a;
        bi.flat_pc = i;
        bi.flat_end = i + 2;
        out.code.push_back(bi);
        return 2;
      }
    }
    // [const][binop] — const as the right-hand operand.
    if (o0.op == Op::I32Const) {
      if (auto sop = k_i32_for(o1.op)) {
        BcInstr bi;
        bi.op = *sop;
        bi.b = o0.b;
        bi.flat_pc = i;
        bi.flat_end = i + 2;
        out.code.push_back(bi);
        return 2;
      }
    }
    if (o0.op == Op::I64Const) {
      if (auto sop = k_i64_for(o1.op)) {
        BcInstr bi;
        bi.op = *sop;
        bi.b = o0.b;
        bi.flat_pc = i;
        bi.flat_end = i + 2;
        out.code.push_back(bi);
        return 2;
      }
    }
  }
  return 0;
}

}  // namespace

BcFunc lower_function(const wasm::Module& module, const FlatFunc& ff,
                      const LowerOptions& options) {
  BcFunc out;
  out.code.reserve(ff.code.size() + ff.blocks.size());
  // bc pc of each flat block head (branches land on the EnterBlock).
  std::vector<uint32_t> bc_of_flat(ff.code.size(), UINT32_MAX);

  // Optimisation-region fast-body pcs: those blocks carry no accounting (the
  // region enter charged the whole span), so no EnterBlock is emitted for
  // them — branches land directly on the first lowered op.
  std::vector<bool> fast;
  if (!ff.regions.empty()) {
    fast.assign(ff.code.size(), false);
    for (const OptRegion& r : ff.regions) {
      for (uint32_t p = r.fast_begin; p < r.fast_end; ++p) fast[p] = true;
    }
  }

  uint32_t start = 0;
  for (const BlockCost& blk : ff.blocks) {
    bc_of_flat[start] = static_cast<uint32_t>(out.code.size());
    if (fast.empty() || !fast[start]) {
      BcInstr eb;
      eb.op = BcOp::EnterBlock;
      eb.a = blk.instructions;
      eb.b = blk.cycles;
      eb.c = blk.hist_begin;
      eb.unwind = blk.hist_end;
      // Flat end of the block, for the trap un-charge bookkeeping
      // (charged_end_pc_). Not a branch target — never remapped.
      eb.target_pc = blk.end_pc;
      eb.flat_pc = start;  // empty flat range: EnterBlock is pure bookkeeping
      eb.flat_end = start;
      out.code.push_back(eb);
    }

    uint32_t i = start;
    while (i < blk.end_pc) {
      if (options.fuse) {
        if (uint32_t consumed = try_fuse(ff, i, blk.end_pc, fast, out)) {
          i += consumed;
          continue;
        }
      }
      const FlatOp& f = ff.code[i];
      BcInstr bi;
      // Base ops share enumerator order between wasm::Op and BcOp.
      bi.op = static_cast<BcOp>(static_cast<uint16_t>(f.op));
      bi.arity = f.arity;
      bi.a = f.a;
      bi.target_pc = f.target_pc;
      bi.unwind = f.unwind;
      bi.b = f.b;
      bi.flat_pc = i;
      bi.flat_end = i + 1;
      if (is_region_enter(f)) {
        // The marker's flat range is empty: it is pure bookkeeping to the
        // serial fallback, exactly like EnterBlock.
        bi.flat_end = i;
      }
      out.code.push_back(bi);
      ++i;
    }
    start = blk.end_pc;
  }

  // Remap branch targets from flat pcs to bytecode pcs. Every target is a
  // block head by construction (compute_block_costs marks them), so the map
  // is always populated. Region-enter markers lower to Nop — not a branch
  // op, but their slow-path target needs the same remap.
  for (BcInstr& bi : out.code) {
    const bool region_marker = bi.op == BcOp::Nop && bi.b != 0;
    if (!bc_has_branch_target(bi.op) && !region_marker) continue;
    uint32_t mapped = bc_of_flat.at(bi.target_pc);
    if (mapped == UINT32_MAX) {
      throw std::logic_error("lower: branch target is not a block head");
    }
    bi.target_pc = mapped;
  }
  out.br_tables = ff.br_tables;
  for (auto& table : out.br_tables) {
    for (BrTarget& t : table) {
      uint32_t mapped = bc_of_flat.at(t.pc);
      if (mapped == UINT32_MAX) {
        throw std::logic_error("lower: br_table target is not a block head");
      }
      t.pc = mapped;
    }
  }
  // Over the flat code actually lowered: a §19 coalesce region inlines a
  // leaf callee's operands into this frame, so an optimised function can
  // need more slots than its baseline flattening.
  out.max_height = max_operand_height(module, ff);
  return out;
}

std::vector<BcFunc> lower_module(const wasm::Module& module,
                                 const std::vector<FlatFunc>& flat,
                                 const LowerOptions& options) {
  std::vector<BcFunc> out;
  out.reserve(flat.size());
  for (const FlatFunc& ff : flat) {
    out.push_back(lower_function(module, ff, options));
  }
  return out;
}

void digest_flat_code(crypto::Sha256Writer& w,
                      const std::vector<FlatOp>& code) {
  w.record(4).u32(static_cast<uint32_t>(code.size()));
  for (const FlatOp& op : code) {
    w.record(23)
        .u8(static_cast<uint8_t>(op.op))
        .u8(op.synthetic ? 1 : 0)
        .u8(op.arity)
        .u32(op.a)
        .u32(op.target_pc)
        .u32(op.unwind)
        .u64(op.b);
  }
}

void digest_br_tables(crypto::Sha256Writer& w,
                      const std::vector<std::vector<BrTarget>>& tables) {
  w.record(4).u32(static_cast<uint32_t>(tables.size()));
  for (const auto& table : tables) {
    w.record(4).u32(static_cast<uint32_t>(table.size()));
    for (const BrTarget& t : table) {
      w.record(9).u32(t.pc).u32(t.unwind).u8(t.arity);
    }
  }
}

void digest_regions(crypto::Sha256Writer& w, const FlatFunc& ff) {
  w.record(4).u32(static_cast<uint32_t>(ff.regions.size()));
  for (const OptRegion& r : ff.regions) {
    w.record(77)
        .u8(static_cast<uint8_t>(r.kind))
        .u32(r.enter_pc)
        .u32(r.fast_begin)
        .u32(r.fast_end)
        .u32(r.slow_begin)
        .u32(r.slow_end)
        .u32(r.callee)
        .u64(r.trips)
        .u64(r.instr_total)
        .u64(r.cycles_total)
        .u64(r.counter_amount)
        .u32(r.counter_global)
        .u32(r.calls_folded)
        .u32(r.frames_needed)
        .u32(r.hist_begin)
        .u32(r.hist_end);
  }
  w.record(4).u32(static_cast<uint32_t>(ff.region_hist.size()));
  for (const BlockOpCount& h : ff.region_hist) {
    w.record(5).u8(static_cast<uint8_t>(h.op)).u32(h.count);
  }
}

crypto::Digest lowering_digest(const std::vector<FlatFunc>& flat,
                               const std::vector<BcFunc>& lowered,
                               const LowerOptions& options) {
  // v2 extends v1 with the optimisation-region tables; a module with no
  // regions keeps the exact v1 bytes so opt_level=0 digests are unchanged.
  bool any_regions = false;
  for (const FlatFunc& ff : flat) {
    if (!ff.regions.empty()) any_regions = true;
  }
  crypto::Sha256Writer w;
  w.bytes(any_regions ? "acctee.lowering.v2" : "acctee.lowering.v1");
  w.record(9)
      .u8(options.fuse ? 1 : 0)
      .u32(static_cast<uint32_t>(flat.size()))
      .u32(static_cast<uint32_t>(lowered.size()));
  for (size_t f = 0; f < flat.size(); ++f) {
    const FlatFunc& ff = flat[f];
    digest_flat_code(w, ff.code);
    digest_br_tables(w, ff.br_tables);
    w.record(4).u32(static_cast<uint32_t>(ff.blocks.size()));
    for (const BlockCost& blk : ff.blocks) {
      w.record(24)
          .u32(blk.end_pc)
          .u32(blk.instructions)
          .u64(blk.cycles)
          .u32(blk.hist_begin)
          .u32(blk.hist_end);
    }
    w.record(4).u32(static_cast<uint32_t>(ff.block_hist.size()));
    for (const BlockOpCount& h : ff.block_hist) {
      w.record(5).u8(static_cast<uint8_t>(h.op)).u32(h.count);
    }
    if (any_regions) digest_regions(w, ff);
    if (f < lowered.size()) {
      const BcFunc& bf = lowered[f];
      w.record(4).u32(static_cast<uint32_t>(bf.code.size()));
      for (const BcInstr& bi : bf.code) {
        w.record(37)
            .u32(static_cast<uint32_t>(bi.op))
            .u8(bi.arity)
            .u32(bi.a)
            .u32(bi.c)
            .u32(bi.target_pc)
            .u32(bi.unwind)
            .u32(bi.flat_pc)
            .u32(bi.flat_end)
            .u64(bi.b);
      }
      digest_br_tables(w, bf.br_tables);
    }
  }
  return w.finish();
}

}  // namespace acctee::interp
