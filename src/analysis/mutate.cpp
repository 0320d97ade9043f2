#include "analysis/mutate.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "common/error.hpp"
#include "wasm/opcode.hpp"

namespace acctee::analysis {

using wasm::Instr;
using wasm::Op;

const char* to_string(MutationKind kind) {
  switch (kind) {
    case MutationKind::DropIncrement: return "drop-increment";
    case MutationKind::HalveIncrement: return "halve-increment";
    case MutationKind::MoveIncrementAcrossBranch: return "move-across-branch";
    case MutationKind::RetargetIncrement: return "retarget-counter";
    case MutationKind::CorruptHoistedWeight: return "corrupt-hoisted-weight";
  }
  return "?";
}

namespace {

/// Walks every function body in deterministic pre-order, offering each
/// applicable mutation to `offer`. When enumerating, `offer` records the
/// site; when applying, it mutates at the chosen ordinal and returns true
/// to stop the walk.
class Walker {
 public:
  Walker(uint32_t counter_global,
         std::function<bool(const MutationSite&, std::vector<Instr>*, size_t)>
             offer)
      : counter_(counter_global), offer_(std::move(offer)) {}

  void walk(wasm::Module& module) {
    for (uint32_t f = 0; f < module.functions.size(); ++f) {
      func_ = f;
      visit(module.functions[f].body);
      if (done_) return;
    }
  }

 private:
  bool is_increment(const std::vector<Instr>& body, size_t i) const {
    return i + 3 < body.size() && body[i].op == Op::GlobalGet &&
           body[i].index == counter_ && body[i + 1].op == Op::I64Const &&
           body[i + 2].op == Op::I64Add && body[i + 3].op == Op::GlobalSet &&
           body[i + 3].index == counter_;
  }

  bool is_epilogue(const std::vector<Instr>& body, size_t i) const {
    return i + 10 < body.size() && body[i].op == Op::GlobalGet &&
           body[i].index == counter_ && body[i + 1].op == Op::LocalGet &&
           body[i + 2].op == Op::LocalGet && body[i + 3].op == Op::I32Sub &&
           body[i + 4].op == Op::I32Const && body[i + 5].op == Op::I32DivS &&
           body[i + 6].op == Op::I64ExtendI32S &&
           body[i + 7].op == Op::I64Const && body[i + 8].op == Op::I64Mul &&
           body[i + 9].op == Op::I64Add && body[i + 10].op == Op::GlobalSet &&
           body[i + 10].index == counter_;
  }

  bool offer(MutationKind kind, std::vector<Instr>& body, size_t i,
             const char* what) {
    MutationSite site;
    site.kind = kind;
    site.function = func_;
    std::ostringstream desc;
    desc << to_string(kind) << " in defined func " << func_
         << " at body offset " << i << " (" << what << ")";
    site.description = desc.str();
    done_ = offer_(site, &body, i);
    return done_;
  }

  void visit(std::vector<Instr>& body) {
    for (size_t i = 0; i < body.size() && !done_; ++i) {
      if (is_increment(body, i)) {
        if (offer(MutationKind::DropIncrement, body, i, "increment")) return;
        if (body[i + 1].imm != 0 &&
            offer(MutationKind::HalveIncrement, body, i, "increment")) {
          return;
        }
        if (i + 4 < body.size() && (wasm::is_branch(body[i + 4].op) ||
                                    body[i + 4].op == Op::Return ||
                                    body[i + 4].op == Op::Unreachable)) {
          if (offer(MutationKind::MoveIncrementAcrossBranch, body, i,
                    "increment before branch")) {
            return;
          }
        }
        if (offer(MutationKind::RetargetIncrement, body, i, "increment")) {
          return;
        }
      } else if (is_epilogue(body, i) && body[i + 7].imm != 0) {
        if (offer(MutationKind::CorruptHoistedWeight, body, i, "epilogue")) {
          return;
        }
      }
      visit(body[i].body);
      if (done_) return;
      visit(body[i].else_body);
    }
  }

  uint32_t counter_;
  std::function<bool(const MutationSite&, std::vector<Instr>*, size_t)> offer_;
  uint32_t func_ = 0;
  bool done_ = false;
};

}  // namespace

std::vector<MutationSite> enumerate_mutations(const wasm::Module& module,
                                              uint32_t counter_global) {
  std::vector<MutationSite> sites;
  wasm::Module copy = module;  // Walker takes mutable bodies; never mutates
  Walker walker(counter_global,
                [&](const MutationSite& site, std::vector<Instr>*, size_t) {
                  sites.push_back(site);
                  return false;
                });
  walker.walk(copy);
  return sites;
}

wasm::Module apply_mutation(const wasm::Module& module, uint32_t counter_global,
                            size_t index) {
  wasm::Module mutated = module;
  size_t ordinal = 0;
  bool applied = false;
  bool need_decoy = false;
  const uint32_t decoy_index = static_cast<uint32_t>(mutated.globals.size());

  Walker walker(
      counter_global,
      [&](const MutationSite& site, std::vector<Instr>* body, size_t i) {
        if (ordinal++ != index) return false;
        switch (site.kind) {
          case MutationKind::DropIncrement:
            body->erase(body->begin() + static_cast<ptrdiff_t>(i),
                        body->begin() + static_cast<ptrdiff_t>(i + 4));
            break;
          case MutationKind::HalveIncrement:
            (*body)[i + 1].imm = static_cast<uint64_t>(
                static_cast<int64_t>((*body)[i + 1].imm) / 2);
            break;
          case MutationKind::MoveIncrementAcrossBranch:
            // [inc0..inc3][branch] -> [branch][inc0..inc3]
            std::rotate(body->begin() + static_cast<ptrdiff_t>(i),
                        body->begin() + static_cast<ptrdiff_t>(i + 4),
                        body->begin() + static_cast<ptrdiff_t>(i + 5));
            break;
          case MutationKind::RetargetIncrement:
            (*body)[i + 3].index = decoy_index;
            need_decoy = true;
            break;
          case MutationKind::CorruptHoistedWeight:
            (*body)[i + 7].imm = (*body)[i + 7].imm / 2;
            break;
        }
        applied = true;
        return true;
      });
  walker.walk(mutated);

  if (!applied) {
    throw Error("apply_mutation: site index out of range");
  }
  if (need_decoy) {
    wasm::Global decoy;
    decoy.type = wasm::ValType::I64;
    decoy.mutable_ = true;
    decoy.init = Instr::i64c(0);
    decoy.name = "mutation_decoy";
    mutated.globals.push_back(std::move(decoy));
  }
  return mutated;
}

// ---- lowered-bytecode tampering ----

using interp::BcFunc;
using interp::BcInstr;
using interp::BcOp;

const char* to_string(LoweringMutationKind kind) {
  switch (kind) {
    case LoweringMutationKind::EditImmediate: return "edit-immediate";
    case LoweringMutationKind::DropBlockCharge: return "drop-block-charge";
    case LoweringMutationKind::DropFusedCounterCharge:
      return "drop-fused-counter-charge";
    case LoweringMutationKind::RetargetFusedBranch:
      return "retarget-fused-branch";
    case LoweringMutationKind::UnderReserveFrame:
      return "under-reserve-frame";
  }
  return "?";
}

namespace {

// Superops whose `b` field carries a fused constant operand, generated from
// bytecode.def so new const-carrying families join the corpus automatically.
bool carries_const_immediate(BcOp op) {
  switch (op) {
#define ACCTEE_BC_ANY(name)
#define ACCTEE_BC_K_I32(name, base, expr) case BcOp::name:
#define ACCTEE_BC_K_I64(name, base, expr) case BcOp::name:
#define ACCTEE_BC_LKOS_I32(name, base, expr) case BcOp::name:
#define ACCTEE_BC_LKOS_I64(name, base, expr) case BcOp::name:
#include "interp/bytecode.def"
#undef ACCTEE_BC_LKOS_I64
#undef ACCTEE_BC_LKOS_I32
#undef ACCTEE_BC_K_I64
#undef ACCTEE_BC_K_I32
#undef ACCTEE_BC_ANY
      return true;
    default:
      return false;
  }
}

// Offers every applicable mutation of `lowered` to `offer` in deterministic
// order — per function, its instruction sites in (pc, kind) order, then its
// frame site (UnderReserveFrame, reported at pc 0) — and stops when `offer`
// returns true.
void walk_lowering(std::vector<BcFunc>& lowered,
                   const std::function<bool(LoweringMutationKind, uint32_t,
                                            uint32_t, BcFunc&)>& offer) {
  for (uint32_t f = 0; f < lowered.size(); ++f) {
    BcFunc& bf = lowered[f];
    for (uint32_t pc = 0; pc < bf.code.size(); ++pc) {
      const BcInstr& bi = bf.code[pc];
      if (carries_const_immediate(bi.op)) {
        if (offer(LoweringMutationKind::EditImmediate, f, pc, bf)) return;
      }
      if (bi.op == BcOp::EnterBlock && (bi.a != 0 || bi.b != 0)) {
        if (offer(LoweringMutationKind::DropBlockCharge, f, pc, bf)) return;
      }
      if (bi.op == BcOp::GlobalAddConstI64 && bi.b != 0) {
        if (offer(LoweringMutationKind::DropFusedCounterCharge, f, pc, bf)) {
          return;
        }
      }
      if (interp::bc_is_super(bi.op) && interp::bc_has_branch_target(bi.op) &&
          bi.target_pc != 0) {
        if (offer(LoweringMutationKind::RetargetFusedBranch, f, pc, bf)) {
          return;
        }
      }
    }
    if (bf.max_height != 0) {
      if (offer(LoweringMutationKind::UnderReserveFrame, f, 0, bf)) return;
    }
  }
}

LoweringMutationSite make_site(LoweringMutationKind kind, uint32_t f,
                               uint32_t pc, const BcFunc& bf) {
  LoweringMutationSite site;
  site.kind = kind;
  site.function = f;
  site.pc = pc;
  std::ostringstream desc;
  desc << to_string(kind) << " in defined func " << f;
  if (kind == LoweringMutationKind::UnderReserveFrame) {
    desc << " (max height " << bf.max_height << ")";
  } else {
    desc << " at bc pc " << pc << " (" << interp::to_string(bf.code[pc].op)
         << ")";
  }
  site.description = desc.str();
  return site;
}

}  // namespace

std::vector<LoweringMutationSite> enumerate_lowering_mutations(
    const std::vector<BcFunc>& lowered) {
  std::vector<LoweringMutationSite> sites;
  std::vector<BcFunc> copy = lowered;  // walker takes mutable functions
  walk_lowering(copy, [&](LoweringMutationKind kind, uint32_t f, uint32_t pc,
                          BcFunc& bf) {
    sites.push_back(make_site(kind, f, pc, bf));
    return false;
  });
  return sites;
}

std::vector<BcFunc> apply_lowering_mutation(const std::vector<BcFunc>& lowered,
                                            size_t index) {
  std::vector<BcFunc> mutated = lowered;
  size_t ordinal = 0;
  bool applied = false;
  walk_lowering(mutated, [&](LoweringMutationKind kind, uint32_t,
                             uint32_t pc, BcFunc& bf) {
    if (ordinal++ != index) return false;
    BcInstr& bi = bf.code[pc];
    switch (kind) {
      case LoweringMutationKind::EditImmediate:
        bi.b += 1;
        break;
      case LoweringMutationKind::DropBlockCharge:
        // The block executes for free: no instruction, cycle or histogram
        // charge at entry.
        bi.a = 0;
        bi.b = 0;
        bi.unwind = bi.c;  // empty hist range
        break;
      case LoweringMutationKind::DropFusedCounterCharge:
        bi.b = 0;
        break;
      case LoweringMutationKind::RetargetFusedBranch:
        bi.target_pc = 0;  // entry block: plausible, but wrong control flow
        break;
      case LoweringMutationKind::UnderReserveFrame:
        // The deepest push of the frame lands one slot past its
        // reservation: in the next frame's locals, or past the buffer.
        bf.max_height -= 1;
        break;
    }
    applied = true;
    return true;
  });
  if (!applied) {
    throw Error("apply_lowering_mutation: site index out of range");
  }
  return mutated;
}

}  // namespace acctee::analysis
