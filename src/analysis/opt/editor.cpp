#include <algorithm>

#include "analysis/opt/internal.hpp"
#include "common/error.hpp"
#include "wasm/opcode.hpp"

namespace acctee::analysis::opt::detail {

using interp::BlockOpCount;
using interp::FlatFunc;
using interp::FlatOp;
using interp::OptRegion;
using wasm::Op;

bool flat_op_ends_block(const FlatOp& op) {
  if (interp::is_region_enter(op)) return true;
  switch (op.op) {
    case Op::If:
    case Op::Br:
    case Op::BrIf:
    case Op::BrTable:
    case Op::Return:
    case Op::Call:
    case Op::CallIndirect:
    case Op::Unreachable:
    case Op::MemoryGrow:
      return true;
    default:
      return false;
  }
}

std::optional<uint64_t> increment_amount_at(const std::vector<FlatOp>& code,
                                            uint32_t pc,
                                            uint32_t counter_global) {
  if (pc + 4 > code.size()) return std::nullopt;
  const FlatOp& g0 = code[pc];
  const FlatOp& k = code[pc + 1];
  const FlatOp& add = code[pc + 2];
  const FlatOp& g1 = code[pc + 3];
  auto plain = [](const FlatOp& op, Op want) {
    return !op.synthetic && op.op == want;
  };
  if (plain(g0, Op::GlobalGet) && g0.a == counter_global &&
      plain(k, Op::I64Const) && plain(add, Op::I64Add) &&
      plain(g1, Op::GlobalSet) && g1.a == counter_global) {
    return k.b;
  }
  return std::nullopt;
}

std::vector<FlatOp> coalesce_fast_body(
    const FlatFunc& callee, uint32_t nparams, uint32_t base,
    const std::vector<uint32_t>& increment_pcs) {
  std::vector<FlatOp> out;
  // Arguments sit on the caller's stack in push order; spill them into the
  // appended locals in reverse so local base+k receives argument k.
  for (uint32_t k = nparams; k-- > 0;) {
    FlatOp spill;
    spill.op = Op::LocalSet;
    spill.synthetic = true;
    spill.a = base + k;
    out.push_back(spill);
  }
  // The callee starts with its non-param locals zeroed.
  for (uint32_t j = nparams;
       j < static_cast<uint32_t>(callee.local_types.size()); ++j) {
    FlatOp zero;
    zero.synthetic = true;
    switch (callee.local_types[j]) {
      case wasm::ValType::I32:
        zero.op = Op::I32Const;
        break;
      case wasm::ValType::I64:
        zero.op = Op::I64Const;
        break;
      case wasm::ValType::F32:
        zero.op = Op::F32Const;
        break;
      case wasm::ValType::F64:
        zero.op = Op::F64Const;
        break;
    }
    zero.b = 0;
    out.push_back(zero);
    FlatOp st;
    st.op = Op::LocalSet;
    st.synthetic = true;
    st.a = base + j;
    out.push_back(st);
  }
  // The callee body minus its increments, locals shifted into the appended
  // slots. The final synthetic return is dropped: execution falls through
  // to the join with the callee's results on the stack.
  const uint32_t body_end = static_cast<uint32_t>(callee.code.size()) - 1;
  size_t next_inc = 0;
  for (uint32_t q = 0; q < body_end; ++q) {
    if (next_inc < increment_pcs.size() && q == increment_pcs[next_inc]) {
      q += 3;  // skip the 4-op window
      ++next_inc;
      continue;
    }
    FlatOp op = callee.code[q];
    op.synthetic = true;
    if (op.op == Op::LocalGet || op.op == Op::LocalSet ||
        op.op == Op::LocalTee) {
      op.a += base;
    }
    out.push_back(op);
  }
  return out;
}

FuncEditor::FuncEditor(const FlatFunc& src) : src_(src) {
  out_.type_index = src.type_index;
  out_.local_types = src.local_types;
  out_.num_params = src.num_params;
  out_.region_hist = src.region_hist;
  out_.code.reserve(src.code.size());
  new_pc_.assign(src.code.size(), UINT32_MAX);
  table_live_.assign(src.br_tables.size(), false);
}

void FuncEditor::copy(uint32_t old_pc) {
  const FlatOp& op = src_.code[old_pc];
  new_pc_[old_pc] = pos();
  if (op.op == Op::If || op.op == Op::Br || op.op == Op::BrIf ||
      interp::is_region_enter(op)) {
    pending_.push_back({pos()});
  }
  if (op.op == Op::BrTable) table_live_[op.a] = true;
  out_.code.push_back(op);
}

uint32_t FuncEditor::emit(FlatOp op) {
  const uint32_t at = pos();
  out_.code.push_back(op);
  return at;
}

uint32_t FuncEditor::emit_copy(uint32_t old_pc, bool synthetic,
                               uint32_t new_target) {
  FlatOp op = src_.code[old_pc];
  op.synthetic = synthetic;
  if (op.op == Op::If || op.op == Op::Br || op.op == Op::BrIf) {
    op.target_pc = new_target;
  }
  if (op.op == Op::BrTable) table_live_[op.a] = true;
  const uint32_t at = pos();
  out_.code.push_back(op);
  return at;
}

uint32_t FuncEditor::emit_with_old_target(FlatOp op, uint32_t old_target) {
  const uint32_t at = pos();
  op.target_pc = old_target;
  pending_.push_back({at});
  out_.code.push_back(op);
  return at;
}

void FuncEditor::map_old(uint32_t old_pc, uint32_t new_pc) {
  new_pc_[old_pc] = new_pc;
}

uint32_t FuncEditor::append_locals(const std::vector<wasm::ValType>& types) {
  const uint32_t base = static_cast<uint32_t>(out_.local_types.size());
  out_.local_types.insert(out_.local_types.end(), types.begin(), types.end());
  return base;
}

void FuncEditor::add_region(OptRegion region,
                            const std::vector<BlockOpCount>& hist) {
  region.hist_begin = static_cast<uint32_t>(out_.region_hist.size());
  out_.region_hist.insert(out_.region_hist.end(), hist.begin(), hist.end());
  region.hist_end = static_cast<uint32_t>(out_.region_hist.size());
  added_regions_.push_back(region);
}

interp::FlatFunc FuncEditor::finish() {
  auto remap = [&](uint32_t old_pc) {
    if (old_pc >= new_pc_.size() || new_pc_[old_pc] == UINT32_MAX) {
      throw Error("opt: edited function has a dangling branch target");
    }
    return new_pc_[old_pc];
  };
  // One past the last op of a contiguous copied range: the range's last op
  // definitely survived, so its successor position is new_pc[last] + 1.
  auto remap_end = [&](uint32_t old_end) {
    return old_end == 0 ? 0u : remap(old_end - 1) + 1;
  };
  for (const Pending& p : pending_) {
    out_.code[p.site].target_pc = remap(out_.code[p.site].target_pc);
  }
  out_.br_tables.resize(src_.br_tables.size());
  for (size_t t = 0; t < src_.br_tables.size(); ++t) {
    if (table_live_[t]) {
      out_.br_tables[t] = src_.br_tables[t];
      for (interp::BrTarget& e : out_.br_tables[t]) e.pc = remap(e.pc);
    } else {
      // The owning br_table was elided; keep the slot (op.a indices stay
      // stable) with deterministically zeroed entries.
      out_.br_tables[t].assign(src_.br_tables[t].size(), interp::BrTarget{});
    }
  }
  out_.regions.reserve(src_.regions.size() + added_regions_.size());
  for (OptRegion r : src_.regions) {
    r.enter_pc = remap(r.enter_pc);
    r.fast_begin = remap(r.fast_begin);
    r.fast_end = remap_end(r.fast_end);
    r.slow_begin = remap(r.slow_begin);
    r.slow_end = remap_end(r.slow_end);
    out_.regions.push_back(r);
  }
  out_.regions.insert(out_.regions.end(), added_regions_.begin(),
                      added_regions_.end());
  std::sort(out_.regions.begin(), out_.regions.end(),
            [](const OptRegion& a, const OptRegion& b) {
              return a.enter_pc < b.enter_pc;
            });
  for (uint32_t i = 0; i < out_.regions.size(); ++i) {
    FlatOp& enter = out_.code[out_.regions[i].enter_pc];
    if (!interp::is_region_enter(enter)) {
      throw Error("opt: region enter_pc does not hold a marker");
    }
    enter.a = i;
  }
  interp::compute_block_costs(out_);
  return std::move(out_);
}

}  // namespace acctee::analysis::opt::detail
