#include "interp/flatten.hpp"

#include "common/error.hpp"

namespace acctee::interp {

namespace {

using wasm::Function;
using wasm::ImmKind;
using wasm::Instr;
using wasm::Module;
using wasm::Op;
using wasm::op_info;

class Flattener {
 public:
  Flattener(const Module& module, const Function& func)
      : module_(module), func_(func) {
    const wasm::FuncType& type = module.types.at(func.type_index);
    out_.type_index = func.type_index;
    out_.num_params = static_cast<uint32_t>(type.params.size());
    out_.local_types = type.params;
    out_.local_types.insert(out_.local_types.end(), func.locals.begin(),
                            func.locals.end());
  }

  FlatFunc run() {
    const wasm::FuncType& type = module_.types.at(func_.type_index);
    uint8_t result_arity = static_cast<uint8_t>(type.results.size());
    labels_.push_back(Label{false, result_arity, 0, pc()});
    flatten_body(func_.body);
    // Implicit return; function-level branches also land here.
    patch(labels_.back(), pc());
    labels_.pop_back();
    emit_synthetic_return(result_arity);
    return std::move(out_);
  }

 private:
  struct Label {
    bool is_loop = false;
    uint8_t arity = 0;    // branch arity (0 for loops)
    uint32_t height = 0;  // operand height at entry
    uint32_t loop_pc = 0; // branch destination for loops
    std::vector<size_t> op_sites;  // FlatOps whose target_pc needs the end pc
    std::vector<std::pair<uint32_t, uint32_t>> table_sites;  // (table, slot)
  };

  const Module& module_;
  const Function& func_;
  FlatFunc out_;
  std::vector<Label> labels_;
  uint32_t height_ = 0;
  bool dead_ = false;

  uint32_t pc() const { return static_cast<uint32_t>(out_.code.size()); }

  void patch(const Label& label, uint32_t end_pc) {
    for (size_t site : label.op_sites) out_.code[site].target_pc = end_pc;
    for (auto [table, slot] : label.table_sites) {
      out_.br_tables[table][slot].pc = end_pc;
    }
  }

  void emit_synthetic_return(uint8_t arity) {
    FlatOp op;
    op.op = Op::Return;
    op.synthetic = true;
    op.arity = arity;
    out_.code.push_back(op);
  }

  Label& label_at(uint32_t depth) {
    if (depth >= labels_.size()) {
      throw ValidationError("flatten: branch depth out of range");
    }
    return labels_[labels_.size() - 1 - depth];
  }

  void apply_sig(std::string_view sig) {
    size_t colon = sig.find(':');
    height_ -= static_cast<uint32_t>(colon);
    height_ += static_cast<uint32_t>(sig.size() - colon - 1);
  }

  void flatten_body(const std::vector<Instr>& body) {
    for (const auto& instr : body) {
      if (dead_) return;  // statically unreachable: never executes
      flatten_instr(instr);
    }
  }

  void flatten_instr(const Instr& instr) {
    const wasm::OpInfo& info = op_info(instr.op);
    switch (instr.op) {
      case Op::Block:
      case Op::Loop: {
        uint8_t arity = instr.block_type.result ? 1 : 0;
        // The instruction itself executes (and is counted by the
        // instrumenter) but needs no runtime work beyond the cycle charge.
        out_.code.push_back(FlatOp{.op = instr.op});
        labels_.push_back(
            Label{instr.op == Op::Loop, arity, height_, pc()});
        flatten_body(instr.body);
        Label label = std::move(labels_.back());
        labels_.pop_back();
        patch(label, pc());
        dead_ = false;
        height_ = label.height + arity;
        return;
      }
      case Op::If: {
        uint8_t arity = instr.block_type.result ? 1 : 0;
        height_ -= 1;  // condition
        size_t if_site = out_.code.size();
        out_.code.push_back(FlatOp{.op = Op::If});
        labels_.push_back(Label{false, arity, height_, 0});
        flatten_body(instr.body);
        if (!instr.else_body.empty()) {
          if (!dead_) {
            // Jump over the else branch from the end of the then branch.
            size_t jump_site = out_.code.size();
            FlatOp jump;
            jump.op = Op::Br;
            jump.synthetic = true;
            jump.arity = arity;
            jump.unwind = labels_.back().height;
            out_.code.push_back(jump);
            labels_.back().op_sites.push_back(jump_site);
          }
          out_.code[if_site].target_pc = pc();  // else branch starts here
          dead_ = false;
          height_ = labels_.back().height;
          flatten_body(instr.else_body);
        } else {
          labels_.back().op_sites.push_back(if_site);
        }
        Label label = std::move(labels_.back());
        labels_.pop_back();
        patch(label, pc());
        dead_ = false;
        height_ = label.height + arity;
        return;
      }
      case Op::Br:
      case Op::BrIf: {
        if (instr.op == Op::BrIf) height_ -= 1;  // condition
        size_t site = out_.code.size();
        FlatOp op;
        op.op = instr.op;
        out_.code.push_back(op);
        Label& label = label_at(instr.index);
        out_.code[site].unwind = label.height;
        out_.code[site].arity = label.is_loop ? 0 : label.arity;
        if (label.is_loop) {
          out_.code[site].target_pc = label.loop_pc;
        } else {
          label.op_sites.push_back(site);
        }
        if (instr.op == Op::Br) dead_ = true;
        return;
      }
      case Op::BrTable: {
        height_ -= 1;  // selector
        uint32_t table_id = static_cast<uint32_t>(out_.br_tables.size());
        FlatOp op;
        op.op = Op::BrTable;
        op.a = table_id;
        out_.code.push_back(op);
        out_.br_tables.emplace_back();
        auto& targets = out_.br_tables.back();
        for (size_t i = 0; i <= instr.br_targets.size(); ++i) {
          uint32_t depth = i < instr.br_targets.size() ? instr.br_targets[i]
                                                       : instr.index;
          Label& label = label_at(depth);
          BrTarget t;
          t.unwind = label.height;
          t.arity = label.is_loop ? 0 : label.arity;
          if (label.is_loop) {
            t.pc = label.loop_pc;
          } else {
            label.table_sites.emplace_back(table_id,
                                           static_cast<uint32_t>(i));
          }
          targets.push_back(t);
        }
        dead_ = true;
        return;
      }
      case Op::Return: {
        FlatOp op;
        op.op = Op::Return;
        op.arity = static_cast<uint8_t>(
            module_.types[func_.type_index].results.size());
        out_.code.push_back(op);
        dead_ = true;
        return;
      }
      case Op::Unreachable: {
        out_.code.push_back(FlatOp{.op = Op::Unreachable});
        dead_ = true;
        return;
      }
      case Op::Call: {
        const wasm::FuncType& ft = module_.func_type(instr.index);
        FlatOp op;
        op.op = Op::Call;
        op.a = instr.index;
        out_.code.push_back(op);
        height_ -= static_cast<uint32_t>(ft.params.size());
        height_ += static_cast<uint32_t>(ft.results.size());
        return;
      }
      case Op::CallIndirect: {
        const wasm::FuncType& ft = module_.types.at(instr.index);
        FlatOp op;
        op.op = Op::CallIndirect;
        op.a = instr.index;
        out_.code.push_back(op);
        height_ -= 1 + static_cast<uint32_t>(ft.params.size());
        height_ += static_cast<uint32_t>(ft.results.size());
        return;
      }
      case Op::Drop:
        out_.code.push_back(FlatOp{.op = Op::Drop});
        height_ -= 1;
        return;
      case Op::Select:
        out_.code.push_back(FlatOp{.op = Op::Select});
        height_ -= 2;
        return;
      case Op::LocalGet:
      case Op::LocalSet:
      case Op::LocalTee:
      case Op::GlobalGet:
      case Op::GlobalSet: {
        FlatOp op;
        op.op = instr.op;
        op.a = instr.index;
        out_.code.push_back(op);
        if (instr.op == Op::LocalGet || instr.op == Op::GlobalGet) {
          height_ += 1;
        } else if (instr.op == Op::LocalSet || instr.op == Op::GlobalSet) {
          height_ -= 1;
        }
        return;
      }
      default: {
        // Uniform ops (numeric, memory, consts, memory.size/grow, nop).
        FlatOp op;
        op.op = instr.op;
        op.a = instr.mem_align;
        op.b = info.imm == ImmKind::Mem ? instr.mem_offset : instr.imm;
        out_.code.push_back(op);
        apply_sig(info.sig);
        return;
      }
    }
  }
};

/// True for ops after which execution cannot simply fall through to the
/// next FlatOp (control transfers) or must not be batched past because they
/// observe the live instruction counter (`memory.grow` folds the
/// memory-size integral). The flattener's synthetic ops (internal
/// jump/halt) are Br/Return and end blocks through the switch; synthetic
/// copies inside optimisation-region fast bodies fall through like their
/// originals. A region-enter marker ends its block — it either charges and
/// falls into the fast body or transfers control to the slow copy.
bool ends_block(const FlatOp& op) {
  if (is_region_enter(op)) return true;
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

}  // namespace

/// Partitions `ff.code` into basic blocks and precomputes each block's
/// accounting summary. Must run after all branch targets are patched.
void compute_block_costs(FlatFunc& ff) {
  const size_t n = ff.code.size();
  ff.blocks.clear();
  ff.block_index.assign(n, 0);
  ff.block_hist.clear();
  if (n == 0) return;

  // Mark block heads: function entry, every branch target, and the op
  // after every block-ending op.
  std::vector<bool> head(n, false);
  head[0] = true;
  for (size_t i = 0; i < n; ++i) {
    const FlatOp& op = ff.code[i];
    if (op.op == Op::If || op.op == Op::Br || op.op == Op::BrIf ||
        is_region_enter(op)) {
      if (op.target_pc < n) head[op.target_pc] = true;
    }
    if (ends_block(op) && i + 1 < n) head[i + 1] = true;
  }
  for (const auto& table : ff.br_tables) {
    for (const BrTarget& t : table) {
      if (t.pc < n) head[t.pc] = true;
    }
  }

  size_t start = 0;
  while (start < n) {
    size_t end = start + 1;
    while (end < n && !head[end]) ++end;
    BlockCost blk;
    blk.end_pc = static_cast<uint32_t>(end);
    blk.hist_begin = static_cast<uint32_t>(ff.block_hist.size());
    for (size_t i = start; i < end; ++i) {
      const FlatOp& op = ff.code[i];
      ff.block_index[i] = static_cast<uint32_t>(ff.blocks.size());
      if (op.synthetic) continue;
      ++blk.instructions;
      blk.cycles += op_info(op.op).base_cost;
      bool found = false;
      for (size_t h = blk.hist_begin; h < ff.block_hist.size(); ++h) {
        if (ff.block_hist[h].op == op.op) {
          ++ff.block_hist[h].count;
          found = true;
          break;
        }
      }
      if (!found) ff.block_hist.push_back(BlockOpCount{op.op, 1});
    }
    blk.hist_end = static_cast<uint32_t>(ff.block_hist.size());
    ff.blocks.push_back(blk);
    start = end;
  }
}

FlatFunc flatten(const wasm::Module& module, const wasm::Function& func) {
  Flattener flattener(module, func);
  FlatFunc ff = flattener.run();
  compute_block_costs(ff);
  return ff;
}

std::vector<FlatFunc> flatten_module(const wasm::Module& module) {
  std::vector<FlatFunc> flat;
  flat.reserve(module.functions.size());
  for (const wasm::Function& func : module.functions) {
    flat.push_back(flatten(module, func));
  }
  return flat;
}

std::vector<uint32_t> operand_heights(const wasm::Module& module,
                                      const FlatFunc& ff) {
  const uint32_t n = static_cast<uint32_t>(ff.code.size());
  std::vector<uint32_t> height(n, kUnknownHeight);
  if (n == 0) return height;
  std::vector<uint32_t> work;
  auto set = [&](uint32_t pc, uint32_t h) {
    if (pc >= n) return;
    if (height[pc] == kUnknownHeight) {
      height[pc] = h;
      work.push_back(pc);
    } else if (height[pc] != h) {
      throw Error("flat code: inconsistent operand height");
    }
  };
  // Falls through to pc + 1 after popping `pops` and pushing `pushes`.
  auto step = [&](uint32_t pc, uint32_t h, size_t pops, size_t pushes) {
    if (h < pops) throw Error("flat code: pop below the operand base");
    set(pc + 1, h - static_cast<uint32_t>(pops) +
                    static_cast<uint32_t>(pushes));
  };
  set(0, 0);
  while (!work.empty()) {
    const uint32_t pc = work.back();
    work.pop_back();
    const FlatOp& op = ff.code[pc];
    const uint32_t h = height[pc];
    if (is_region_enter(op)) {
      set(pc + 1, h);
      set(op.target_pc, h);
      continue;
    }
    switch (op.op) {
      case Op::If:
        step(pc, h, 1, 0);
        set(op.target_pc, h - 1);
        break;
      case Op::Br:
        set(op.target_pc, op.unwind + op.arity);
        break;
      case Op::BrIf:
        step(pc, h, 1, 0);
        set(op.target_pc, op.unwind + op.arity);
        break;
      case Op::BrTable:
        for (const BrTarget& t : ff.br_tables[op.a]) {
          set(t.pc, t.unwind + t.arity);
        }
        break;
      case Op::Return:
      case Op::Unreachable:
        break;
      case Op::Call: {
        const wasm::FuncType& ft = module.func_type(op.a);
        step(pc, h, ft.params.size(), ft.results.size());
        break;
      }
      case Op::CallIndirect: {
        const wasm::FuncType& ft = module.types.at(op.a);
        step(pc, h, 1 + ft.params.size(), ft.results.size());
        break;
      }
      case Op::Drop:
        step(pc, h, 1, 0);
        break;
      case Op::Select:
        step(pc, h, 3, 1);
        break;
      case Op::LocalGet:
      case Op::GlobalGet:
        step(pc, h, 0, 1);
        break;
      case Op::LocalSet:
      case Op::GlobalSet:
        step(pc, h, 1, 0);
        break;
      case Op::LocalTee:
      case Op::Block:  // structural markers retained by flatten; no effect
      case Op::Loop:
        step(pc, h, 0, 0);
        break;
      default: {
        const wasm::OpInfo& info = op_info(op.op);
        const size_t colon = info.sig.find(':');
        if (colon == std::string_view::npos) {
          throw Error("flat code: op without stack signature");
        }
        step(pc, h, colon, info.sig.size() - colon - 1);
        break;
      }
    }
  }
  return height;
}

uint32_t max_operand_height(const wasm::Module& module, const FlatFunc& ff) {
  uint32_t max = 0;
  for (uint32_t h : operand_heights(module, ff)) {
    if (h != kUnknownHeight && h > max) max = h;
  }
  return max;
}

}  // namespace acctee::interp
