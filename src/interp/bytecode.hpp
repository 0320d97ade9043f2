// The internal bytecode — stage three of the compilation pipeline
// (parse → validate → flatten → lower, DESIGN.md §15).
//
// Lowering (interp/lower.hpp) translates each FlatFunc into a BcFunc: a
// compact instruction stream with branch targets pre-resolved to bytecode
// pcs, every immediate inlined, an explicit EnterBlock instruction at each
// basic-block head carrying the block's batched accounting charge, and
// superinstructions (bytecode.def) fusing common multi-op sequences into a
// single dispatch. The flattened form stays authoritative: it is what the
// static verifier proves things about, what serial-mode accounting and the
// trap un-charge path replay, and what the lowering digest binds the
// bytecode back to.
#pragma once

#include <cstdint>
#include <vector>

#include "interp/flatten.hpp"
#include "wasm/opcode.hpp"

namespace acctee::interp {

/// Bytecode opcode space: the wasm base opcodes first (same enumerator
/// names and order as wasm::Op, so unfused ops lower by a straight cast and
/// keep their wasm::Op handler bodies in run_loop.inc), then the
/// superinstructions from bytecode.def.
enum class BcOp : uint16_t {
#define ACCTEE_OP(name, text, binary, imm, sig, cost) name,
#include "wasm/opcodes.def"
#undef ACCTEE_OP
#define ACCTEE_BC_ANY(name) name,
#include "interp/bytecode.def"
#undef ACCTEE_BC_ANY
};

/// Total number of bytecode opcodes (dispatch table size).
inline constexpr size_t kNumBcOps = []() {
  size_t n = 0;
#define ACCTEE_OP(name, text, binary, imm, sig, cost) ++n;
#include "wasm/opcodes.def"
#undef ACCTEE_OP
#define ACCTEE_BC_ANY(name) ++n;
#include "interp/bytecode.def"
#undef ACCTEE_BC_ANY
  return n;
}();

/// First superinstruction opcode; everything below is a base wasm op.
inline constexpr BcOp kFirstSuperOp = BcOp::EnterBlock;

/// Enumerator name (for diagnostics and test failure messages).
const char* to_string(BcOp op);

/// One bytecode instruction. Fixed 40-byte layout; the `a`, `b`,
/// `target_pc`, `unwind` and `arity` fields deliberately mirror FlatOp so
/// the shared run-loop handlers compile against either representation.
///
/// Field use by op kind (beyond the FlatOp conventions):
///  * EnterBlock:   `a` = block instructions, `b` = block cycles,
///                  `c`/`unwind` = [hist_begin, hist_end) into the flat
///                  function's block_hist, `target_pc` = flat end of block
///                  (for the trap un-charge bookkeeping; not a branch)
///  * cmp+br_if:    `target_pc`/`unwind`/`arity` from the br_if
///  * [get][get][cmp][br_if]: `a`/`c` = the two local indices, + branch
///  * [get][binop]: `a` = local index (right-hand operand)
///  * [const][binop]: `b` = const bits (right-hand operand)
///  * [get][get][op][set]: `a`/`c` = source locals, `unwind` = dest local
///  * [get][const][op][set]: `a` = source local, `b` = const bits,
///                  `unwind` = dest local
///  * GlobalAddConstI64: `a` = global index, `b` = addend
///
/// `flat_pc`/`flat_end` delimit the flattened constituents [flat_pc,
/// flat_end) of the instruction: serial-mode accounting replays them
/// through serial_account, and the trap un-charge path uses `flat_end` to
/// resume the flat pc walk. EnterBlock carries an empty range.
struct BcInstr {
  BcOp op = BcOp::Nop;
  uint8_t arity = 0;
  uint8_t pad = 0;
  uint32_t a = 0;
  uint32_t c = 0;
  uint32_t target_pc = 0;
  uint32_t unwind = 0;
  uint32_t flat_pc = 0;
  uint32_t flat_end = 0;
  uint64_t b = 0;

  friend bool operator==(const BcInstr&, const BcInstr&) = default;
};

static_assert(sizeof(BcInstr) == 40, "BcInstr layout drifted");

/// One lowered function body.
struct BcFunc {
  std::vector<BcInstr> code;  // starts with the entry block's EnterBlock
  // br_table targets with pcs remapped to bytecode pcs.
  std::vector<std::vector<BrTarget>> br_tables;
  // The frame's operand reservation: the exact maximum operand height
  // (interp::max_operand_height over the flat code this was lowered from,
  // after any §19 transform). Instance::enter_frame reserves this many
  // slots above the locals, so the run loop's pushes never check capacity.
  uint32_t max_height = 0;

  friend bool operator==(const BcFunc&, const BcFunc&) = default;
};

/// True for opcodes whose `target_pc`/`unwind`/`arity` encode a pre-resolved
/// branch (base If/Br/BrIf plus every fused compare+branch superop).
bool bc_has_branch_target(BcOp op);

/// True for superinstruction opcodes (EnterBlock and every fusion).
inline bool bc_is_super(BcOp op) {
  return static_cast<uint16_t>(op) >= static_cast<uint16_t>(kFirstSuperOp);
}

}  // namespace acctee::interp
