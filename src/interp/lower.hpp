// Lowering — stage three of the pipeline (DESIGN.md §15): translates the
// verified flattened form into the internal bytecode (interp/bytecode.hpp).
//
// Lowering is deterministic: the same FlatFunc and LowerOptions always
// produce the same BcFunc, byte for byte. That determinism is what makes
// the verify-then-bind argument work — the accounting enclave re-derives
// the canonical lowering from the flattened code it statically verified and
// checks the executing artifact (via lowering_digest) against it, so a
// tampered bytecode stream can never be billed as the verified program.
#pragma once

#include <vector>

#include "crypto/sha256.hpp"
#include "interp/bytecode.hpp"
#include "interp/flatten.hpp"

namespace acctee::interp {

struct LowerOptions {
  /// Fuse superinstructions (bytecode.def). Off: 1:1 lowering plus
  /// EnterBlock only — the ablation baseline for the fusion win, and with
  /// Instance::Options::per_instruction_accounting the oracle mode.
  bool fuse = true;

  friend bool operator==(const LowerOptions&, const LowerOptions&) = default;
};

/// Lowers one flattened function of `module`. Every basic block becomes an
/// EnterBlock instruction (carrying the block's batched accounting charge
/// inline) followed by the block's ops, greedily fused per bytecode.def
/// when `options.fuse` is set. Branch targets and br_tables are remapped to
/// bytecode pcs (branches land on the target block's EnterBlock). The
/// module supplies the call signatures the frame reservation
/// (BcFunc::max_height) is computed from.
BcFunc lower_function(const wasm::Module& module, const FlatFunc& flat,
                      const LowerOptions& options);

/// Lowers every defined function of a module (`flat` parallel to
/// module.functions, possibly §19-transformed).
std::vector<BcFunc> lower_module(const wasm::Module& module,
                                 const std::vector<FlatFunc>& flat,
                                 const LowerOptions& options);

/// Canonical digest binding a lowered module to the flattened form it was
/// derived from (domain-separated SHA-256 over a deterministic
/// serialization of both representations and the lowering options).
/// Recorded by CompiledModule and checked in the AE's verify_counters path.
/// BcFunc::max_height is not serialized: it is a function of the flat
/// code and the module's signatures, and check_lowering binds it by
/// comparing against its own re-lowering.
crypto::Digest lowering_digest(const std::vector<FlatFunc>& flat,
                               const std::vector<BcFunc>& lowered,
                               const LowerOptions& options);

/// The canonical serialization of the flat-form pieces lowering_digest
/// shares with analysis::opt::flat_digest: a length-prefixed op array, a
/// function's br_tables, and its regions followed by their histogram.
void digest_flat_code(crypto::Sha256Writer& w,
                      const std::vector<FlatOp>& code);
void digest_br_tables(crypto::Sha256Writer& w,
                      const std::vector<std::vector<BrTarget>>& tables);
void digest_regions(crypto::Sha256Writer& w, const FlatFunc& ff);

}  // namespace acctee::interp
