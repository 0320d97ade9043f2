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

/// Lowers one flattened function. Every basic block becomes an EnterBlock
/// instruction (carrying the block's batched accounting charge inline)
/// followed by the block's ops, greedily fused per bytecode.def when
/// `options.fuse` is set. Branch targets and br_tables are remapped to
/// bytecode pcs (branches land on the target block's EnterBlock).
BcFunc lower_function(const FlatFunc& flat, const LowerOptions& options);

/// Lowers every defined function of a module.
std::vector<BcFunc> lower_module(const std::vector<FlatFunc>& flat,
                                 const LowerOptions& options);

/// Canonical digest binding a lowered module to the flattened form it was
/// derived from (domain-separated SHA-256 over a deterministic
/// serialization of both representations and the lowering options).
/// Recorded by CompiledModule and checked in the AE's verify_counters path.
crypto::Digest lowering_digest(const std::vector<FlatFunc>& flat,
                               const std::vector<BcFunc>& lowered,
                               const LowerOptions& options);

}  // namespace acctee::interp
