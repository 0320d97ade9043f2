// The prepare-once half of module execution (paper §3.3: instrumentation —
// and by extension all per-module preparation — happens once and is reused
// across many invocations).
//
// A CompiledModule is the immutable artifact of the parse → validate →
// flatten → lower pipeline: the structured AST plus every defined function
// in its flat form (what accounting and the §14 proof read) and its lowered
// bytecode (what the interpreter executes). It is produced once per module
// (per deployment, not per request) and shared between any number of
// concurrently running Instances via std::shared_ptr<const CompiledModule>.
// Instances borrow it read-only and own only their mutable state (operand
// stack, linear memory, globals, table, counters, cache simulator), which is
// what makes per-request instantiation cheap enough for FaaS request rates.
#pragma once

#include <memory>
#include <vector>

#include "interp/flatten.hpp"
#include "interp/lower.hpp"
#include "wasm/ast.hpp"

namespace acctee::interp {

class CompiledModule {
 public:
  struct CompileOptions {
    /// Run the validator before flattening. The public compile() entry point
    /// defaults to true; the legacy Instance by-value constructor compiles
    /// with false to preserve its historical "caller validates" contract.
    bool validate = true;
    /// Lowering stage (flatten → bytecode, DESIGN.md §15). The lowering
    /// digest is part of the AE's verify-then-bind check.
    LowerOptions lower;
  };

  /// Flattens and lowers (and by default validates) `module`. Throws
  /// ValidationError if validation is requested and fails. Prefer the free
  /// compile() helpers.
  CompiledModule(wasm::Module module, CompileOptions options);

  /// Builds the artifact from a flat form the caller already derived: the
  /// optimisation pipeline's output (analysis/opt, DESIGN.md §19), which at
  /// opt_level 0 is the baseline flattening itself. Only lowering runs
  /// here, over exactly `flat`. The module is the one that was flattened
  /// (optimisation happens strictly after decode+validate), so `validated`
  /// carries the caller's verdict for it and `options.validate` is unused.
  CompiledModule(wasm::Module module, std::vector<FlatFunc> flat,
                 CompileOptions options, bool validated);

  /// The same, keeping the baseline flattening `optimised_flat` was
  /// derived from beside it (baseline_flat()).
  CompiledModule(wasm::Module module, std::vector<FlatFunc> optimised_flat,
                 std::vector<FlatFunc> baseline_flat, CompileOptions options,
                 bool validated);

  CompiledModule(const CompiledModule&) = delete;
  CompiledModule& operator=(const CompiledModule&) = delete;

  const wasm::Module& module() const { return module_; }
  const std::vector<FlatFunc>& flat() const { return flat_; }
  const FlatFunc& flat_func(uint32_t defined_index) const {
    return flat_[defined_index];
  }
  /// Validation verdict: true iff the validator ran (and passed) on this
  /// exact module before flattening.
  bool validated() const { return validated_; }

  /// Lowered (bytecode) function bodies, parallel to flat().
  const std::vector<BcFunc>& lowered() const { return lowered_; }
  const BcFunc& lowered_func(uint32_t defined_index) const {
    return lowered_[defined_index];
  }
  /// True iff this artifact was built from a caller-supplied flat form
  /// (the optimisation pipeline's output) rather than flattened here.
  bool optimised() const { return optimised_; }
  /// The baseline passed to the constructor that takes one; empty
  /// otherwise (the AE keeps only the flat form that executes).
  const std::vector<FlatFunc>& baseline_flat() const { return baseline_flat_; }

  /// The options the lowering ran with (needed to re-derive it).
  const LowerOptions& lower_options() const { return lower_options_; }
  /// Canonical digest binding the lowered form to the flattened form
  /// (interp::lowering_digest).
  const crypto::Digest& lowering_digest() const { return lowering_digest_; }

 private:
  void lower(const LowerOptions& options);

  wasm::Module module_;
  std::vector<FlatFunc> flat_;
  std::vector<FlatFunc> baseline_flat_;
  std::vector<BcFunc> lowered_;
  LowerOptions lower_options_;
  crypto::Digest lowering_digest_{};
  bool validated_ = false;
  bool optimised_ = false;
};

/// Shared ownership handle; every borrower holds one, so the artifact lives
/// exactly as long as the last Instance (or cache entry) using it.
using CompiledModulePtr = std::shared_ptr<const CompiledModule>;

/// Entry point of the shared pipeline: validate + flatten once, share many.
CompiledModulePtr compile(wasm::Module module,
                          CompiledModule::CompileOptions options = {});

}  // namespace acctee::interp
