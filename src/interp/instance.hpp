// A Wasm module instance: the execution half of AccTEE's two-way sandbox.
//
// Instantiation validates nothing by itself — callers must run the validator
// first (the accounting enclave in src/core always does). Execution runs the
// lowered bytecode (interp/bytecode.hpp) with computed-goto dispatch, with:
//   * full MVP numeric/trap semantics,
//   * bounds-checked linear memory (SFI),
//   * a deterministic simulated-cycle cost model (interp/cost.hpp) with a
//     cache hierarchy behind loads/stores and optional SGX EPC/MEE costs,
//   * complete execution statistics (the ground truth that AccTEE's
//     instrumented counters are tested against).
#pragma once

#include <cassert>
#include <memory>
#include <optional>

#include "cachesim/cache.hpp"
#include "interp/compiled_module.hpp"
#include "interp/cost.hpp"
#include "interp/flatten.hpp"
#include "interp/host.hpp"
#include "interp/memory.hpp"
#include "interp/value.hpp"
#include "wasm/ast.hpp"

namespace acctee::obs {
class FuncProfiler;
}  // namespace acctee::obs

namespace acctee::interp {

class ShadowMeter;

/// Vestigial: the interpreter has one execution technique (lowered
/// bytecode, computed-goto dispatch), so Auto is the only value and nothing
/// reads it. Kept so existing callers that copy a dispatch setting compile.
enum class DispatchMode : uint8_t {
  Auto,
};

class Instance {
 public:
  struct Options {
    Platform platform = Platform::Wasm;
    /// Cost parameters; defaults are derived from `platform`.
    std::optional<CostConfig> cost;
    /// Simulate the cache hierarchy behind loads/stores. Disabling makes
    /// memory accesses cost only their base cycles (used by unit tests that
    /// assert exact cycle counts).
    bool cache_model = true;
    cachesim::Hierarchy::Config cache_config;
    /// Abort execution after this many instructions (resource limiting —
    /// the sandbox must be able to stop runaway workloads).
    uint64_t max_instructions = UINT64_MAX;
    /// Maximum call depth.
    uint32_t max_call_depth = 10000;
    /// Vestigial (see DispatchMode); nothing reads it.
    DispatchMode dispatch = DispatchMode::Auto;
    /// Charge accounting one instruction at a time instead of one basic
    /// block at a time. Slower; with LowerOptions::fuse off it is the oracle
    /// mode the batched charge is tested against (and a debugging aid).
    bool per_instruction_accounting = false;
    /// Optional per-function attribution sink (obs/profile.hpp). Non-null
    /// selects the *profiled* run-loop instantiation, which calls
    /// profiler->on_block() on every basic-block entry; null (the default)
    /// runs the unprofiled instantiation — the hot loop pays zero extra
    /// work, not even a branch. Profiling never alters ExecStats.
    obs::FuncProfiler* profiler = nullptr;
  };

  /// Attaches (or, with nullptr, detaches) an untrusted shadow resource
  /// meter. The meter is an observer: hooks in the host-call, memory-access
  /// and memory-growth paths report to it, and it never writes ExecStats,
  /// the counter global, checkpoints or any other billed state. Attaching
  /// seeds the meter's grow baseline with the current memory size so the
  /// instance's initial pages are not counted as churn. reset() detaches.
  void set_shadow_meter(ShadowMeter* meter);

  /// Checkpoint hook: called from inside the execution loop every
  /// `interval` executed instructions (paper §3.3 — the accounting enclave
  /// emits periodic resource logs during long executions). The handler may
  /// read stats() and exported globals but must not re-enter invoke().
  using CheckpointHandler = std::function<void(Instance&)>;
  void set_checkpoint(uint64_t interval, CheckpointHandler handler);

  /// Instantiates a shared compiled module: allocates memory/table/globals,
  /// applies data/elem segments, links imports, and runs the start function.
  /// The compiled artifact is borrowed read-only — any number of instances
  /// (including on other threads) may share one CompiledModulePtr. Throws
  /// LinkError on unresolved imports, TrapError if the start traps.
  Instance(CompiledModulePtr compiled, ImportMap imports, Options options);
  Instance(CompiledModulePtr compiled, ImportMap imports = {})
      : Instance(std::move(compiled), std::move(imports), Options{}) {}

  /// Legacy by-value path: compiles privately (without validating — callers
  /// of this constructor historically validate first) and instantiates. Each
  /// call re-flattens the module; prefer compile() + the shared constructor
  /// when the same module is instantiated more than once.
  Instance(wasm::Module module, ImportMap imports, Options options);
  Instance(wasm::Module module, ImportMap imports = {})
      : Instance(std::move(module), std::move(imports), Options{}) {}

  /// Restores the instance to its exact post-construction state so it can
  /// be reused for another request instead of being re-instantiated (the
  /// sharded gateway's per-worker freelists, DESIGN.md §16): linear memory
  /// back to its initial pages with data segments re-applied, globals and
  /// table re-initialised, operand-stack height and frames back to zero
  /// (the stack buffer and frame vector keep their capacity — that is the
  /// speedup; stale slots are never read, because enter_frame zeroes each
  /// frame's locals and operands are written before they are read),
  /// simulated caches cold, ExecStats zeroed, and any checkpoint handler
  /// detached; the start function, if present, re-runs just as
  /// construction ran it. A reset instance produces bit-identical
  /// ExecStats, checkpoints and signed logs to a freshly constructed one
  /// (tested in tests/interp_test.cpp and tests/faas_test.cpp). Imports
  /// stay bound — the host channel object must be reset by the caller for
  /// the next request.
  void reset();

  /// Calls an exported function. Throws LinkError on unknown export or
  /// argument mismatch, TrapError if execution traps.
  Values invoke(std::string_view export_name, const Values& args = {});

  /// Calls a function by index-space index.
  Values invoke_index(uint32_t func_index, const Values& args);

  /// Reads an exported global (e.g. AccTEE's "__acctee_counter").
  TypedValue read_global(std::string_view export_name) const;
  TypedValue read_global_index(uint32_t global_index) const;

  LinearMemory* memory() { return memory_ ? memory_.get() : nullptr; }
  const ExecStats& stats() const { return stats_; }
  ExecStats& stats() { return stats_; }
  const wasm::Module& module() const { return compiled_->module(); }
  /// The shared immutable artifact this instance executes.
  const CompiledModulePtr& compiled() const { return compiled_; }

  /// Flushes simulated caches (between benchmark configurations).
  void flush_cache() { cache_.flush(); }

 private:
  struct Frame {
    uint32_t func = 0;          // defined-function index
    // Bytecode pc. The run loop keeps the live pc in a local and stores it
    // here only at a call (the return address) and when a trap leaves the
    // loop (the trapping instruction, for uncharge_block_suffix).
    uint32_t pc = 0;
    uint32_t locals_base = 0;   // index into stack_
    uint32_t operand_base = 0;  // index into stack_: first operand slot
  };

  void run(size_t stop_depth);
  // The two instantiations of interp/run_loop.inc: the unprofiled loop
  // carries no profiling code at all.
  void run_loop(size_t stop_depth);
  void run_loop_profiled(size_t stop_depth);
  // Pushes a frame for a defined function whose arguments are the top
  // num_params slots: zeroes its other locals and makes sure the buffer
  // holds the frame's reservation (locals + BcFunc::max_height operands),
  // growing it geometrically. May reallocate stack_ and frames_.
  void enter_frame(uint32_t defined_index);
  void grow_stack(size_t slots);
  void call_host(uint32_t import_index);
  void charge_memory(uint64_t effective_addr, uint32_t size, bool is_write);
  void note_memory_growth();
  void account_instruction(const FlatOp& op);
  // Per-instruction accounting for serial-mode blocks (checkpoint or
  // instruction-limit crossings, or per_instruction_accounting).
  void serial_account(const FlatOp& op) {
    if (op.synthetic) return;
    account_instruction(op);
    if (stats_.instructions > options_.max_instructions) {
      throw TrapError("instruction limit exceeded");
    }
  }
  // Trap un-charge: removes the pre-charged, never-executed suffix of the
  // current block so a mid-block trap observes exactly the serial stats.
  // The first never-executed flat pc is the current bytecode instruction's
  // flat_end (fusions only trap in their last constituent — the
  // non-trapping-constituents rule in bytecode.def).
  void uncharge_block_suffix() noexcept;

  // -- operand stack, member path --
  // For invoke_index's arguments and results and call_host's; the run loop
  // pushes and pops through its own local stack pointer and writes it back
  // to sp_ before a call and on return. Capacity is the caller's job
  // (a frame reservation, or invoke_index's reserve for its arguments).
  void push_raw(uint64_t v) {
    assert(sp_ < stack_.size());
    stack_[sp_++] = v;
  }
  uint64_t pop_raw() { return stack_[--sp_]; }

  // -- immutable, shared across instances --
  const wasm::Module& mod() const { return compiled_->module(); }
  const std::vector<FlatFunc>& flat() const { return compiled_->flat(); }
  const std::vector<BcFunc>& lowered() const { return compiled_->lowered(); }

  CompiledModulePtr compiled_;
  ImportMap imports_;
  Options options_;
  CostConfig cost_;
  // -- mutable per-instance state --
  std::unique_ptr<LinearMemory> memory_;
  std::vector<uint64_t> globals_;
  std::vector<int64_t> table_;  // function indices; -1 = null entry
  // Locals and operands of every frame. size() is the capacity: the buffer
  // grows only when a frame is entered (or invoke_index pushes arguments),
  // never on a push. sp_ is the height, one past the top slot.
  std::vector<uint64_t> stack_;
  size_t sp_ = 0;
  std::vector<Frame> frames_;
  cachesim::Hierarchy cache_;
  ExecStats stats_;
  // True while run() executes a block whose accounting was charged on
  // entry; charged_end_pc_ is that block's end. Consulted only on the trap
  // path (uncharge_block_suffix).
  bool block_charged_ = false;
  uint32_t charged_end_pc_ = 0;
  double epc_fault_accum_ = 0;  // deterministic fractional paging model
  uint64_t integral_mark_ = 0;  // instruction count at last memory resize
  uint64_t checkpoint_interval_ = 0;
  uint64_t next_checkpoint_ = UINT64_MAX;
  CheckpointHandler checkpoint_;
  // Untrusted observer (never billed state); null = no metering.
  ShadowMeter* meter_ = nullptr;
};

}  // namespace acctee::interp
