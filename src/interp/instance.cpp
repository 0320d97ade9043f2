#include "interp/instance.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "interp/shadow_meter.hpp"
#include "obs/profile.hpp"

// run_loop.inc dispatches by computed goto (GNU labels as values).
#if !defined(__GNUC__)
#error "the interpreter's run loop needs GCC or Clang (computed goto)"
#endif

namespace acctee::interp {

namespace {

using wasm::Op;

float as_f32(uint64_t bits) {
  return std::bit_cast<float>(static_cast<uint32_t>(bits));
}
double as_f64(uint64_t bits) { return std::bit_cast<double>(bits); }
uint64_t from_f32(float v) { return std::bit_cast<uint32_t>(v); }
uint64_t from_f64(double v) { return std::bit_cast<uint64_t>(v); }

template <typename F>
F wasm_min(F a, F b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<F>::quiet_NaN();
  }
  if (a == b) return std::signbit(a) ? a : b;  // min(-0, +0) = -0
  return a < b ? a : b;
}

template <typename F>
F wasm_max(F a, F b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<F>::quiet_NaN();
  }
  if (a == b) return std::signbit(a) ? b : a;  // max(-0, +0) = +0
  return a > b ? a : b;
}

int32_t trunc_i32_s(double x) {
  if (std::isnan(x)) throw TrapError("invalid conversion to integer");
  double t = std::trunc(x);
  if (t < -2147483648.0 || t > 2147483647.0) {
    throw TrapError("integer overflow in trunc");
  }
  return static_cast<int32_t>(t);
}

uint32_t trunc_i32_u(double x) {
  if (std::isnan(x)) throw TrapError("invalid conversion to integer");
  double t = std::trunc(x);
  if (t < 0.0 || t > 4294967295.0) throw TrapError("integer overflow in trunc");
  return static_cast<uint32_t>(t);
}

int64_t trunc_i64_s(double x) {
  if (std::isnan(x)) throw TrapError("invalid conversion to integer");
  double t = std::trunc(x);
  if (t < -9223372036854775808.0 || t >= 9223372036854775808.0) {
    throw TrapError("integer overflow in trunc");
  }
  return static_cast<int64_t>(t);
}

uint64_t trunc_i64_u(double x) {
  if (std::isnan(x)) throw TrapError("invalid conversion to integer");
  double t = std::trunc(x);
  if (t < 0.0 || t >= 18446744073709551616.0) {
    throw TrapError("integer overflow in trunc");
  }
  return static_cast<uint64_t>(t);
}

}  // namespace

Instance::Instance(wasm::Module module, ImportMap imports, Options options)
    : Instance(compile(std::move(module),
                       CompiledModule::CompileOptions{.validate = false}),
               std::move(imports), options) {}

Instance::Instance(CompiledModulePtr compiled, ImportMap imports,
                   Options options)
    : compiled_(std::move(compiled)),
      imports_(std::move(imports)),
      options_(options),
      cost_(options.cost.value_or(CostConfig::for_platform(options.platform))),
      cache_(options.cache_config) {
  // Link imports.
  for (const auto& imp : mod().imports) {
    const HostEntry* entry = imports_.find(imp.module, imp.name);
    if (entry == nullptr) {
      throw LinkError("unresolved import " + imp.module + "." + imp.name);
    }
    if (!(entry->type == mod().types.at(imp.type_index))) {
      throw LinkError("import type mismatch for " + imp.module + "." +
                      imp.name + ": module wants " +
                      mod().types[imp.type_index].to_string() +
                      ", host provides " + entry->type.to_string());
    }
  }

  // Memory + data segments.
  if (mod().memory) {
    memory_ = std::make_unique<LinearMemory>(mod().memory->min,
                                             mod().memory->max);
    for (const auto& seg : mod().data) {
      memory_->write_bytes(seg.offset, seg.bytes);
    }
    stats_.peak_memory_bytes = memory_->size_bytes();
  } else if (!mod().data.empty()) {
    throw LinkError("data segment without memory");
  }

  // Table + element segments.
  if (mod().table) {
    table_.assign(mod().table->min, -1);
    for (const auto& seg : mod().elems) {
      if (seg.offset + seg.func_indices.size() > table_.size()) {
        throw LinkError("elem segment out of table bounds");
      }
      for (size_t i = 0; i < seg.func_indices.size(); ++i) {
        table_[seg.offset + i] = seg.func_indices[i];
      }
    }
  }

  // Globals.
  globals_.reserve(mod().globals.size());
  for (const auto& g : mod().globals) globals_.push_back(g.init.imm);

  if (mod().start) {
    invoke_index(*mod().start, {});
  }
}

void Instance::reset() {
  // Mirror of the constructor's instantiation steps, reusing the existing
  // allocations (memory backing store, stack buffer and frame capacity,
  // cache arrays).
  // Import links are unchanged: the map and the module both outlive resets.
  if (memory_ != nullptr) {
    memory_->reset();
    for (const auto& seg : mod().data) {
      memory_->write_bytes(seg.offset, seg.bytes);
    }
  }
  if (mod().table) {
    table_.assign(mod().table->min, -1);
    for (const auto& seg : mod().elems) {
      for (size_t i = 0; i < seg.func_indices.size(); ++i) {
        table_[seg.offset + i] = seg.func_indices[i];
      }
    }
  }
  globals_.clear();
  for (const auto& g : mod().globals) globals_.push_back(g.init.imm);
  sp_ = 0;
  frames_.clear();
  cache_.reset();
  stats_ = ExecStats{};
  if (memory_ != nullptr) stats_.peak_memory_bytes = memory_->size_bytes();
  block_charged_ = false;
  charged_end_pc_ = 0;
  epc_fault_accum_ = 0;
  integral_mark_ = 0;
  checkpoint_interval_ = 0;
  next_checkpoint_ = UINT64_MAX;
  checkpoint_ = nullptr;
  meter_ = nullptr;
  if (mod().start) {
    invoke_index(*mod().start, {});
  }
}

void Instance::set_shadow_meter(ShadowMeter* meter) {
  meter_ = meter;
  if (meter_ != nullptr && memory_ != nullptr) {
    meter_->on_memory_size(memory_->size_bytes());
  }
}

Values Instance::invoke(std::string_view export_name, const Values& args) {
  auto index = mod().find_export(export_name, wasm::ExternKind::Func);
  if (!index) {
    throw LinkError("no exported function named '" + std::string(export_name) +
                    "'");
  }
  return invoke_index(*index, args);
}

Values Instance::invoke_index(uint32_t func_index, const Values& args) {
  const wasm::FuncType& type = mod().func_type(func_index);
  if (args.size() != type.params.size()) {
    throw LinkError("argument count mismatch");
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].type != type.params[i]) {
      throw LinkError("argument type mismatch at position " +
                      std::to_string(i));
    }
  }
  if (mod().is_import(func_index)) {
    throw LinkError("cannot invoke an imported function directly");
  }

  const size_t stack_mark = sp_;
  const size_t frame_mark = frames_.size();
  if (sp_ + args.size() > stack_.size()) grow_stack(sp_ + args.size());
  for (const auto& a : args) push_raw(a.bits);
  try {
    enter_frame(func_index - static_cast<uint32_t>(mod().imports.size()));
    run(frames_.size());
  } catch (...) {
    // run() has already un-charged the never-executed suffix (which reads
    // frames_.back(), whose pc the run loop wrote back), so the instruction
    // count is final: fold the tail of the memory-size integral, as a
    // return does. Then unwind the frames and the operand-stack height the
    // trapped call left (the loop does not write its stack pointer back on
    // a trap), so the instance stays usable.
    note_memory_growth();
    frames_.resize(frame_mark);
    sp_ = stack_mark;
    throw;
  }

  Values results(type.results.size());
  for (size_t i = type.results.size(); i-- > 0;) {
    results[i] = TypedValue{type.results[i], pop_raw()};
  }
  // Fold the tail of the memory-size integral.
  note_memory_growth();
  return results;
}

TypedValue Instance::read_global(std::string_view export_name) const {
  auto index = mod().find_export(export_name, wasm::ExternKind::Global);
  if (!index) {
    throw LinkError("no exported global named '" + std::string(export_name) +
                    "'");
  }
  return read_global_index(*index);
}

TypedValue Instance::read_global_index(uint32_t global_index) const {
  if (global_index >= globals_.size()) {
    throw LinkError("global index out of range");
  }
  return TypedValue{mod().globals[global_index].type,
                    globals_[global_index]};
}

void Instance::enter_frame(uint32_t defined_index) {
  if (frames_.size() >= options_.max_call_depth) {
    throw TrapError("call stack exhausted");
  }
  const FlatFunc& ff = flat()[defined_index];
  const size_t locals = ff.local_types.size() - ff.num_params;
  // The frame reservation: its non-parameter locals plus the exact maximum
  // operand height, so no push inside the frame needs a capacity check.
  const size_t needed = sp_ + locals + lowered()[defined_index].max_height;
  if (needed > stack_.size()) grow_stack(needed);
  Frame frame;
  frame.func = defined_index;
  frame.pc = 0;
  frame.locals_base = static_cast<uint32_t>(sp_ - ff.num_params);
  // Zero-initialise non-parameter locals.
  std::fill_n(stack_.begin() + static_cast<ptrdiff_t>(sp_), locals, 0);
  sp_ += locals;
  frame.operand_base = static_cast<uint32_t>(sp_);
  frames_.push_back(frame);
}

void Instance::grow_stack(size_t slots) {
  stack_.resize(std::max(slots, 2 * stack_.size()));
}

void Instance::call_host(uint32_t import_index) {
  const wasm::Import& imp = mod().imports[import_index];
  const HostEntry* entry = imports_.find(imp.module, imp.name);
  const wasm::FuncType& type = mod().types[imp.type_index];

  Values args(type.params.size());
  for (size_t i = type.params.size(); i-- > 0;) {
    args[i] = TypedValue{type.params[i], pop_raw()};
  }
  HostContext ctx{memory_.get(), &stats_};
  ++stats_.host_calls;
  stats_.cycles += cost_.host_call_cycles;
  if (meter_ != nullptr) {
    ctx.meter = meter_;
    meter_->on_host_call(cost_.host_call_cycles);
  }
  Values results = entry->func(args, ctx);
  if (results.size() != type.results.size()) {
    throw LinkError("host function returned wrong result count for " +
                    imp.module + "." + imp.name);
  }
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].type != type.results[i]) {
      throw LinkError("host function result type mismatch for " + imp.module +
                      "." + imp.name);
    }
    push_raw(results[i].bits);
  }
}

void Instance::charge_memory(uint64_t effective_addr, uint32_t size,
                             bool is_write) {
  // Shadow replay through the meter's private hierarchy — independent of
  // (and unaffected by) the billed cache model below.
  if (meter_ != nullptr) meter_->on_memory_access(effective_addr, size, is_write);
  stats_.cycles += cost_.bounds_check_cycles;
  if (!options_.cache_model) return;
  cachesim::AccessResult res = cache_.access(effective_addr, size, is_write);
  stats_.cycles += res.cycles;
  if (res.llc_miss) {
    ++stats_.llc_misses;
    stats_.cycles += cost_.mee_cycles_per_llc_miss;
    if (cost_.epc_limit_bytes != 0 && memory_ != nullptr) {
      uint64_t footprint =
          cost_.enclave_base_footprint + memory_->size_bytes();
      if (footprint > cost_.epc_limit_bytes) {
        // Deterministic fractional paging: a fraction p of LLC misses hits a
        // page that is not EPC-resident.
        double p = 1.0 - static_cast<double>(cost_.epc_limit_bytes) /
                             static_cast<double>(footprint);
        epc_fault_accum_ += p;
        if (epc_fault_accum_ >= 1.0) {
          epc_fault_accum_ -= 1.0;
          ++stats_.epc_faults;
          stats_.cycles += cost_.epc_fault_cycles;
        }
      }
    }
  }
}

void Instance::note_memory_growth() {
  if (memory_ == nullptr) return;
  uint64_t size = memory_->size_bytes();
  stats_.memory_integral += (stats_.instructions - integral_mark_) * size;
  integral_mark_ = stats_.instructions;
  if (size > stats_.peak_memory_bytes) stats_.peak_memory_bytes = size;
  // run_loop.inc calls this on both sides of memory.grow, so size deltas
  // between consecutive observations are exactly the grow churn.
  if (meter_ != nullptr) meter_->on_memory_size(size);
}

void Instance::set_checkpoint(uint64_t interval, CheckpointHandler handler) {
  checkpoint_interval_ = interval;
  checkpoint_ = std::move(handler);
  next_checkpoint_ =
      interval == 0 ? UINT64_MAX : stats_.instructions + interval;
}

void Instance::account_instruction(const FlatOp& op) {
  ++stats_.instructions;
  ++stats_.per_op[static_cast<size_t>(op.op)];
  stats_.cycles += wasm::op_info(op.op).base_cost;
  if (stats_.instructions >= next_checkpoint_) {
    next_checkpoint_ += checkpoint_interval_;
    note_memory_growth();  // fold the integral up to this point
    checkpoint_(*this);
  }
}

// Removes the accounting of the pre-charged but never-executed suffix of
// the current block, so the ExecStats a trap leaves behind are bit-identical
// to per-instruction accounting (where the trapping instruction is the last
// one counted). Cold path: runs only when a trap unwinds out of run().
//
// The suffix walk runs over the flattened code (the authoritative
// accounting representation), while fr.pc indexes the lowered stream: the
// first never-executed flat pc is the current bytecode instruction's
// flat_end — exact even for fused instructions, because superinstructions
// fuse only non-trapping constituents (bytecode.def), so the trapping
// instruction is always the sole constituent of its bytecode slot.
void Instance::uncharge_block_suffix() noexcept {
  if (!block_charged_) return;
  block_charged_ = false;
  if (frames_.empty()) return;
  const Frame& fr = frames_.back();
  const FlatFunc& ff = flat()[fr.func];
  for (uint32_t p = lowered()[fr.func].code[fr.pc].flat_end;
       p < charged_end_pc_; ++p) {
    const FlatOp& o = ff.code[p];
    if (o.synthetic) continue;
    --stats_.instructions;
    --stats_.per_op[static_cast<size_t>(o.op)];
    stats_.cycles -= wasm::op_info(o.op).base_cost;
  }
}

void Instance::run(size_t stop_depth) {
  try {
    if (options_.profiler != nullptr) {
      run_loop_profiled(stop_depth);
    } else {
      run_loop(stop_depth);
    }
  } catch (...) {
    uncharge_block_suffix();
    throw;
  }
  block_charged_ = false;
}

void Instance::run_loop(size_t stop_depth) {
#define ACCTEE_PROFILE 0
#include "interp/run_loop.inc"
#undef ACCTEE_PROFILE
}

void Instance::run_loop_profiled(size_t stop_depth) {
#define ACCTEE_PROFILE 1
#include "interp/run_loop.inc"
#undef ACCTEE_PROFILE
}

}  // namespace acctee::interp
