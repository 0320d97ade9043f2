#include "analysis/verifier.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/cfg.hpp"
#include "analysis/counter_flow.hpp"
#include "analysis/dominators.hpp"
#include "analysis/loops.hpp"
#include "instrument/passes.hpp"
#include "wasm/validator.hpp"

namespace acctee::analysis {

using interp::FlatFunc;
using interp::FlatOp;
using wasm::Op;

std::optional<std::string> check_counter_global(const wasm::Module& module,
                                                uint32_t counter_global) {
  auto exported = module.find_export(instrument::kCounterExport,
                                     wasm::ExternKind::Global);
  if (!exported) {
    return std::string("counter global is not exported as \"") +
           instrument::kCounterExport + "\"";
  }
  if (*exported != counter_global) {
    std::ostringstream out;
    out << "export \"" << instrument::kCounterExport << "\" names global "
        << *exported << ", expected the counter global " << counter_global;
    return out.str();
  }
  if (counter_global >= module.globals.size()) {
    return std::string("counter global index is out of range");
  }
  const wasm::Global& g = module.globals[counter_global];
  if (g.type != wasm::ValType::I64) {
    return std::string("counter global must have type i64");
  }
  if (!g.mutable_) {
    return std::string("counter global must be mutable");
  }
  if (g.init.op != Op::I64Const || g.init.imm != 0) {
    return std::string("counter global must be initialised to i64.const 0");
  }
  return std::nullopt;
}

namespace {

std::string function_label(const wasm::Module& module, uint32_t defined_index) {
  const uint32_t index =
      static_cast<uint32_t>(module.imports.size()) + defined_index;
  std::ostringstream out;
  out << "func[" << index << "]";
  const std::string& name = module.functions[defined_index].name;
  if (!name.empty()) out << " \"" << name << "\"";
  return out.str();
}

}  // namespace

VerifyResult verify_instrumented_module(
    const wasm::Module& module, const std::vector<FlatFunc>& flat,
    uint32_t counter_global, const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge) {
  VerifyResult result;
  if (auto err = check_counter_global(module, counter_global)) {
    result.error = *err;
    return result;
  }

  for (uint32_t fi = 0; fi < flat.size(); ++fi) {
    const FlatFunc& func = flat[fi];
    const std::string label = function_label(module, fi);

    Cfg cfg = build_cfg(func);
    std::vector<uint32_t> idom = immediate_dominators(cfg);
    Classification cls = classify_ops(func, cfg, counter_global);
    std::vector<CountedRegion> regions = find_counted_regions(
        func, cfg, idom, cls, counter_global, weights, host_charge);
    apply_region_scaffolding(cls, regions);

    // Write protection: after recognition, nothing classified as workload
    // may touch the counter global. This also catches every mangled or
    // half-recognised increment/epilogue.
    for (uint32_t pc = 0; pc < func.code.size(); ++pc) {
      const FlatOp& op = func.code[pc];
      if (cls.op_class[pc] != OpClass::Workload || op.synthetic) continue;
      if ((op.op == Op::GlobalGet || op.op == Op::GlobalSet) &&
          op.a == counter_global) {
        std::ostringstream out;
        out << "write-protection violation in " << label << ": op "
            << wasm::op_info(op.op).name << " at pc " << pc
            << " accesses the counter global outside any recognised "
               "increment or hoisted-loop epilogue";
        result.error = out.str();
        return result;
      }
    }

    std::vector<uint32_t> balanced;
    std::vector<EdgeCharge> charges;
    FunctionReport report;
    report.index = static_cast<uint32_t>(module.imports.size()) + fi;
    report.name = module.functions[fi].name;
    report.blocks = static_cast<uint32_t>(cfg.blocks.size());
    report.increments = cls.increment_count();
    for (const CountedRegion& region : regions) {
      balanced.push_back(region.body_block);
      if (region.has_exit_charge) charges.push_back(region.exit_charge);
      if (region.hoisted) {
        ++report.hoisted_loops;
      } else {
        ++report.folded_loops;
      }
    }

    FlowResult flow = run_counter_flow(func, cfg, cls, balanced, charges,
                                       weights, label, host_charge);
    if (!flow.ok) {
      result.error = flow.error;
      return result;
    }

    // The recovered original program: every workload op, charged its agreed
    // weight, exactly once statically.
    uint64_t recovered = 0;
    for (uint32_t pc = 0; pc < func.code.size(); ++pc) {
      if (cls.op_class[pc] == OpClass::Workload && !func.code[pc].synthetic) {
        recovered += weights.weight(func.code[pc].op) +
                     host_charge.surcharge(func.code[pc].op, func.code[pc].a);
      }
    }
    report.recovered_cost = recovered;
    result.cost_vector.push_back(recovered);
    result.functions.push_back(std::move(report));
  }

  result.cost_vector_digest = cost_vector_digest(result.cost_vector);
  result.ok = true;
  return result;
}

VerifyResult verify_instrumented_module(
    const wasm::Module& module, uint32_t counter_global,
    const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge) {
  wasm::validate(module);
  return verify_instrumented_module(module, interp::flatten_module(module),
                                    counter_global, weights, host_charge);
}

std::vector<uint64_t> naive_cost_vector(
    const wasm::Module& module, const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge) {
  std::vector<uint64_t> costs;
  costs.reserve(module.functions.size());
  for (const FlatFunc& flat : interp::flatten_module(module)) {
    uint64_t cost = 0;
    for (const FlatOp& op : flat.code) {
      if (!op.synthetic) {
        cost += weights.weight(op.op) + host_charge.surcharge(op.op, op.a);
      }
    }
    costs.push_back(cost);
  }
  return costs;
}

crypto::Digest cost_vector_digest(const std::vector<uint64_t>& costs) {
  crypto::Sha256Writer w;
  w.bytes("acctee-cost-vector-v1");
  w.record(4).u32(static_cast<uint32_t>(costs.size()));
  for (uint64_t c : costs) w.record(8).u64(c);
  return w.finish();
}

std::optional<std::string> check_lowering(
    const wasm::Module& module, const std::vector<FlatFunc>& flat,
    const std::vector<interp::BcFunc>& lowered,
    const interp::LowerOptions& options, const crypto::Digest& digest) {
  // Independent re-derivation: lowering is a pure function of the verified
  // flattened code, the module's signatures and the options, so the only
  // accepted lowered form is the one this process computes itself.
  const std::vector<interp::BcFunc> expected =
      interp::lower_module(module, flat, options);
  if (expected.size() != lowered.size()) {
    std::ostringstream out;
    out << "lowered function count " << lowered.size()
        << " does not match the flattened module (" << expected.size() << ")";
    return out.str();
  }
  for (size_t f = 0; f < expected.size(); ++f) {
    if (expected[f] == lowered[f]) continue;
    std::ostringstream out;
    out << "lowered code of defined func " << f
        << " differs from the deterministic re-lowering";
    const auto& want = expected[f].code;
    const auto& got = lowered[f].code;
    for (size_t pc = 0; pc < std::min(want.size(), got.size()); ++pc) {
      if (want[pc] == got[pc]) continue;
      out << " (first divergence at bc pc " << pc << ": expected "
          << interp::to_string(want[pc].op) << ", found "
          << interp::to_string(got[pc].op) << ")";
      break;
    }
    if (want.size() != got.size()) {
      out << " (" << got.size() << " instructions, expected " << want.size()
          << ")";
    }
    if (expected[f].max_height != lowered[f].max_height) {
      out << " (operand reservation " << lowered[f].max_height
          << ", expected " << expected[f].max_height << ")";
    }
    return out.str();
  }
  if (interp::lowering_digest(flat, lowered, options) != digest) {
    return std::string(
        "lowering digest does not bind the lowered form to the verified "
        "flattened code");
  }
  return std::nullopt;
}

std::optional<std::string> check_lowering(
    const interp::CompiledModule& compiled) {
  return check_lowering(compiled.module(), compiled.flat(), compiled.lowered(),
                        compiled.lower_options(), compiled.lowering_digest());
}

}  // namespace acctee::analysis
