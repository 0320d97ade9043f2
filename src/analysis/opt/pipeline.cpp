// The pass manager (DESIGN.md §19): fixed deterministic pass order, gated
// by opt_level, with the verify-after-each-pass discipline — each pass
// output that differs from its input is immediately re-proved (region
// semantics + §14 over the collapsed view), an unchanged one inherits its
// input's proof, and the evidence diff (counts, digests, proof time) is
// recorded in the trail the IE claims and the AE independently re-derives.
#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "analysis/opt/internal.hpp"
#include "analysis/opt/opt.hpp"
#include "common/error.hpp"
#include "interp/lower.hpp"

namespace acctee::analysis::opt {

using interp::FlatFunc;
using interp::FlatOp;
using interp::OptRegion;
using wasm::Op;

crypto::Digest flat_digest(const std::vector<FlatFunc>& flat) {
  crypto::Sha256Writer w;
  w.bytes("acctee.optflat.v1");
  w.record(4).u32(static_cast<uint32_t>(flat.size()));
  for (const FlatFunc& ff : flat) {
    w.record(12)
        .u32(ff.type_index)
        .u32(ff.num_params)
        .u32(static_cast<uint32_t>(ff.local_types.size()));
    for (wasm::ValType t : ff.local_types) {
      w.record(1).u8(static_cast<uint8_t>(t));
    }
    interp::digest_flat_code(w, ff.code);
    interp::digest_br_tables(w, ff.br_tables);
    interp::digest_regions(w, ff);
  }
  return w.finish();
}

bool flat_equal(const std::vector<FlatFunc>& a,
                const std::vector<FlatFunc>& b) {
  if (a.size() != b.size()) return false;
  auto op_eq = [](const FlatOp& x, const FlatOp& y) {
    return x.op == y.op && x.synthetic == y.synthetic && x.arity == y.arity &&
           x.a == y.a && x.target_pc == y.target_pc && x.unwind == y.unwind &&
           x.b == y.b;
  };
  for (size_t f = 0; f < a.size(); ++f) {
    const FlatFunc& fa = a[f];
    const FlatFunc& fb = b[f];
    if (fa.type_index != fb.type_index || fa.num_params != fb.num_params ||
        fa.local_types != fb.local_types ||
        fa.code.size() != fb.code.size() ||
        fa.br_tables != fb.br_tables || fa.regions != fb.regions ||
        fa.region_hist != fb.region_hist) {
      return false;
    }
    for (size_t i = 0; i < fa.code.size(); ++i) {
      if (!op_eq(fa.code[i], fb.code[i])) return false;
    }
  }
  return true;
}

std::vector<FlatFunc> collapsed_view(const std::vector<FlatFunc>& flat) {
  std::vector<FlatFunc> out = flat;
  for (FlatFunc& ff : out) {
    for (const OptRegion& r : ff.regions) {
      // Enter becomes an unconditional jump to the slow copy: the only
      // path the §14 dataflow sees is the verbatim baseline code.
      FlatOp& enter = ff.code[r.enter_pc];
      enter = FlatOp{};
      enter.op = Op::Br;
      enter.synthetic = true;
      enter.target_pc = r.slow_begin;
      // The fast body becomes an unreachable scaffold chain ending in a
      // trap sink, so it contributes no edges (in particular none into the
      // join) and the dead-block seeding carries zero debt through it.
      for (uint32_t pc = r.fast_begin; pc < r.fast_end; ++pc) {
        FlatOp& op = ff.code[pc];
        op = FlatOp{};
        op.op = pc + 1 == r.fast_end ? Op::Unreachable : Op::Nop;
        op.synthetic = true;
      }
    }
    ff.regions.clear();
    ff.region_hist.clear();
    interp::compute_block_costs(ff);
  }
  return out;
}

uint32_t count_hot_increments(const std::vector<FlatFunc>& flat,
                              uint32_t counter_global) {
  uint32_t count = 0;
  std::vector<std::pair<uint32_t, uint32_t>> slow;  // [begin, end) by begin
  for (const FlatFunc& ff : flat) {
    slow.clear();
    for (const OptRegion& r : ff.regions) {
      slow.emplace_back(r.slow_begin, r.slow_end);
    }
    std::sort(slow.begin(), slow.end());
    // One cursor: `covered` is the furthest end of any slow copy starting
    // at or before pc, so pc lies in a slow copy exactly when pc < covered.
    size_t next = 0;
    uint32_t covered = 0;
    const uint32_t n = static_cast<uint32_t>(ff.code.size());
    for (uint32_t pc = 0; pc < n; ++pc) {
      while (next < slow.size() && slow[next].first <= pc) {
        covered = std::max(covered, slow[next].second);
        ++next;
      }
      if (pc < covered) {
        pc = covered - 1;
        continue;
      }
      if (detail::increment_amount_at(ff.code, pc, counter_global)) {
        ++count;
        pc += 3;
      }
    }
  }
  return count;
}

namespace {

uint32_t count_blocks(const std::vector<FlatFunc>& flat) {
  uint32_t blocks = 0;
  for (const FlatFunc& ff : flat) {
    blocks += static_cast<uint32_t>(ff.blocks.size());
  }
  return blocks;
}

}  // namespace

PipelineResult run_pipeline(const wasm::Module& module,
                            std::vector<FlatFunc>&& baseline,
                            uint32_t counter_global, uint32_t opt_level,
                            const instrument::WeightTable& weights,
                            const instrument::HostChargePolicy& host_charge,
                            const OptVerifyResult* baseline_proof) {
  if (baseline_proof != nullptr &&
      (!baseline_proof->ok ||
       baseline_proof->cost_vector.size() != baseline.size())) {
    throw Error(
        "opt pipeline: the baseline verdict is not an accepting proof of a "
        "module with this function count");
  }
  PipelineResult result;
  result.trail.opt_level = std::min(opt_level, kMaxOptLevel);
  result.flat = std::move(baseline);
  if (result.trail.opt_level == 0) return result;

  // What is known of the current input, result.flat. A pass whose output is
  // flat_equal to its input inherits all of it: flat_equal compares every
  // field the proof and flat_digest read, and the block summaries are a
  // function of those fields. The baseline's proof and digest are derived
  // on first need, its proof only if the caller supplied none.
  std::optional<crypto::Digest> cost_digest;
  if (baseline_proof != nullptr) {
    cost_digest = baseline_proof->cost_vector_digest;
  }
  std::optional<crypto::Digest> digest;
  uint32_t blocks = count_blocks(result.flat);
  uint32_t increments = count_hot_increments(result.flat, counter_global);

  // The §14 proof (collapsed view) plus the per-region semantic
  // re-derivation. A failure is a pass bug (or, for the baseline, an
  // unsound module); it must never ship, so fail closed.
  auto prove = [&](const std::vector<FlatFunc>& flat, const std::string& what,
                   uint64_t* micros) {
    const auto t0 = std::chrono::steady_clock::now();
    OptVerifyResult proof = verify_optimised_module(
        module, flat, counter_global, weights, host_charge);
    *micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (!proof.ok) {
      throw Error("opt pipeline: " + what +
                  " failed its counter-equivalence proof: " + proof.error);
    }
    return proof.cost_vector_digest;
  };

  struct Pass {
    const char* name;
    uint32_t min_level;
  };
  constexpr Pass kPasses[] = {
      {"dead-blocks", 1},
      {"coalesce-calls", 1},
      {"fold-loops", 2},
  };
  for (const Pass& pass : kPasses) {
    if (result.trail.opt_level < pass.min_level) continue;
    PassReport report;
    report.name = pass.name;
    report.min_level = pass.min_level;
    report.blocks_before = blocks;
    report.increments_before = increments;

    std::vector<FlatFunc> next;
    if (report.name == "dead-blocks") {
      next = detail::pass_dead_blocks(module, result.flat,
                                      &report.ops_elided);
    } else if (report.name == "coalesce-calls") {
      next = detail::pass_coalesce_calls(module, result.flat, counter_global,
                                         weights, host_charge,
                                         &report.regions_added);
    } else {
      next = detail::pass_fold_loops(module, result.flat, counter_global,
                                     /*allow_nests=*/result.trail.opt_level >=
                                         3,
                                     &report.regions_added);
    }

    // Verify-after-each-pass: an output that differs from its input is
    // proved before it becomes the next pass's input.
    if (flat_equal(next, result.flat)) {
      report.proof_inherited = true;
      if (!cost_digest) {
        cost_digest =
            prove(result.flat, "the baseline", &result.baseline_proof_micros);
      }
      if (!digest) digest = flat_digest(result.flat);
    } else {
      cost_digest = prove(next, std::string("pass '") + pass.name + "'",
                          &report.proof_micros);
      digest = flat_digest(next);
      blocks = count_blocks(next);
      increments = count_hot_increments(next, counter_global);
      result.flat = std::move(next);
    }
    report.blocks_after = blocks;
    report.increments_after = increments;
    report.cost_vector_digest = *cost_digest;
    report.flat_digest = *digest;
    result.trail.passes.push_back(std::move(report));
  }
  return result;
}

PipelineResult run_pipeline(const wasm::Module& module,
                            const std::vector<FlatFunc>& baseline,
                            uint32_t counter_global, uint32_t opt_level,
                            const instrument::WeightTable& weights,
                            const instrument::HostChargePolicy& host_charge,
                            const OptVerifyResult* baseline_proof) {
  return run_pipeline(module, std::vector<FlatFunc>(baseline), counter_global,
                      opt_level, weights, host_charge, baseline_proof);
}

interp::CompiledModulePtr optimise_compiled(
    const interp::CompiledModulePtr& base, uint32_t counter_global,
    uint32_t opt_level, const instrument::WeightTable& weights,
    const instrument::HostChargePolicy& host_charge, OptTrail* trail_out) {
  PipelineResult pr =
      run_pipeline(base->module(), base->flat(), counter_global, opt_level,
                   weights, host_charge);
  if (trail_out != nullptr) *trail_out = pr.trail;
  if (pr.trail.opt_level == 0) return base;
  interp::CompiledModule::CompileOptions options;
  options.lower = base->lower_options();
  return std::make_shared<const interp::CompiledModule>(
      base->module(), std::move(pr.flat), options, base->validated());
}

bool check_optimised_flat(const wasm::Module& module,
                          const std::vector<FlatFunc>& flat,
                          uint32_t counter_global,
                          const instrument::WeightTable& weights,
                          const instrument::HostChargePolicy& host_charge,
                          const crypto::Digest& claimed_cost_digest) {
  OptVerifyResult res = verify_optimised_module(module, flat, counter_global,
                                                weights, host_charge);
  return res.ok && res.cost_vector_digest == claimed_cost_digest;
}

}  // namespace acctee::analysis::opt
