// tenant_churn: cold tenant deploys. A single-threaded closed loop of
// AccountingEnclave::execute(binary, evidence, ...) calls, each with a
// fresh instance, followed by log verify, sequence accept and ledger
// append. The modules rotate in a seeded order over a pool wider than the
// AE's prepared-module cache, so every request is a prepare miss.
#include <numeric>

#include "common/rng.hpp"
#include "direct_ae.hpp"
#include "workloads.hpp"
#include "workloads/faas_functions.hpp"
#include "workloads/polybench.hpp"
#include "workloads/usecases.hpp"

namespace acctee::perfbench {

namespace {

constexpr uint32_t kSmallN[] = {8, 16};
constexpr size_t kRoundRequests = 400;

// Use-case scales small enough for a request-sized run.
int32_t small_scale(const std::string& name) {
  if (name == "Darknet") return 1;
  if (name == "MSieve") return 2;
  return 4;  // PC variables, SubsetSum items
}

std::vector<Job> make_pool(uint64_t seed) {
  std::vector<Job> pool;
  for (const workloads::KernelFactory& k : workloads::polybench()) {
    for (uint32_t n : kSmallN) {
      pool.push_back(make_job(k.name + "-" + std::to_string(n), k.build(n)));
    }
  }
  for (const workloads::UseCase& uc : workloads::usecases()) {
    int32_t scale = small_scale(uc.name);
    pool.push_back(make_job(uc.name + "-" + std::to_string(scale), uc.build(),
                            {interp::TypedValue::make_i32(scale)}));
  }
  Xoshiro256 rng(seed);
  const uint32_t sides[] = {32, 64, 128};
  pool.push_back(make_job(
      "echo", workloads::faas_echo(), {},
      workloads::make_test_image(sides[rng.next_below(3)], rng.next())));
  pool.push_back(make_job(
      "resize", workloads::faas_resize(), {},
      workloads::make_test_image(sides[rng.next_below(3)], rng.next())));
  return pool;
}

}  // namespace

void run_tenant_churn(const Args& args, Result& result) {
  DirectWorkload w;
  w.name = "tenant_churn";
  w.jobs = make_pool(args.seed);
  w.prepare_at_deploy = false;
  w.logs_per_run = [](const Job&) -> uint64_t { return 1; };
  // One seeded permutation, repeated: a module comes back only after every
  // other pool module ran, far beyond the 16-entry prepared-module LRU.
  std::vector<size_t> rotation(w.jobs.size());
  std::iota(rotation.begin(), rotation.end(), 0);
  Xoshiro256 rng(SplitMix64(args.seed).next());
  for (size_t i = rotation.size(); i > 1; --i) {
    std::swap(rotation[i - 1], rotation[rng.next_below(i)]);
  }
  w.order = [rotation](size_t round) {
    std::vector<size_t> order;
    for (size_t k = 0; k < kRoundRequests; ++k) {
      order.push_back(rotation[(round * kRoundRequests + k) % rotation.size()]);
    }
    return order;
  };
  run_direct(w, args, result);
}

}  // namespace acctee::perfbench
