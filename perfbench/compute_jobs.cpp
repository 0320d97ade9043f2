// compute_jobs: long pay-by-computation jobs, one at a time through
// AccountingEnclave::execute on modules prepared at deploy, with an
// interim log every 10^7 instructions. The job order is drawn from the
// seed; the jobs themselves are fixed (the Fig. 6 / Fig. 10 sizes).
#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "direct_ae.hpp"
#include "workloads.hpp"
#include "workloads/polybench.hpp"
#include "workloads/usecases.hpp"

namespace acctee::perfbench {

namespace {

constexpr uint64_t kCheckpointInterval = 10'000'000;

// Dense, streaming, stencil, branchy-DP and triangular loop nests.
const char* const kKernels[] = {"gemm",      "atax",     "mvt",
                                "jacobi-2d", "seidel-2d", "nussinov",
                                "lu",        "cholesky", "deriche"};

std::vector<Job> make_jobs() {
  std::vector<Job> jobs;
  for (const char* name : kKernels) {
    auto it = std::find_if(
        workloads::polybench().begin(), workloads::polybench().end(),
        [&](const workloads::KernelFactory& k) { return k.name == name; });
    if (it == workloads::polybench().end()) {
      throw Error(std::string("perfbench: no PolyBench kernel ") + name);
    }
    jobs.push_back(make_job(it->name, it->build(it->bench_n)));
  }
  for (const workloads::UseCase& uc : workloads::usecases()) {
    jobs.push_back(make_job(uc.name, uc.build(),
                            {interp::TypedValue::make_i32(uc.bench_scale)}));
  }
  return jobs;
}

}  // namespace

void run_compute_jobs(const Args& args, Result& result) {
  DirectWorkload w;
  w.name = "compute_jobs";
  w.jobs = make_jobs();
  w.checkpoint_interval = kCheckpointInterval;
  w.prepare_at_deploy = true;
  // The instrumented run executes the reference instructions plus its
  // increments; twice the reference bounds it with room to spare.
  w.logs_per_run = [](const Job& job) {
    return 2 * job.ref_weighted / kCheckpointInterval + 1;
  };
  const size_t n = w.jobs.size();
  const uint64_t seed = args.seed;
  w.order = [n, seed](size_t round) {
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    Xoshiro256 rng(SplitMix64(seed).next() + round);
    for (size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    return order;
  };
  run_direct(w, args, result);
}

}  // namespace acctee::perfbench
