// The engine of the two workloads that call the accounting enclave
// directly, one request at a time (compute_jobs and tenant_churn): each
// request is an AE execution followed by the billing path (log verify,
// sequence accept, ledger append), timed from outside.
#pragma once

#include <functional>

#include "common.hpp"

namespace acctee::perfbench {

struct DirectWorkload {
  std::string name;
  std::vector<Job> jobs;
  /// Job index of every request of round `round`, in submission order.
  std::function<std::vector<size_t>(size_t round)> order;
  /// Config::checkpoint_interval (0: final logs only).
  uint64_t checkpoint_interval = 0;
  /// true: every job is prepared at deploy and requests execute the
  /// prepared module (compute_jobs). false: every request is
  /// execute(binary, evidence, ...), a prepare miss plus a fresh instance
  /// (tenant_churn).
  bool prepare_at_deploy = false;
  /// Upper bound on the logs one execution of `job` signs.
  std::function<uint64_t(const Job& job)> logs_per_run;
};

void run_direct(const DirectWorkload& workload, const Args& args,
                Result& result);

}  // namespace acctee::perfbench
