// The benchmark's workloads (README.md in this directory). Each runs for
// `args.seconds`, gates its outputs, and adds its metrics to `result`:
// the end-to-end metrics untraced, the per-layer ones with `args.trace`.
#pragma once

#include "common.hpp"

namespace acctee::perfbench {

void run_faas_billing(const Args& args, Result& result);
void run_compute_jobs(const Args& args, Result& result);
void run_tenant_churn(const Args& args, Result& result);

}  // namespace acctee::perfbench
