// acctee_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--source <id>]
//
// Runs one workload of the repository benchmark (README.md in this
// directory). Prints a fingerprint line first and, as the last stdout line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 1
// when the correctness gate failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace acctee::perfbench;

constexpr const char* kBuildType = PB_BUILD_TYPE;

bool parse(int argc, char** argv, Args& args, std::string& source) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--source") {
      source = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && args.seconds > 0;
}

bool release_build() {
#ifdef NDEBUG
  return std::strcmp(kBuildType, "Release") == 0;
#else
  return false;
#endif
}

void print_fingerprint(const Args& args, const std::string& source) {
  std::printf(
      "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"source\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
      "\"ACCTEE_BYTECODE\": %d, \"ACCTEE_THREADED_DISPATCH\": %d, "
      "\"ACCTEE_SHADOW_METER\": %d}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, source.c_str(), PB_COMPILER,
      kBuildType, std::thread::hardware_concurrency(), PB_OPT_BYTECODE,
      PB_OPT_THREADED, PB_OPT_SHADOW);
  std::fflush(stdout);
  if (!release_build()) {
    std::fprintf(stderr,
                 "\n*****************************************************\n"
                 "*** WARNING: perfbench built as '%s', not Release. ***\n"
                 "*** Its timings are not comparable to a baseline.   ***\n"
                 "*****************************************************\n\n",
                 kBuildType);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string source = "unknown";
  if (!parse(argc, argv, args, source)) {
    std::fprintf(stderr,
                 "usage: acctee_perfbench --workload <faas_billing|"
                 "compute_jobs|tenant_churn> --seed <n> --seconds <s> "
                 "--trace <0|1> [--source <id>]\n");
    return 2;
  }
  void (*run)(const Args&, Result&) = nullptr;
  if (args.workload == "faas_billing") run = run_faas_billing;
  if (args.workload == "compute_jobs") run = run_compute_jobs;
  if (args.workload == "tenant_churn") run = run_tenant_churn;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  print_fingerprint(args, source);

  Result result;
  // Instrumentation hygiene: timings come from the benchmark's own timers
  // only, never from in-program spans, and the tracer stays off throughout
  // (the AE configs refuse the shadow meter, see ae_config()).
  if (acctee::obs::Tracer::global().enabled()) {
    result.fail(1, "obs::Tracer is enabled at start");
  }
  try {
    run(args, result);
  } catch (const std::exception& e) {
    result.attempt(1);
    result.fail(1, std::string("exception: ") + e.what());
  }
  if (acctee::obs::Tracer::global().enabled()) {
    result.fail(1, "obs::Tracer was enabled during the run");
  }
  for (const std::string& problem : result.problems()) {
    std::fprintf(stderr, "FAIL: %s\n", problem.c_str());
  }
  std::printf("%s\n", result.json().c_str());
  return result.correct() ? 0 : 1;
}
