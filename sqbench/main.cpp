// sqbench: runs one named workload of the Squirrel benchmark.
//
//   sqbench --workload register|boot|degraded --seed N --seconds S
//           --trace 0|1 [--trace-out FILE] [--source-id ID]
//
// Prints a host fingerprint line, (trace runs) the codec model-vs-measured
// table, and as the last line one JSON object with "correct", "attempted"
// and "failed". Trace runs add "metrics" (the per-layer metrics); untraced
// runs add the raw "samples" and the "scalars" from which sqbench/run.py
// computes the end-to-end metrics. Exits 1 when any correctness check
// failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "replay.h"

namespace {

using namespace sqbench;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "sqbench: %s\nusage: sqbench --workload register|boot|degraded "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--source-id ID]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      v.size() > 19) {
    Usage(flag + " needs an unsigned integer, got '" + v + "'");
  }
  return std::strtoull(v.c_str(), nullptr, 10);
}

double ParseSeconds(const std::string& v) {
  char* end = nullptr;
  const double seconds = std::strtod(v.c_str(), &end);
  if (v.empty() || end == nullptr || *end != '\0' || !(seconds > 0.0) ||
      seconds > 600.0) {
    Usage("--seconds must be a number in (0, 600], got '" + v + "'");
  }
  return seconds;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string source_id = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value != "register" && value != "boot" && value != "degraded") {
        Usage("unknown workload '" + value + "'");
      }
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = ParseSeconds(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }

  Tracer tracer(options.trace);
  Checker checker;
  RunResult result;
  checker.Op("workload " + options.workload,
             [&] { result = RunWorkload(options, tracer, checker); });

  std::string body;
  auto append = [&](const std::string& name, const std::string& value) {
    body += (body.empty() ? "\"" : ", \"") + name + "\": " + value;
  };
  if (options.trace) {
    std::string metrics;
    for (const auto& [name, unit] : PerLayerMetrics()) {
      const auto it = result.per_layer.find(name);
      const bool present =
          it != result.per_layer.end() && std::isfinite(it->second.value);
      checker.Check(present, "metric " + name + " missing or not finite");
      metrics += (metrics.empty() ? "\"" : ", \"") + name +
                 "\": {\"value\": " +
                 Number(present ? it->second.value : 0.0) +
                 ", \"unit\": \"" + unit + "\"}";
    }
    append("metrics", "{" + metrics + "}");
    if (!options.trace_out.empty()) {
      checker.Check(tracer.WriteChrome(options.trace_out),
                    "cannot write the trace to " + options.trace_out);
    }
  } else {
    std::string samples;
    for (const auto& [name, values] : result.samples) {
      std::string list;
      for (const double v : values) {
        checker.Check(std::isfinite(v), "sample " + name + " not finite");
        list += (list.empty() ? "" : ", ") + Number(v);
      }
      samples += (samples.empty() ? "\"" : ", \"") + name + "\": [" + list + "]";
    }
    std::string scalars;
    for (const auto& [name, value] : result.scalars) {
      checker.Check(std::isfinite(value), "value " + name + " not finite");
      scalars += (scalars.empty() ? "\"" : ", \"") + name + "\": " + Number(value);
    }
    append("samples", "{" + samples + "}");
    append("scalars", "{" + scalars + "}");
  }

  std::printf(
      "host: {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"setups\": %d, \"executions\": %d, "
      "\"script_boots\": %u, \"pool_threads\": %zu}\n",
      std::thread::hardware_concurrency(), SQBENCH_COMPILER, SQBENCH_BUILD_TYPE,
      source_id.c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? kTraceExecutions : kSetUps,
      options.trace ? kTraceExecutions : 1,
      options.workload == "register" ? kRegisterBootPass : kScriptBoots,
      kPoolThreads);
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());

  const std::uint64_t failed = checker.failed_ops();
  const bool correct = checker.failed_checks() == 0 && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(failed), body.c_str());
  return correct ? 0 : 1;
}
