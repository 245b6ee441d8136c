// e2ebench: one workload run of the end-to-end benchmark.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --out RESULT.json --work-dir DIR
//
// Writes the workload's raw result (set-up samples, work counts,
// latency samples, correctness gates, provenance, and in a traced run
// the per-layer figures) to --out; the spans of a traced run go next to
// it as RESULT.json.spans. e2ebench/run.py turns the raw result into
// the benchmark's metrics. Exit status: 0 when every gate passed, 1
// when a gate failed, 2 on a usage or provenance error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "hpc/parallel_for.hpp"
#include "tensor/vmath.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_NATIVE_ARCH
#define E2E_NATIVE_ARCH "unknown"
#endif

namespace {

bool is_release(std::string type) {
  for (char& c : type) c = static_cast<char>(std::tolower(c));
  return type == "release";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "campaign_train|serve_openloop|campaign_net --seed N "
               "--seconds S --trace 0|1 --out FILE --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--seconds") opt.seconds = std::stod(val);
    else if (key == "--trace") opt.trace = val != "0";
    else if (key == "--out") opt.out_path = val;
    else if (key == "--work-dir") opt.work_dir = val;
    else return usage(("unknown argument " + key).c_str());
  }
  if (opt.out_path.empty() || opt.work_dir.empty() || opt.seconds <= 0.0) {
    return usage("--out, --work-dir and a positive --seconds are required");
  }
  // Same rule as tools/run_bench.sh: only Release numbers are recorded.
  if (!is_release(E2E_BUILD_TYPE)) {
    std::fprintf(stderr,
                 "e2ebench: refusing to run a '%s' build; configure with "
                 "CMAKE_BUILD_TYPE=Release\n",
                 E2E_BUILD_TYPE);
    return 2;
  }

  e2e::SpanLog spans;
  e2e::Result result;
  try {
    if (opt.workload == "campaign_train") {
      result = e2e::run_campaign_train(opt, spans);
    } else if (opt.workload == "serve_openloop") {
      result = e2e::run_serve_openloop(opt, spans);
    } else if (opt.workload == "campaign_net") {
      result = e2e::run_campaign_net(opt, spans);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  e2e::JsonOut prov;
  prov.num("host_cpus", std::thread::hardware_concurrency());
  prov.num("kernel_threads",
           static_cast<double>(geonas::hpc::kernel_threads()));
  prov.str("vmath_backend", geonas::tensor::vmath_backend());
  prov.str("native_arch", E2E_NATIVE_ARCH);
  prov.str("build_type", E2E_BUILD_TYPE);

  e2e::JsonOut& out = result.fields;
  out.str("workload", opt.workload);
  out.num("seed", static_cast<double>(opt.seed));
  out.boolean("trace", opt.trace);
  out.raw("provenance", prov.render());
  out.raw("gates", result.gates.json());
  out.boolean("correct", result.gates.all_ok());
  out.num("peak_rss_mb", e2e::peak_rss_mb());
  out.raw("layers", e2e::layers_json(result.layers));
  std::ofstream(opt.out_path) << out.render() << "\n";
  if (opt.trace) spans.write(opt.out_path + ".spans");
  return result.gates.all_ok() ? 0 : 1;
}
