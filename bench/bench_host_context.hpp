// Shared host-provenance stamping for the google-benchmark suites.
//
// Benchmark medians only mean something relative to the machine and
// kernel configuration that produced them: a capture from a 4-core
// laptop is not a baseline for a 64-core server, -march=native kernels
// are not comparable to portable ones, and an AVX-512 GEMM tier is not
// comparable to an AVX2 one. Every suite's custom main() calls
// add_host_context() so each committed BENCH_*.json carries the host
// shape and the runtime-selected kernels it was captured with;
// tools/bench_diff.py reads these fields back and refuses cross-host or
// cross-tier comparisons (escape hatch: --allow-host-mismatch).
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <thread>

#include "hpc/parallel_for.hpp"
#include "tensor/blas.hpp"
#include "tensor/vmath.hpp"

#ifndef GEONAS_BENCH_NATIVE_ARCH
#define GEONAS_BENCH_NATIVE_ARCH "unknown"
#endif

namespace geonas::benchutil {

inline void add_host_context() {
  benchmark::AddCustomContext(
      "geonas_host_cpus",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("geonas_kernel_threads",
                              std::to_string(hpc::kernel_threads()));
  benchmark::AddCustomContext("geonas_native_arch", GEONAS_BENCH_NATIVE_ARCH);
  benchmark::AddCustomContext("geonas_gemm_kernel",
                              tensor::gemm_kernel_name());
  benchmark::AddCustomContext("geonas_vmath_backend", tensor::vmath_backend());
}

}  // namespace geonas::benchutil
