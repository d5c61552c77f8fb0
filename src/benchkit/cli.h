// The dcolor-bench command line, as a library entry point so both the
// bench/dcolor_bench_main.cpp binary and the benchkit test suite drive
// the exact same code path.
//
//   dcolor-bench [--list] [--filter S1,S2,...] [--json-dir DIR]
//                [--baseline DIR] [--threshold PCT] [--abs-slack-ms MS]
//                [--no-calibrate] [--threads T1,T2,...] [--quick]
//                [--reps R] [--warmup W] [--seed S] [--min-scenarios N]
//                [--no-parity] [--help]
//
// Exit codes: 0 success; 1 verification / parity / registry failure or
// determinism drift from a baseline; 2 baseline wall-time regression;
// 3 usage error.
#pragma once

#include <cstdio>

namespace dcolor::benchkit {

inline constexpr int kExitOk = 0;
inline constexpr int kExitVerifyFailure = 1;
inline constexpr int kExitRegression = 2;
inline constexpr int kExitUsage = 3;

// Runs the CLI against the process-wide scenario registry. `out` receives
// the human-readable report (tests pass a scratch stream to keep ctest
// logs small); errors go to stderr.
int run_cli(int argc, char** argv, std::FILE* out = stdout);

}  // namespace dcolor::benchkit
