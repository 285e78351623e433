// Shared plumbing for the figure-reproduction benches.
//
// Every bench accepts:
//   --seed=N       master RNG seed (default 1)
//   --csv          emit CSV instead of an aligned table
//   --samples=N    locked samples per configuration (paper: 10)
//   --relocks=N    training relock rounds per sample (paper: 1000)
// Benches routed through the experiment engine (fig4/5/6, run_baseline, the
// evaluateBenchmark-based ablations) additionally accept
//   --threads=N    experiment-engine workers (default: RTLOCK_THREADS env,
//                  else hardware concurrency; 1 = serial reference path)
// and their results are bit-identical at every thread count (see
// support/task_pool.hpp).  The evaluateBenchmark benches size ONE pool by
// --threads and pass it into every evaluateBenchmark call, so grid cells and
// their locked samples share its workers, as in `rtlock eval`.  Other flags
// are documented in each main().
#pragma once

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/diagnostics.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/task_pool.hpp"

namespace rtlock::bench {

/// Requested worker count for a bench: --threads flag, then RTLOCK_THREADS,
/// then hardware concurrency.  Shared with the rtlock CLI through
/// support::requestedThreads so both front ends resolve thread counts
/// identically.
inline int requestedThreads(const support::CliArgs& args) {
  return support::requestedThreads(args);
}

/// Renders a table according to the --csv flag.
inline void emit(const support::Table& table, bool csv) {
  if (csv) {
    table.renderCsv(std::cout);
  } else {
    table.renderText(std::cout);
  }
}

/// Prints the standard bench banner.
inline void banner(const std::string& title, const std::string& paperRef,
                   const std::string& expectation) {
  std::cout << "== " << title << " ==\n"
            << "reproduces: " << paperRef << "\n"
            << "expected shape: " << expectation << "\n\n";
}

/// Wraps main-body execution with uniform error reporting.
template <typename Body>
int runBench(Body&& body) {
  try {
    body();
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "bench failed: " << error.what() << '\n';
    return 1;
  }
}

}  // namespace rtlock::bench
