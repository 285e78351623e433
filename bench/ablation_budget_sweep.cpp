// Sec. 5.1 — "when it comes to ML-driven attacks, half measures are not
// effective.  Data-driven approaches can exploit even the slightest
// imbalance."
//
// The bench sweeps the key budget from 10 % to 100 % on an imbalanced design
// and reports KPA for ASSURE, HRA and ERA.  Expected shape: ASSURE stays
// highly vulnerable at every partial budget; HRA improves only gradually
// (residual imbalance remains exploitable until the budget suffices to
// balance); ERA is at random guess everywhere because it overruns the budget
// to reach balance.
#include "attack/pipeline.hpp"
#include "common.hpp"
#include "designs/registry.hpp"

int main(int argc, char** argv) {
  using namespace rtlock;
  return bench::runBench([&] {
    const support::CliArgs args(argc, argv,
                                {"seed", "csv", "samples", "relocks", "benchmark", "threads"});
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const bool csv = args.getBool("csv", false);
    const std::string benchmarkName = args.get("benchmark", "FIR");

    attack::EvaluationConfig config;
    config.testLocks = static_cast<int>(args.getInt("samples", 2));
    config.snapshot.relockRounds = static_cast<int>(args.getInt("relocks", 50));
    config.snapshot.automl.folds = 2;

    bench::banner("Key-budget sweep — the 'half measures' claim",
                  "Sisejkovic et al., DAC'22, Sec. 5.1 (lessons learned)",
                  "ASSURE/HRA exploitable at every partial budget; ERA ~50% throughout");

    const rtl::Module original = designs::makeBenchmark(benchmarkName);
    support::Table table{{"budget %", "ASSURE KPA%", "HRA KPA%", "HRA M^g", "ERA KPA%",
                          "ERA bits used"}};

    // One task per (budget, algorithm) cell; cell i draws only from
    // substream(i) of the master seed, so the sweep is bit-identical at any
    // thread count.  Each cell fans its samples out on the same pool.
    const std::vector<int> budgetGrid{10, 25, 50, 75, 90, 100};
    const std::vector<lock::Algorithm> algorithms{
        lock::Algorithm::AssureSerial, lock::Algorithm::Hra, lock::Algorithm::Era};
    const support::Rng root{seed};
    support::TaskPool pool{bench::requestedThreads(args)};
    const auto cells = pool.map(
        budgetGrid.size() * algorithms.size(), [&](std::size_t index) {
          attack::EvaluationConfig cellConfig = config;
          cellConfig.keyBudgetFraction = budgetGrid[index / algorithms.size()] / 100.0;
          cellConfig.snapshot.relockBudgetFraction = 0.75;
          support::Rng rng = root.substream(index);
          return attack::evaluateBenchmark(original, benchmarkName,
                                           algorithms[index % algorithms.size()],
                                           lock::PairTable::fixed(), cellConfig, rng, pool);
        });

    for (std::size_t b = 0; b < budgetGrid.size(); ++b) {
      const auto& assure = cells[b * algorithms.size() + 0];
      const auto& hra = cells[b * algorithms.size() + 1];
      const auto& era = cells[b * algorithms.size() + 2];
      table.addRow({std::to_string(budgetGrid[b]), support::formatDouble(assure.meanKpa, 2),
                    support::formatDouble(hra.meanKpa, 2),
                    support::formatDouble(hra.meanGlobalMetric, 1),
                    support::formatDouble(era.meanKpa, 2),
                    support::formatDouble(era.meanBitsUsed, 0)});
    }
    bench::emit(table, csv);
  });
}
