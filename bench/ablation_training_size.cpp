// Training-set size sensitivity (Sec. 5 attack setup uses 1000 relocks per
// test sample; this ablation shows how many the attack actually needs).
//
// Expected shape: KPA against imbalanced ASSURE locking saturates after a
// few dozen relock rounds (the locality space is tiny), while KPA against
// ERA stays at ~50 % regardless of training volume — more data cannot create
// signal that the balanced distribution does not carry.
#include "attack/pipeline.hpp"
#include "common.hpp"
#include "designs/registry.hpp"

int main(int argc, char** argv) {
  using namespace rtlock;
  return bench::runBench([&] {
    const support::CliArgs args(argc, argv, {"seed", "csv", "samples", "benchmark", "threads"});
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const bool csv = args.getBool("csv", false);
    const std::string benchmarkName = args.get("benchmark", "FIR");

    bench::banner("Training-set size sweep",
                  "Sisejkovic et al., DAC'22, Sec. 5 (attack setup: 1000 relocks)",
                  "ASSURE KPA saturates quickly; ERA flat at ~50% for any volume");

    const rtl::Module original = designs::makeBenchmark(benchmarkName);
    support::Table table{
        {"relock rounds", "training rows", "ASSURE KPA%", "ERA KPA%"}};

    // One task per round-count cell, seeded from substream(cell index); the
    // two algorithm evaluations inside a cell share the cell's stream
    // serially, so the sweep is bit-identical at any thread count.  Each
    // evaluation fans its samples out on the same pool.
    const std::vector<int> roundGrid{5, 10, 25, 50, 100, 200};
    struct Cell {
      attack::EvaluationResult assure;
      attack::EvaluationResult era;
    };
    const support::Rng root{seed};
    support::TaskPool pool{bench::requestedThreads(args)};
    const auto cells = pool.map(roundGrid.size(), [&](std::size_t index) {
      attack::EvaluationConfig config;
      config.testLocks = static_cast<int>(args.getInt("samples", 2));
      config.snapshot.relockRounds = roundGrid[index];
      config.snapshot.automl.folds = 2;

      support::Rng rng = root.substream(index);
      Cell cell;
      cell.assure = attack::evaluateBenchmark(original, benchmarkName,
                                              lock::Algorithm::AssureSerial,
                                              lock::PairTable::fixed(), config, rng, pool);
      cell.era = attack::evaluateBenchmark(original, benchmarkName, lock::Algorithm::Era,
                                           lock::PairTable::fixed(), config, rng, pool);
      return cell;
    });

    for (std::size_t index = 0; index < roundGrid.size(); ++index) {
      // Rows per round ~ relock budget; report the product as training size.
      const auto rows =
          static_cast<long long>(roundGrid[index] * cells[index].assure.meanKeyBits);
      table.addRow({std::to_string(roundGrid[index]), std::to_string(rows),
                    support::formatDouble(cells[index].assure.meanKpa, 2),
                    support::formatDouble(cells[index].era.meanKpa, 2)});
    }
    bench::emit(table, csv);
  });
}
