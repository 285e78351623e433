// Sec. 5.1 open question — "Are the locking algorithms resilient to
// oracle-guided attacks?"
//
// Answer demonstrated here: no.  Learning resilience (balanced operation
// distribution) removes the *structural* key signal, but once the attacker
// owns a working oracle, per-bit corruption probing recovers most key bits
// for ASSURE, HRA and ERA alike — the schemes' threat model is strictly
// oracle-less.  Bits whose corruption does not reach an output within the
// probing window stay at a coin flip, which keeps KPA below 100 %.
#include "attack/oracle.hpp"
#include "common.hpp"
#include "core/algorithms.hpp"
#include "designs/networks.hpp"
#include "designs/registry.hpp"

int main(int argc, char** argv) {
  using namespace rtlock;
  return bench::runBench([&] {
    const support::CliArgs args(argc, argv, {"seed", "csv", "budget", "trials", "vectors"});
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const bool csv = args.getBool("csv", false);
    const double budgetFraction = args.getDouble("budget", 0.5);

    attack::OracleAttackConfig config;
    config.trials = static_cast<int>(args.getInt("trials", 6));
    const auto vectors = args.getInt("vectors", 8);
    if (vectors < 1) throw support::Error{"--vectors must be at least 1"};
    config.vectors = static_cast<int>(vectors);
    config.cyclesPerVector = 40;  // cover the deepest pipeline (32-tap FIR)

    bench::banner(
        "Oracle-guided attack vs. ML-resilient locking",
        "Sisejkovic et al., DAC'22, Sec. 5.1 (limitations & opportunities)",
        "corruption hill-climbing beats random on every scheme (ERA included) wherever "
        "the corruption gradient is smooth (arithmetic chains); avalanche-style designs "
        "(MD5/DES3) resist naive probing — full oracle analysis needs SAT-style attacks");

    support::Table table{
        {"benchmark", "algorithm", "key bits", "oracle KPA%", "SnapShot-context"}};

    support::Rng rng{seed};
    for (const auto* name : {"N_ADD_128", "FIR", "MD5", "DES3", "I2C_SL"}) {
      const rtl::Module original = std::string{name} == "N_ADD_128"
                                       ? designs::makePlusNetwork(128)
                                       : designs::makeBenchmark(name);
      for (const auto algorithm :
           {lock::Algorithm::AssureSerial, lock::Algorithm::Hra, lock::Algorithm::Era}) {
        rtl::Module locked = original.clone();
        lock::LockEngine engine{locked, lock::PairTable::fixed()};
        const int budget = std::max(
            1, static_cast<int>(budgetFraction *
                                static_cast<double>(engine.initialLockableOps())));
        lock::lockWithAlgorithm(engine, algorithm, budget, rng);

        const auto result =
            attack::oracleGuidedAttack(original, locked, engine.records(), config, rng);
        table.addRow({name, std::string{lock::algorithmName(algorithm)},
                      std::to_string(result.keyBits), support::formatDouble(result.kpa, 2),
                      algorithm == lock::Algorithm::Era ? "SnapShot fails (~50%)"
                                                        : "SnapShot succeeds"});
      }
    }
    bench::emit(table, csv);
  });
}
