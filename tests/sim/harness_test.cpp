#include "sim/harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/assure.hpp"
#include "designs/registry.hpp"
#include "rtl/builder.hpp"
#include "sim/compiled_sim.hpp"

namespace rtlock::sim {
namespace {

rtl::Module makeAdder(const std::string& name, bool buggy = false) {
  rtl::ModuleBuilder b{name};
  const auto a = b.input("a", 8);
  const auto c = b.input("b", 8);
  const auto y = b.output("y", 8);
  b.assign(y, buggy ? b.sub(b.ref(a), b.ref(c)) : b.add(b.ref(a), b.ref(c)));
  return b.take();
}

/// Correctly locked adder: key bit 1 selects the true branch.
rtl::Module makeLockedAdder(bool correctKeyIsOne) {
  rtl::ModuleBuilder b{"adder_locked"};
  const auto a = b.input("a", 8);
  const auto c = b.input("b", 8);
  const auto y = b.output("y", 8);
  auto real = b.add(b.ref(a), b.ref(c));
  auto dummy = b.sub(b.ref(a), b.ref(c));
  if (correctKeyIsOne) {
    b.assign(y, b.mux(rtl::makeKeyRef(0), std::move(real), std::move(dummy)));
  } else {
    b.assign(y, b.mux(rtl::makeKeyRef(0), std::move(dummy), std::move(real)));
  }
  rtl::Module m = b.take();
  m.allocateKeyBits(1);
  return m;
}

/// Free-running counter: y advances by `step` on every clock edge.
rtl::Module makeCounter(const std::string& name, std::uint64_t step) {
  rtl::ModuleBuilder b{name};
  const auto clk = b.input("clk", 1);
  const auto q = b.reg("q", 8);
  const auto y = b.output("y", 8);
  b.regAssign(clk, q, b.add(b.ref(q), b.lit(step, 8)));
  b.assign(y, b.ref(q));
  return b.take();
}

TEST(HarnessTest, IdenticalModulesAreEquivalent) {
  support::Rng rng{1};
  const auto golden = makeAdder("golden");
  const auto candidate = makeAdder("candidate");
  EXPECT_TRUE(functionallyEquivalent(golden, candidate, BitVector{1}, {}, rng));
}

TEST(HarnessTest, BuggyModuleIsDetected) {
  support::Rng rng{2};
  const auto golden = makeAdder("golden");
  const auto buggy = makeAdder("buggy", /*buggy=*/true);
  const auto mismatch = findMismatch(golden, buggy, BitVector{1}, {}, rng);
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_EQ(mismatch->output, "y");
}

TEST(HarnessTest, LockedModuleEquivalentUnderCorrectKey) {
  support::Rng rng{3};
  const auto golden = makeAdder("golden");
  EXPECT_TRUE(
      functionallyEquivalent(golden, makeLockedAdder(true), BitVector{1, 1}, {}, rng));
  EXPECT_TRUE(
      functionallyEquivalent(golden, makeLockedAdder(false), BitVector{0, 1}, {}, rng));
}

TEST(HarnessTest, LockedModuleDivergesUnderWrongKey) {
  support::Rng rng{4};
  const auto golden = makeAdder("golden");
  EXPECT_FALSE(
      functionallyEquivalent(golden, makeLockedAdder(true), BitVector{0, 1}, {}, rng));
}

TEST(HarnessTest, CorruptionZeroForCorrectKey) {
  support::Rng rng{5};
  const auto golden = makeAdder("golden");
  const auto locked = makeLockedAdder(true);
  EXPECT_DOUBLE_EQ(outputCorruption(golden, locked, BitVector{1, 1}, {}, rng), 0.0);
}

TEST(HarnessTest, CorruptionPositiveForWrongKey) {
  support::Rng rng{6};
  const auto golden = makeAdder("golden");
  const auto locked = makeLockedAdder(true);
  const double corruption = outputCorruption(golden, locked, BitVector{0, 1}, {}, rng);
  EXPECT_GT(corruption, 0.1);  // add vs sub differ on most random stimuli
}

TEST(HarnessTest, SequentialDesignsCompared) {
  // Two counters, one off by one: divergence appears after a clock edge.
  support::Rng rng{7};
  EXPECT_TRUE(
      functionallyEquivalent(makeCounter("c1", 1), makeCounter("c2", 1), BitVector{1}, {}, rng));
  EXPECT_FALSE(
      functionallyEquivalent(makeCounter("c1", 1), makeCounter("c3", 2), BitVector{1}, {}, rng));
}

// ---- parity with a scalar replay -----------------------------------------
//
// The Harness evaluates 64 vectors (or (key, vector) pairs) per bit-sliced
// tape pass.  Its oracle is ScalarReplay: the serial definition of both
// calls on the scalar tape (sim::CompiledSim), one vector at a time, drawing
// stimuli from the rng in vector -> cycle -> input order.  With the same rng
// seed both must report identical corruption values and the identical first
// mismatch.

class ScalarReplay {
 public:
  ScalarReplay(const rtl::Module& golden, const rtl::Module& candidate)
      : golden_(golden),
        candidate_(candidate),
        goldenLocked_(golden.keyWidth() > 0),
        candidateLocked_(candidate.keyWidth() > 0) {
    std::optional<rtl::SignalId> clock;
    for (const auto& process : golden.processes()) {
      if (process->kind == rtl::ProcessKind::Sequential) {
        clock = process->clock;
        break;
      }
    }
    for (const rtl::SignalId id : golden.ports()) {
      const auto& signal = golden.signal(id);
      const Port port{id, *candidate.findSignal(signal.name), signal.width, signal.name};
      if (signal.dir != rtl::PortDir::Input) {
        outputs_.push_back(port);
      } else if (clock == id) {
        clock_ = port;
      } else {
        inputs_.push_back(port);
      }
    }
  }

  std::optional<Mismatch> findMismatch(const BitVector& key, const EquivalenceOptions& options,
                                       support::Rng& rng) {
    for (int vector = 0; vector < options.vectors; ++vector) {
      begin(key, /*keyGolden=*/true);
      for (int cycle = 0; cycle < cycles(options); ++cycle) {
        drive(rng);
        if (const auto name = firstDifferingOutput()) return Mismatch{*name, vector, cycle};
        if (clock_.has_value()) {
          clockEdge();
          if (const auto name = firstDifferingOutput()) return Mismatch{*name, vector, cycle};
        }
      }
    }
    return std::nullopt;
  }

  double outputCorruption(const BitVector& key, const EquivalenceOptions& options,
                          support::Rng& rng) {
    std::int64_t differing = 0;
    std::int64_t total = 0;
    for (int vector = 0; vector < options.vectors; ++vector) {
      // The golden module keeps its zero key: corruption is measured against
      // the unlocked behaviour.
      begin(key, /*keyGolden=*/false);
      for (int cycle = 0; cycle < cycles(options); ++cycle) {
        drive(rng);
        for (const Port& port : outputs_) {
          differing += BitVector::hammingDistance(golden_.value(port.golden),
                                                  candidate_.value(port.candidate));
          total += port.width;
        }
        if (clock_.has_value()) clockEdge();
      }
    }
    return total == 0 ? 0.0 : static_cast<double>(differing) / static_cast<double>(total);
  }

 private:
  struct Port {
    rtl::SignalId golden = 0;
    rtl::SignalId candidate = 0;
    int width = 1;
    std::string name;
  };

  int cycles(const EquivalenceOptions& options) const {
    return clock_.has_value() ? options.cyclesPerVector : 1;
  }

  void begin(const BitVector& key, bool keyGolden) {
    golden_.reset();
    candidate_.reset();
    if (candidateLocked_) candidate_.setKey(key);
    if (keyGolden && goldenLocked_) golden_.setKey(key);
  }

  void drive(support::Rng& rng) {
    for (const Port& port : inputs_) {
      const BitVector stimulus = BitVector::random(port.width, rng);
      golden_.setValue(port.golden, stimulus);
      candidate_.setValue(port.candidate, stimulus);
    }
    golden_.settle();
    candidate_.settle();
  }

  void clockEdge() {
    golden_.clockEdge(clock_->golden);
    candidate_.clockEdge(clock_->candidate);
  }

  std::optional<std::string> firstDifferingOutput() const {
    for (const Port& port : outputs_) {
      if (!(golden_.value(port.golden) == candidate_.value(port.candidate))) return port.name;
    }
    return std::nullopt;
  }

  CompiledSim golden_;
  CompiledSim candidate_;
  bool goldenLocked_ = false;
  bool candidateLocked_ = false;
  std::vector<Port> inputs_;  // clock excluded
  std::vector<Port> outputs_;
  std::optional<Port> clock_;
};

struct LockedFir {
  rtl::Module module;
  BitVector correctKey;
};

LockedFir makeLockedFir() {
  rtl::Module module = designs::makeBenchmark("FIR");
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  support::Rng lockRng{41};
  lock::assureRandomLock(engine, std::max(1, engine.initialLockableOps() / 2), lockRng);
  BitVector key{module.keyWidth()};
  for (const lock::LockRecord& record : engine.records()) {
    key.setBit(record.keyIndex, record.keyValue);
  }
  return {std::move(module), std::move(key)};
}

TEST(HarnessBackendTest, CorruptionIdenticalAcrossBackends) {
  const rtl::Module golden = designs::makeBenchmark("FIR");
  const rtl::Module locked = makeLockedFir().module;
  ScalarReplay scalar{golden, locked};
  Harness sliced{golden, locked};
  EquivalenceOptions options;
  options.vectors = 70;  // spills into a second 64-lane chunk
  options.cyclesPerVector = 3;
  support::Rng keyRng{42};
  for (int trial = 0; trial < 4; ++trial) {
    const BitVector key = BitVector::random(locked.keyWidth(), keyRng);
    support::Rng scalarRng{100 + static_cast<std::uint64_t>(trial)};
    support::Rng slicedRng{100 + static_cast<std::uint64_t>(trial)};
    EXPECT_DOUBLE_EQ(scalar.outputCorruption(key, options, scalarRng),
                     sliced.outputCorruption(key, options, slicedRng));
  }
}

TEST(HarnessBackendTest, FirstMismatchIdenticalAcrossBackends) {
  const rtl::Module golden = designs::makeBenchmark("FIR");
  const LockedFir fir = makeLockedFir();
  const rtl::Module& locked = fir.module;
  ScalarReplay scalar{golden, locked};
  Harness sliced{golden, locked};
  EquivalenceOptions options;
  options.vectors = 70;
  options.cyclesPerVector = 3;
  support::Rng keyRng{43};
  const BitVector& correct = fir.correctKey;  // trial 0: the no-mismatch case
  for (int trial = 0; trial < 4; ++trial) {
    const BitVector key =
        trial == 0 ? correct : BitVector::random(locked.keyWidth(), keyRng);
    support::Rng scalarRng{200 + static_cast<std::uint64_t>(trial)};
    support::Rng slicedRng{200 + static_cast<std::uint64_t>(trial)};
    const auto expected = scalar.findMismatch(key, options, scalarRng);
    const auto actual = sliced.findMismatch(key, options, slicedRng);
    ASSERT_EQ(expected.has_value(), actual.has_value()) << "trial " << trial;
    if (expected.has_value()) {
      EXPECT_EQ(expected->output, actual->output);
      EXPECT_EQ(expected->vector, actual->vector);
      EXPECT_EQ(expected->cycle, actual->cycle);
    }
  }
}

TEST(HarnessBackendTest, CorruptionBatchMatchesPerKeyCalls) {
  const rtl::Module golden = designs::makeBenchmark("FIR");
  const rtl::Module locked = makeLockedFir().module;
  EquivalenceOptions options;
  options.vectors = 5;  // 20 keys x 5 vectors = 100 lanes across two chunks
  options.cyclesPerVector = 3;
  support::Rng keyRng{44};
  std::vector<BitVector> keys;
  for (int k = 0; k < 20; ++k) keys.push_back(BitVector::random(locked.keyWidth(), keyRng));

  // Per-key values over identical stimuli: the scalar replay and the
  // Harness's own single-key call.
  ScalarReplay scalar{golden, locked};
  Harness harness{golden, locked};
  std::vector<double> expected;
  for (const BitVector& key : keys) {
    support::Rng scalarRng{300};
    support::Rng slicedRng{300};
    expected.push_back(scalar.outputCorruption(key, options, scalarRng));
    EXPECT_DOUBLE_EQ(harness.outputCorruption(key, options, slicedRng), expected.back());
  }

  support::Rng rng{300};
  const auto batch = harness.outputCorruptionBatch(keys, options, rng);
  ASSERT_EQ(batch.size(), keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    EXPECT_DOUBLE_EQ(batch[k], expected[k]) << "key " << k;
  }
}

TEST(HarnessBackendTest, StaleKeysNeverLeakAcrossCalls) {
  // Regression pin: after measuring under a wrong key, a fresh call on the
  // same harness with the correct key must see zero corruption — no key
  // planes or arena words may survive from the previous sweep.
  const rtl::Module golden = designs::makeBenchmark("FIR");
  const LockedFir fir = makeLockedFir();
  const rtl::Module& locked = fir.module;
  ScalarReplay scalar{golden, locked};
  Harness harness{golden, locked};
  const BitVector& correct = fir.correctKey;
  BitVector wrong = fir.correctKey;
  for (int bit = 0; bit < locked.keyWidth(); ++bit) wrong.setBit(bit, !wrong.bit(bit));
  EquivalenceOptions options;
  options.cyclesPerVector = 16;  // past the FIR pipeline depth
  support::Rng rng1{400};
  support::Rng scalarRng1{400};
  const double wrongCorruption = harness.outputCorruption(wrong, options, rng1);
  ASSERT_GT(wrongCorruption, 0.0);
  EXPECT_DOUBLE_EQ(wrongCorruption, scalar.outputCorruption(wrong, options, scalarRng1));
  support::Rng rng2{401};
  EXPECT_DOUBLE_EQ(harness.outputCorruption(correct, options, rng2), 0.0);
  support::Rng rng3{402};
  EXPECT_FALSE(harness.findMismatch(correct, options, rng3).has_value());
  support::Rng scalarRng3{402};
  EXPECT_FALSE(scalar.findMismatch(correct, options, scalarRng3).has_value());
}

// ---- option contract -----------------------------------------------------
//
// A call that compares no cycle of no vector would report "equivalent" (and
// the batch path would divide by zero), so the Harness rejects it.

void expectEveryCallRejects(Harness& harness, const BitVector& key,
                            const EquivalenceOptions& options) {
  support::Rng rng{9};
  const std::vector<BitVector> keys{key, key};
  EXPECT_THROW((void)harness.findMismatch(key, options, rng), support::ContractViolation);
  EXPECT_THROW((void)harness.outputCorruption(key, options, rng), support::ContractViolation);
  EXPECT_THROW((void)harness.outputCorruptionBatch(keys, options, rng),
               support::ContractViolation);
}

TEST(HarnessTest, ZeroOrNegativeVectorsAreContractViolations) {
  const auto golden = makeAdder("golden");
  const auto locked = makeLockedAdder(true);
  Harness combinational{golden, locked};
  const auto counter = makeCounter("c1", 1);
  const auto twin = makeCounter("c2", 1);
  Harness clocked{counter, twin};
  for (const int vectors : {0, -1}) {
    EquivalenceOptions options;
    options.vectors = vectors;
    expectEveryCallRejects(combinational, BitVector{1, 1}, options);
    expectEveryCallRejects(clocked, BitVector{1}, options);
  }
}

TEST(HarnessTest, ZeroOrNegativeCyclesOnAClockedDesignAreContractViolations) {
  const auto counter = makeCounter("c1", 1);
  const auto faster = makeCounter("c2", 2);
  Harness clocked{counter, faster};
  for (const int cycles : {0, -1}) {
    EquivalenceOptions options;
    options.cyclesPerVector = cycles;
    expectEveryCallRejects(clocked, BitVector{1}, options);
  }
}

TEST(HarnessTest, CombinationalDesignsIgnoreCyclesPerVector) {
  // One cycle per vector regardless: the option only shapes clocked runs.
  const auto golden = makeAdder("golden");
  const auto buggy = makeAdder("buggy", /*buggy=*/true);
  Harness harness{golden, buggy};
  EquivalenceOptions options;
  options.cyclesPerVector = 0;
  support::Rng rng{10};
  EXPECT_TRUE(harness.findMismatch(BitVector{1}, options, rng).has_value());
  EXPECT_GT(harness.outputCorruption(BitVector{1}, options, rng), 0.0);
}

TEST(HarnessTest, MissingPortIsContractViolation) {
  support::Rng rng{8};
  const auto golden = makeAdder("golden");
  rtl::ModuleBuilder b{"narrow"};
  b.input("a", 8);
  const auto y = b.output("y", 8);
  b.assign(y, b.lit(0, 8));
  const auto narrow = b.take();
  EXPECT_THROW((void)findMismatch(golden, narrow, BitVector{1}, {}, rng),
               support::ContractViolation);
}

}  // namespace
}  // namespace rtlock::sim
