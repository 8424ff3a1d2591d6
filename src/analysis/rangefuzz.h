// rangefuzz: a three-oracle soundness fuzzer for the numeric abstract
// domains on both sides of the differential pair. For each seeded random
// ALU/branch/memory program it runs
//   1. staticcheck's range dataflow (path-insensitive reduced product),
//   2. the in-kernel verifier's range tracking (path-sensitive, possibly
//      with injected Table-1 defects), and
//   3. N concrete interpreter executions over boundary-biased map inputs
//      as ground truth,
// then checks every concrete register value against both analyses' per-pc
// claims (a value outside a claim is an unsoundness witness — the
// CVE-2020-8835 shape) and cross-checks the two static traces for disjoint
// claims and interval-width imprecision gaps.
#pragma once

#include <cmath>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/ebpf/prog.h"
#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace analysis {

// ---- fuzz-program generator --------------------------------------------

// The generator is exposed so other harnesses (the execution-engine
// equivalence test) can replay the exact corpus RunRangeFuzz would fuzz.

// Array-map value size every fuzz program is generated against.
inline constexpr xbase::u32 kRangeFuzzValueSize = 64;

// The per-program seeds RunRangeFuzz derives from `master_seed`, in
// schedule order.
std::vector<xbase::u64> FuzzProgramSeeds(xbase::u64 master_seed,
                                         xbase::u32 count);

// The deterministic seeded random program for `program_seed`: map-lookup
// prologue seeding unknown scalars from an array map at `map_fd`
// (kRangeFuzzValueSize-byte values), then `body_len` random ALU / forward
// branch / stack / map-access instructions. Memory-safe by construction.
xbase::Result<ebpf::Program> BuildFuzzProgram(xbase::u64 program_seed,
                                              int map_fd, xbase::u32 body_len,
                                              const std::string& name);

struct RangeFuzzOptions {
  xbase::u64 seed = 1;
  xbase::u32 programs = 100;
  xbase::u32 execs = 16;     // concrete executions per program
  xbase::u32 body_len = 24;  // random body instructions per program
  // Fault ids injected into the *verifier* oracle only; staticcheck and
  // the concrete interpreter never see them. With a Table-1 range fault
  // here, verifier-unsoundness findings are the expected outcome. An id
  // outside FaultRegistry::Catalog() is refused (InvalidArgument).
  std::vector<std::string> verifier_faults;
  // Nonzero: skip seed scheduling and fuzz exactly the one program this
  // per-program seed generates (the replay path findings print).
  xbase::u64 replay_program_seed = 0;
};

struct RangeFinding {
  enum class Kind : xbase::u8 {
    kStaticUnsound,    // concrete value escaped a staticcheck claim
    kVerifierUnsound,  // concrete value escaped a verifier claim
    kDivergence,       // the two analyses' claims share no value
    // Relational (difference-bound) variants of the same three oracles:
    kStaticRelUnsound,    // concrete ri - rj escaped a staticcheck bound
    kVerifierRelUnsound,  // concrete ri - rj escaped a verifier bound
    kRelDivergence,       // the two analyses' bounds on a pair contradict
  };
  Kind kind = Kind::kDivergence;
  xbase::u64 program_seed = 0;  // regenerate with --replay
  xbase::u32 prog_index = 0;
  xbase::u32 pc = 0;
  xbase::u8 reg = 0;
  std::string detail;  // claim vs concrete value / claim vs claim
  std::string disasm;  // full program disassembly for offline replay
};

std::string_view RangeFindingKindName(RangeFinding::Kind kind);

struct RangeFuzzStats {
  xbase::u32 programs = 0;
  xbase::u32 verifier_accepted = 0;     // programs the verifier oracle ran on
  xbase::u32 staticcheck_complete = 0;  // programs with a full fixpoint
  xbase::u64 executions = 0;
  xbase::u64 exec_insns = 0;
  xbase::u64 points_checked = 0;   // concrete (pc, reg) claim checks
  xbase::u64 points_compared = 0;  // scalar-vs-scalar static claim pairs
  xbase::u64 disjoint_points = 0;
  // Relational-claim counterparts.
  xbase::u64 rel_points_checked = 0;   // concrete (pc, i, j) bound checks
  xbase::u64 rel_points_compared = 0;  // finite bound pairs cross-checked
  xbase::u64 rel_contradictions = 0;
  // Imprecision gap, accumulated in log2 space (see
  // RangeCompareResult::width_ratio_sum): the geometric mean of
  // (staticcheck width + 1) / (verifier width + 1) over compared points.
  double width_ratio_sum = 0;
  double MeanWidthRatio() const {
    return points_compared == 0
               ? 1.0
               : std::exp2(width_ratio_sum /
                           static_cast<double>(points_compared));
  }
};

struct RangeFuzzReport {
  RangeFuzzStats stats;
  std::vector<RangeFinding> findings;

  bool StaticUnsound() const;
  bool VerifierUnsound() const;
  // Zero unsoundness witnesses against either analysis.
  bool Sound() const { return !StaticUnsound() && !VerifierUnsound(); }
};

xbase::Result<RangeFuzzReport> RunRangeFuzz(const RangeFuzzOptions& opts);

std::string FormatRangeFuzzReport(const RangeFuzzReport& report);

// ---- deterministic fault witnesses -----------------------------------------

// One row per injectable range or relational verifier fault: the exploit
// that fault admits and the map value that triggers it. Each row is
// verified under the clean and the faulted verifier, analyzed by
// staticcheck, executed concretely, and the two static traces are compared.
//
// Relational rows (reg-reg refinement, spill-width confusion, stale packet
// ranges) exercise memory and pointer state the interval traces cannot
// always see, so they also count relational contradictions and escapes,
// and their acceptance bar gains a third channel: the faulted verifier
// admitting a program staticcheck rejects (the diffcheck shape).
struct FaultWitness {
  std::string_view fault_id;
  const char* name;  // witness workload name
  xbase::Result<ebpf::Program> (*build)(int map_fd);
  bool relational;
  xbase::u32 value_size;  // array-map value bytes; 0 = no map
  xbase::u64 words[2];    // first 16 bytes of the map value (LE)
};

// The seven witnesses, range rows first. `rangefuzz --check-faults` and
// `--list-faults` both read this table.
std::span<const FaultWitness> FaultWitnesses();

struct FaultWitnessResult {
  FaultWitness witness;
  bool clean_verifier_rejects = false;
  bool faulted_verifier_accepts = false;
  bool witness_unsound = false;     // concrete escape of a faulted claim
  bool witness_divergence = false;  // disjoint or contradictory claims
  bool staticcheck_rejects = false; // error-severity finding on the witness
  // The acceptance bar: the fault surfaces as an unsoundness witness or as
  // trace divergence (or, on a relational row, as the differential).
  bool detected() const {
    return witness_unsound || witness_divergence ||
           (witness.relational && faulted_verifier_accepts &&
            staticcheck_rejects);
  }
};

xbase::Result<std::vector<FaultWitnessResult>> CheckFaultWitnesses(
    xbase::u32 execs = 8);

// The range table, a blank line, then the relational table.
std::string FormatFaultWitnessTables(
    const std::vector<FaultWitnessResult>& rows);

}  // namespace analysis
