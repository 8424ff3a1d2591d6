// B-VER — quantifies §2.1 "Verification is expensive": verification cost
// scales with program size and path count (the verifier simulates every
// execution path), and the limits that keep it tractable are exactly the
// expressiveness restrictions the paper complains about. The comparator is
// the safex load path: one signature check + import fixup, independent of
// program size or shape. Every case is 5 trials x 2 calls after one
// warm-up call (the budget-exhausting verify runs take ~0.6 s each).
//
// The bench's rows are the relational cost study: verifier explored-state
// counts vs staticcheck fixpoint iterations on the branch-diamond and
// spill-heavy families, with staticcheck run both with and without the
// zone/memory domains so the precision and cost of relational reasoning
// are visible per family. `--json PATH` also writes them, with the timed
// cases, to the BENCH_relational.json artifact.
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/verifier.h"
#include "src/staticcheck/check.h"
#include "src/xbase/strfmt.h"

namespace {

constexpr int kTrials = 5;
constexpr int kIters = 2;

// Times verification of `prog` and checks the verdict is `accepts`.
// Returns the fastest batch's ns per processed instruction (0 if rejected).
double TimeVerify(harness::Bench& bench, const std::string& name,
                  xbase::Result<ebpf::Program> (*build)(xbase::u32),
                  xbase::u32 arg, bool accepts) {
  safex::System rig;
  auto prog = build(arg);
  if (!prog.ok()) {
    std::fprintf(stderr, "verification_cost: build %s: %s\n", name.c_str(),
                 prog.status().ToString().c_str());
    std::exit(1);
  }
  ebpf::VerifyOptions opts;
  opts.version = rig.kernel.version();
  opts.privileged = true;
  opts.faults = &rig.bpf.faults();
  xbase::u64 accepted = 0;
  ebpf::VerifyStats stats;
  const harness::Stats timing = bench.Time(
      xbase::StrFormat("%s/%u", name.c_str(), arg), kTrials, kIters,
      [&] {
        auto result =
            ebpf::Verify(prog.value(), rig.bpf.maps(), rig.bpf.helpers(), opts);
        accepted += result.ok() ? 1 : 0;
        if (result.ok()) {
          stats = result.value().stats;
        }
      },
      [&](harness::Fields& counters, xbase::u64 calls) {
        counters.emplace_back("paths_explored", stats.states_explored);
        counters.emplace_back("insns_processed", stats.insns_processed);
        counters.emplace_back("accepted", accepts);
        return accepted == (accepts ? calls : 0)
                   ? xbase::Status::Ok()
                   : xbase::Internal(accepts ? "verifier rejected it"
                                             : "verifier accepted it");
      });
  return stats.insns_processed == 0
             ? 0
             : timing.min_ns / static_cast<double>(stats.insns_processed);
}

std::unique_ptr<safex::Extension> MakeNop() {
  struct Nop : safex::Extension {
    xbase::Result<xbase::u64> Run(safex::Ctx&) override {
      return xbase::u64{0};
    }
  };
  return std::make_unique<Nop>();
}

safex::ExtensionManifest BenchManifest() {
  safex::ExtensionManifest manifest;
  manifest.name = "bench-ext";
  manifest.version = "1.0";
  return manifest;
}

// The safex comparator: signature validation + load-time fixup. Constant,
// regardless of what the extension does. Code identity is scaled with the
// "program size" arg: hashing is the only size-dependent cost in the whole
// load path.
void TimeSignedLoad(harness::Bench& bench, xbase::u32 size) {
  safex::System rig;
  safex::Toolchain toolchain(safex::System::VendorKey());
  safex::ExtensionManifest manifest = BenchManifest();
  manifest.caps = {safex::Capability::kMapAccess,
                   safex::Capability::kTracing};
  manifest.imports = {"kcrate.map_lookup", "kcrate.map_update",
                      "kcrate.trace"};
  const std::vector<xbase::u8> code(static_cast<size_t>(size) * 8, 0xab);
  auto artifact = toolchain.Build(manifest, MakeNop, code);
  if (!artifact.ok()) {
    std::fprintf(stderr, "verification_cost: %s\n",
                 artifact.status().ToString().c_str());
    std::exit(1);
  }
  xbase::u64 failed = 0;
  bench.Time(
      xbase::StrFormat("SafexSignedLoad/%u", size), kTrials, kIters,
      [&] { failed += rig.ext_loader->Load(artifact.value()).ok() ? 0 : 1; },
      [&](harness::Fields&, xbase::u64) {
        return failed == 0 ? xbase::Status::Ok()
                           : xbase::Internal("a signed load failed");
      });
}

// Toolchain-side cost (runs in userspace, off the kernel's critical path).
void TimeToolchainBuild(harness::Bench& bench, xbase::u32 size) {
  safex::Toolchain toolchain(safex::System::VendorKey());
  const safex::ExtensionManifest manifest = BenchManifest();
  const std::vector<xbase::u8> code(static_cast<size_t>(size) * 8, 0xab);
  xbase::u64 failed = 0;
  bench.Time(
      xbase::StrFormat("SafexToolchainBuild/%u", size), kTrials, kIters,
      [&] { failed += toolchain.Build(manifest, MakeNop, code).ok() ? 0 : 1; },
      [&](harness::Fields&, xbase::u64) {
        return failed == 0 ? xbase::Status::Ok()
                           : xbase::Internal("a toolchain build failed");
      });
}

// ---- relational cost study (--json) ----------------------------------------

struct RelCostRow {
  std::string family;
  xbase::u32 param = 0;
  xbase::u32 insns = 0;
  // Verifier: path-sensitive exploration.
  bool verifier_accepts = false;
  xbase::u64 states_explored = 0;
  xbase::u64 insns_processed = 0;
  // staticcheck with zones + memory domain.
  bool rel_complete = false;
  xbase::u32 rel_iterations = 0;
  xbase::usize rel_errors = 0;
  xbase::usize rel_warnings = 0;
  // staticcheck intervals only (enable_relational = false).
  bool intv_complete = false;
  xbase::u32 intv_iterations = 0;
  xbase::usize intv_errors = 0;
  xbase::usize intv_warnings = 0;
};

xbase::Result<RelCostRow> MeasureRelCost(
    const std::string& family, xbase::u32 param,
    xbase::Result<ebpf::Program> (*build)(xbase::u32, int)) {
  safex::System rig;
  const int fd = harness::MustCreateArrayMap(rig, "relcost", 64, 4);
  XB_ASSIGN_OR_RETURN(ebpf::Program prog, build(param, fd));

  RelCostRow row;
  row.family = family;
  row.param = param;
  row.insns = static_cast<xbase::u32>(prog.insns.size());

  ebpf::VerifyOptions vopts;
  vopts.version = rig.kernel.version();
  vopts.privileged = true;
  vopts.faults = &rig.bpf.faults();
  auto verdict = ebpf::Verify(prog, rig.bpf.maps(), rig.bpf.helpers(), vopts);
  row.verifier_accepts = verdict.ok();
  if (verdict.ok()) {
    row.states_explored = verdict.value().stats.states_explored;
    row.insns_processed = verdict.value().stats.insns_processed;
  }

  for (const bool relational : {true, false}) {
    staticcheck::CheckOptions copts;
    copts.maps = &rig.bpf.maps();
    copts.helpers = &rig.bpf.helpers();
    copts.callgraph = &rig.kernel.callgraph();
    copts.enable_relational = relational;
    XB_ASSIGN_OR_RETURN(staticcheck::Report report,
                        staticcheck::RunChecks(prog, copts));
    if (relational) {
      row.rel_complete = report.analysis_complete;
      row.rel_iterations = report.dataflow_iterations;
      row.rel_errors = report.errors();
      row.rel_warnings = report.findings.size() - report.errors();
    } else {
      row.intv_complete = report.analysis_complete;
      row.intv_iterations = report.dataflow_iterations;
      row.intv_errors = report.errors();
      row.intv_warnings = report.findings.size() - report.errors();
    }
  }
  return row;
}

xbase::Result<ebpf::Program> BuildRelGuardFamily(xbase::u32, int fd) {
  return analysis::BuildRelGuard(fd);
}

// Runs the study, printing its table and recording its rows; false if a
// family failed to build or analyze.
bool RunRelCostStudy(harness::Bench& bench) {
  struct Family {
    const char* name;
    xbase::Result<ebpf::Program> (*build)(xbase::u32, int);
    std::vector<xbase::u32> params;
  };
  // rel-guard is the precision witness (provable by zones, not by
  // intervals on either side); the two scaling families contrast the
  // verifier's per-path state count with staticcheck's per-join iteration
  // count on branch-heavy and spill-heavy shapes.
  const Family kFamilies[] = {
      {"rel-guard", BuildRelGuardFamily, {0}},
      {"reg-reg-diamonds", analysis::BuildRegRegDiamonds, {4, 8, 12, 16}},
      {"spill-heavy", analysis::BuildSpillHeavy, {4, 8, 16, 32}},
  };

  std::printf("%-18s %5s %6s %9s %9s %12s %12s %9s %9s\n", "family", "param",
              "insns", "verifier", "states", "rel-iters", "intv-iters",
              "rel-err", "intv-err");
  for (const Family& family : kFamilies) {
    for (const xbase::u32 param : family.params) {
      auto row = MeasureRelCost(family.name, param, family.build);
      if (!row.ok()) {
        std::fprintf(stderr, "verification_cost: %s/%u: %s\n", family.name,
                     param, row.status().ToString().c_str());
        return false;
      }
      const RelCostRow& r = row.value();
      std::printf("%-18s %5u %6u %9s %9llu %12u %12u %9zu %9zu\n",
                  r.family.c_str(), r.param, r.insns,
                  r.verifier_accepts ? "accept" : "reject",
                  static_cast<unsigned long long>(r.states_explored),
                  r.rel_iterations, r.intv_iterations, r.rel_errors,
                  r.intv_errors);
      bench.Row({{"family", r.family},
                 {"param", r.param},
                 {"insns", r.insns},
                 {"verifier_accepts", r.verifier_accepts},
                 {"verifier_states_explored", r.states_explored},
                 {"verifier_insns_processed", r.insns_processed},
                 {"relational_complete", r.rel_complete},
                 {"relational_iterations", r.rel_iterations},
                 {"relational_errors", r.rel_errors},
                 {"relational_warnings", r.rel_warnings},
                 {"intervals_complete", r.intv_complete},
                 {"intervals_iterations", r.intv_iterations},
                 {"intervals_errors", r.intv_errors},
                 {"intervals_warnings", r.intv_warnings}});
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Bench bench("verification_cost", argc, argv);
  harness::Title("B-VER — verification cost vs the safex load path");
  double straight_ns_per_insn = 0;
  for (const xbase::u32 len : {64, 512, 4096, 32768}) {
    const double ns_per_insn = TimeVerify(
        bench, "VerifyStraightLine", analysis::BuildStraightLine, len, true);
    if (len == 4096) {
      straight_ns_per_insn = ns_per_insn;
    }
  }
  // The verifier walks every loop iteration: cost is linear in the trip
  // count even though the program is 8 instructions long. 300000
  // iterations blow the budget.
  double loop_ns_per_insn = 0;
  for (const xbase::u32 trips : {100, 1000, 10000, 100000, 300000}) {
    const double ns_per_insn =
        TimeVerify(bench, "VerifyCountedLoop", analysis::BuildCountedLoop,
                   trips, trips < 300000);
    if (trips == 1000) {
      loop_ns_per_insn = ns_per_insn;
    }
  }
  // What a processed instruction costs must not depend much on the
  // program's shape: every four instructions the loop forks at its branch
  // and checks the stored states at its head, while the straight line does
  // neither. The two sweeps run back to back, milliseconds apart, so both
  // cases see the same host load, and the ratio is comparable across
  // hosts.
  const double shape_ratio = loop_ns_per_insn / straight_ns_per_insn;
  bench.Gate("counted_loop_1000_vs_straight_line_4096_ns_per_insn", "min",
             shape_ratio, 2.0, shape_ratio <= 2.0);
  // 2^20 paths exceeds the 1M insn budget: the verifier gives up — a
  // correct program rejected purely for its shape (the paper's
  // scalability wall).
  for (const xbase::u32 branches : {4, 8, 12, 16, 20}) {
    TimeVerify(bench, "VerifyBranchDiamonds", analysis::BuildBranchDiamonds,
               branches, branches < 20);
  }
  for (const xbase::u32 size : {64, 4096, 32768}) {
    TimeSignedLoad(bench, size);
  }
  for (const xbase::u32 size : {64, 32768}) {
    TimeToolchainBuild(bench, size);
  }

  harness::Title("Relational cost study: verifier states vs staticcheck "
                 "fixpoint iterations");
  if (!RunRelCostStudy(bench)) {
    return 1;
  }
  return bench.Finish();
}
