// B-VER — quantifies §2.1 "Verification is expensive": verification cost
// scales with program size and path count (the verifier simulates every
// execution path), and the limits that keep it tractable are exactly the
// expressiveness restrictions the paper complains about. The comparator is
// the safex load path: one signature check + import fixup, independent of
// program size or shape.
//
// `verification_cost --json PATH` skips the timing benchmarks and instead
// writes the relational cost study (BENCH_relational.json): verifier
// explored-state counts vs staticcheck fixpoint iterations on the
// branch-diamond and spill-heavy families, with staticcheck run both with
// and without the zone/memory domains so the precision and cost of
// relational reasoning are visible per family.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/benchutil.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/verifier.h"
#include "src/staticcheck/check.h"
#include "src/xbase/strfmt.h"

namespace {

ebpf::VerifyOptions DefaultVerifyOptions(safex::System& rig) {
  ebpf::VerifyOptions opts;
  opts.version = rig.kernel.version();
  opts.privileged = true;
  opts.faults = &rig.bpf.faults();
  return opts;
}

void BM_VerifyStraightLine(benchmark::State& state) {
  safex::System rig;
  auto prog = analysis::BuildStraightLine(
      static_cast<xbase::u32>(state.range(0)));
  const auto opts = DefaultVerifyOptions(rig);
  xbase::u64 insns = 0;
  for (auto _ : state) {
    auto result =
        ebpf::Verify(prog.value(), rig.bpf.maps(), rig.bpf.helpers(), opts);
    insns = result.ok() ? result.value().stats.insns_processed : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["insns_processed"] = static_cast<double>(insns);
}
BENCHMARK(BM_VerifyStraightLine)->Arg(64)->Arg(512)->Arg(4096)->Arg(32768);

void BM_VerifyBranchDiamonds(benchmark::State& state) {
  safex::System rig;
  auto prog = analysis::BuildBranchDiamonds(
      static_cast<xbase::u32>(state.range(0)));
  const auto opts = DefaultVerifyOptions(rig);
  xbase::u64 states_explored = 0;
  xbase::u64 insns = 0;
  bool accepted = true;
  for (auto _ : state) {
    auto result =
        ebpf::Verify(prog.value(), rig.bpf.maps(), rig.bpf.helpers(), opts);
    accepted = result.ok();
    if (result.ok()) {
      states_explored = result.value().stats.states_explored;
      insns = result.value().stats.insns_processed;
    }
    benchmark::DoNotOptimize(result);
  }
  state.counters["paths_explored"] = static_cast<double>(states_explored);
  state.counters["insns_processed"] = static_cast<double>(insns);
  state.counters["accepted"] = accepted ? 1 : 0;
}
// 2^20 paths exceeds the 1M insn budget: the verifier gives up — a correct
// program rejected purely for its shape (the paper's scalability wall).
BENCHMARK(BM_VerifyBranchDiamonds)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_VerifyCountedLoop(benchmark::State& state) {
  safex::System rig;
  auto prog = analysis::BuildCountedLoop(
      static_cast<xbase::u32>(state.range(0)));
  const auto opts = DefaultVerifyOptions(rig);
  xbase::u64 insns = 0;
  bool accepted = true;
  for (auto _ : state) {
    auto result =
        ebpf::Verify(prog.value(), rig.bpf.maps(), rig.bpf.helpers(), opts);
    accepted = result.ok();
    if (result.ok()) {
      insns = result.value().stats.insns_processed;
    }
    benchmark::DoNotOptimize(result);
  }
  state.counters["insns_processed"] = static_cast<double>(insns);
  state.counters["accepted"] = accepted ? 1 : 0;
}
// The verifier walks every loop iteration: cost is linear in the trip
// count even though the program is 8 instructions long. 300000 iterations
// blow the budget.
BENCHMARK(BM_VerifyCountedLoop)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(300000);

// The safex comparator: signature validation + load-time fixup. Constant,
// regardless of what the extension does.
void BM_SafexSignedLoad(benchmark::State& state) {
  safex::System rig;
  safex::Toolchain toolchain(safex::System::VendorKey());
  safex::ExtensionManifest manifest;
  manifest.name = "bench-ext";
  manifest.version = "1.0";
  manifest.caps = {safex::Capability::kMapAccess,
                   safex::Capability::kTracing};
  manifest.imports = {"kcrate.map_lookup", "kcrate.map_update",
                      "kcrate.trace"};
  // Code identity scaled with the "program size" arg: hashing is the only
  // size-dependent cost in the whole load path.
  std::vector<xbase::u8> code(static_cast<size_t>(state.range(0)) * 8, 0xab);
  auto artifact = toolchain.Build(
      manifest,
      []() {
        struct Nop : safex::Extension {
          xbase::Result<xbase::u64> Run(safex::Ctx&) override {
            return xbase::u64{0};
          }
        };
        return std::make_unique<Nop>();
      },
      code);
  for (auto _ : state) {
    auto id = rig.ext_loader->Load(artifact.value());
    benchmark::DoNotOptimize(id);
  }
}
BENCHMARK(BM_SafexSignedLoad)->Arg(64)->Arg(4096)->Arg(32768);

// Toolchain-side cost (runs in userspace, off the kernel's critical path).
void BM_SafexToolchainBuild(benchmark::State& state) {
  safex::System rig;
  safex::Toolchain toolchain(safex::System::VendorKey());
  safex::ExtensionManifest manifest;
  manifest.name = "bench-ext";
  manifest.version = "1.0";
  std::vector<xbase::u8> code(static_cast<size_t>(state.range(0)) * 8, 0xab);
  for (auto _ : state) {
    auto artifact = toolchain.Build(
        manifest,
        []() {
          struct Nop : safex::Extension {
            xbase::Result<xbase::u64> Run(safex::Ctx&) override {
              return xbase::u64{0};
            }
          };
          return std::make_unique<Nop>();
        },
        code);
    benchmark::DoNotOptimize(artifact);
  }
}
BENCHMARK(BM_SafexToolchainBuild)->Arg(64)->Arg(32768);

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
  const int fd = benchutil::MustCreateArrayMap(rig, "relcost", 64, 4);
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

int RunRelCostStudy(const char* path) {
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

  std::vector<RelCostRow> rows;
  for (const Family& family : kFamilies) {
    for (const xbase::u32 param : family.params) {
      auto row = MeasureRelCost(family.name, param, family.build);
      if (!row.ok()) {
        std::fprintf(stderr, "verification_cost: %s/%u: %s\n", family.name,
                     param, row.status().ToString().c_str());
        return 1;
      }
      rows.push_back(std::move(row).value());
    }
  }

  std::string json = "{\n  \"bench\": \"relational_cost\",\n  \"rows\": [\n";
  for (xbase::usize i = 0; i < rows.size(); ++i) {
    const RelCostRow& r = rows[i];
    json += xbase::StrFormat(
        "    {\"family\": \"%s\", \"param\": %u, \"insns\": %u, "
        "\"verifier\": {\"accepts\": %s, \"states_explored\": %llu, "
        "\"insns_processed\": %llu}, "
        "\"staticcheck_relational\": {\"complete\": %s, \"iterations\": %u, "
        "\"errors\": %zu, \"warnings\": %zu}, "
        "\"staticcheck_intervals\": {\"complete\": %s, \"iterations\": %u, "
        "\"errors\": %zu, \"warnings\": %zu}}%s\n",
        r.family.c_str(), r.param, r.insns,
        r.verifier_accepts ? "true" : "false",
        static_cast<unsigned long long>(r.states_explored),
        static_cast<unsigned long long>(r.insns_processed),
        r.rel_complete ? "true" : "false", r.rel_iterations, r.rel_errors,
        r.rel_warnings, r.intv_complete ? "true" : "false",
        r.intv_iterations, r.intv_errors, r.intv_warnings,
        i + 1 < rows.size() ? "," : "");
  }
  json += "  ]\n}\n";

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "verification_cost: cannot write %s\n", path);
    return 1;
  }
  out << json;
  std::printf("%-18s %5s %6s %9s %9s %12s %12s %9s %9s\n", "family", "param",
              "insns", "verifier", "states", "rel-iters", "intv-iters",
              "rel-err", "intv-err");
  for (const RelCostRow& r : rows) {
    std::printf("%-18s %5u %6u %9s %9llu %12u %12u %9zu %9zu\n",
                r.family.c_str(), r.param, r.insns,
                r.verifier_accepts ? "accept" : "reject",
                static_cast<unsigned long long>(r.states_explored),
                r.rel_iterations, r.intv_iterations, r.rel_errors,
                r.intv_errors);
  }
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--json") == 0) {
    return RunRelCostStudy(argv[2]);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
