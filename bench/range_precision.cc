// RANGE-PRECISION — how close the path-insensitive staticcheck range
// dataflow gets to the verifier's path-sensitive intervals, and what the
// three-oracle fuzz campaign costs. Two measurement sources:
//
//   corpus  the fixed workload programs: both range traces, compared per
//           (pc, reg) with the width-ratio metric (1.0 = staticcheck
//           matched the verifier's interval exactly; >1 = wider);
//   fuzz    one seeded rangefuzz campaign: claim checks against concrete
//           execution, compared points, disjoint count, wall time.
//
// Default: human-readable table. `--json PATH` writes the BENCH_range.json
// CI artifact instead.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/benchutil.h"
#include "src/analysis/diffcheck.h"
#include "src/analysis/rangefuzz.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/rangetrace.h"
#include "src/ebpf/verifier.h"
#include "src/staticcheck/check.h"

namespace {

using safex::System;

struct CorpusRow {
  std::string name;
  xbase::u32 insns = 0;
  bool verifier_accepts = false;
  analysis::RangeCompareResult cmp;
};

std::vector<CorpusRow> RunCorpus(System& rig) {
  std::vector<std::pair<std::string, ebpf::Program>> corpus;
  const int counter_fd = benchutil::MustCreateArrayMap(rig, "cnt", 8, 4);
  const auto add = [&](const char* name,
                       xbase::Result<ebpf::Program> prog) {
    if (prog.ok()) {
      corpus.emplace_back(name, std::move(prog).value());
    }
  };
  add("straight-256", analysis::BuildStraightLine(256));
  add("diamonds-16", analysis::BuildBranchDiamonds(16));
  add("counted-loop-64", analysis::BuildCountedLoop(64));
  add("packet-counter", analysis::BuildPacketCounter(counter_fd));
  add("sk-lookup-ok", analysis::BuildSkLookupWithRelease());

  std::vector<CorpusRow> rows;
  for (const auto& [name, prog] : corpus) {
    CorpusRow row;
    row.name = name;
    row.insns = prog.len();

    ebpf::RangeTrace verifier_trace;
    ebpf::VerifyOptions vopts;
    vopts.version = rig.kernel.version();
    vopts.faults = &rig.bpf.faults();
    vopts.kfuncs = &rig.bpf.kfuncs();
    vopts.range_trace = &verifier_trace;
    row.verifier_accepts =
        ebpf::Verify(prog, rig.bpf.maps(), rig.bpf.helpers(), vopts).ok();

    ebpf::RangeTrace static_trace;
    staticcheck::CheckOptions copts;
    copts.maps = &rig.bpf.maps();
    copts.helpers = &rig.bpf.helpers();
    copts.callgraph = &rig.kernel.callgraph();
    copts.range_trace = &static_trace;
    (void)staticcheck::RunChecks(prog, copts);

    row.cmp = analysis::CompareRangeTraces(static_trace, verifier_trace);
    rows.push_back(std::move(row));
  }
  return rows;
}

int Run(const char* json_path) {
  System rig;
  const std::vector<CorpusRow> corpus = RunCorpus(rig);

  analysis::RangeFuzzOptions fopts;
  fopts.seed = 1;
  fopts.programs = 200;
  fopts.execs = 32;
  const auto start = std::chrono::steady_clock::now();
  auto fuzz = analysis::RunRangeFuzz(fopts);
  const auto end = std::chrono::steady_clock::now();
  const double fuzz_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  if (!fuzz.ok()) {
    std::fprintf(stderr, "range_precision: fuzz failed: %s\n",
                 fuzz.status().ToString().c_str());
    return 2;
  }
  const analysis::RangeFuzzStats& fs = fuzz.value().stats;

  if (json_path != nullptr) {
    FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "range_precision: cannot write %s\n", json_path);
      return 2;
    }
    std::fprintf(out, "{\n  \"bench\": \"range_precision\",\n");
    std::fprintf(out, "  \"corpus\": [\n");
    for (xbase::usize i = 0; i < corpus.size(); ++i) {
      const CorpusRow& row = corpus[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"insns\": %u, "
                   "\"verifier_accepts\": %s, \"points\": %llu, "
                   "\"disjoint\": %llu, \"mean_width_ratio\": %.6f}%s\n",
                   row.name.c_str(), row.insns,
                   row.verifier_accepts ? "true" : "false",
                   static_cast<unsigned long long>(row.cmp.points),
                   static_cast<unsigned long long>(row.cmp.disjoint),
                   row.cmp.MeanWidthRatio(),
                   i + 1 < corpus.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"fuzz\": {\n");
    std::fprintf(out, "    \"seed\": %llu,\n    \"programs\": %u,\n",
                 static_cast<unsigned long long>(fopts.seed), fs.programs);
    std::fprintf(out, "    \"executions\": %llu,\n",
                 static_cast<unsigned long long>(fs.executions));
    std::fprintf(out, "    \"claim_checks\": %llu,\n",
                 static_cast<unsigned long long>(fs.points_checked));
    std::fprintf(out, "    \"points_compared\": %llu,\n",
                 static_cast<unsigned long long>(fs.points_compared));
    std::fprintf(out, "    \"disjoint_points\": %llu,\n",
                 static_cast<unsigned long long>(fs.disjoint_points));
    std::fprintf(out, "    \"findings\": %zu,\n",
                 fuzz.value().findings.size());
    std::fprintf(out, "    \"mean_width_ratio\": %.6f,\n",
                 fs.MeanWidthRatio());
    std::fprintf(out, "    \"wall_ms\": %.1f\n  }\n}\n", fuzz_ms);
    std::fclose(out);
    std::printf("range_precision: wrote %s\n", json_path);
    return 0;
  }

  benchutil::Title("RANGE-PRECISION: staticcheck vs verifier intervals");
  std::printf("%-18s %6s %8s %8s %9s %12s\n", "program", "insns", "accept",
              "points", "disjoint", "width-ratio");
  benchutil::Rule();
  for (const CorpusRow& row : corpus) {
    std::printf("%-18s %6u %8s %8llu %9llu %12.3f\n", row.name.c_str(),
                row.insns, row.verifier_accepts ? "yes" : "no",
                static_cast<unsigned long long>(row.cmp.points),
                static_cast<unsigned long long>(row.cmp.disjoint),
                row.cmp.MeanWidthRatio());
  }
  benchutil::Rule();
  std::printf(
      "fuzz seed %llu: %u programs, %llu executions, %llu claim checks,\n"
      "  %llu points compared, %llu disjoint, %zu findings, mean width "
      "ratio %.3f, %.1f ms\n",
      static_cast<unsigned long long>(fopts.seed), fs.programs,
      static_cast<unsigned long long>(fs.executions),
      static_cast<unsigned long long>(fs.points_checked),
      static_cast<unsigned long long>(fs.points_compared),
      static_cast<unsigned long long>(fs.disjoint_points),
      fuzz.value().findings.size(), fs.MeanWidthRatio(), fuzz_ms);
  benchutil::Note(
      "width-ratio 1.0 = path-insensitive intervals as tight as the "
      "verifier's; disjoint > 0 would mean one analysis is provably wrong");
  return fuzz.value().findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[i + 1];
    }
  }
  return Run(json_path);
}
