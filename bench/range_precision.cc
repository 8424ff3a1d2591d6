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
// The corpus comparison is the bench's rows; the campaign is its one timed
// case (one trial after one warm-up run; seeded, so both runs agree), and
// any finding fails it. `--json PATH` also writes the BENCH_range.json
// artifact.
#include <string>
#include <vector>

#include "bench/harness.h"
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
  const int counter_fd = harness::MustCreateArrayMap(rig, "cnt", 8, 4);
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

}  // namespace

int main(int argc, char** argv) {
  harness::Bench bench("range_precision", argc, argv);
  System rig;
  const std::vector<CorpusRow> corpus = RunCorpus(rig);

  harness::Title("RANGE-PRECISION: staticcheck vs verifier intervals");
  std::printf("%-18s %6s %8s %8s %9s %12s\n", "program", "insns", "accept",
              "points", "disjoint", "width-ratio");
  harness::Rule();
  for (const CorpusRow& row : corpus) {
    std::printf("%-18s %6u %8s %8llu %9llu %12.3f\n", row.name.c_str(),
                row.insns, row.verifier_accepts ? "yes" : "no",
                static_cast<unsigned long long>(row.cmp.points),
                static_cast<unsigned long long>(row.cmp.disjoint),
                row.cmp.MeanWidthRatio());
    bench.Row({{"name", row.name},
               {"insns", row.insns},
               {"verifier_accepts", row.verifier_accepts},
               {"points", row.cmp.points},
               {"disjoint", row.cmp.disjoint},
               {"mean_width_ratio", row.cmp.MeanWidthRatio()}});
  }
  harness::Rule();

  analysis::RangeFuzzOptions fopts;
  fopts.seed = 1;
  fopts.programs = 200;
  fopts.execs = 32;
  xbase::Result<analysis::RangeFuzzReport> fuzz =
      xbase::Internal("not run");
  bench.Time(
      "fuzz/seed-1", 1, 1, [&] { fuzz = analysis::RunRangeFuzz(fopts); },
      [&](harness::Fields& counters, xbase::u64) {
        XB_RETURN_IF_ERROR(fuzz.status());
        const analysis::RangeFuzzStats& fs = fuzz.value().stats;
        counters.emplace_back("programs", fs.programs);
        counters.emplace_back("executions", fs.executions);
        counters.emplace_back("claim_checks", fs.points_checked);
        counters.emplace_back("points_compared", fs.points_compared);
        counters.emplace_back("disjoint_points", fs.disjoint_points);
        counters.emplace_back("findings", fuzz.value().findings.size());
        counters.emplace_back("mean_width_ratio", fs.MeanWidthRatio());
        return fuzz.value().findings.empty()
                   ? xbase::Status::Ok()
                   : xbase::Internal("the campaign has findings");
      });
  harness::Note(
      "width-ratio 1.0 = path-insensitive intervals as tight as the "
      "verifier's; disjoint > 0 would mean one analysis is provably wrong");
  return bench.Finish();
}
