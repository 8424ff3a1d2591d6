// STATICCHECK-COST — what a second, independent analysis costs: verifier
// time vs staticcheck time per program, over the same corpus the other
// benches use. The point of comparison: staticcheck is path-INsensitive
// (merges at joins), so its cost stays flat where the verifier's path
// enumeration grows with branch count.
//
// Every case is 5 trials x 6 calls after one warm-up call (diamonds-16
// verifies in ~0.2 s). `--json PATH` also writes the BENCH_staticcheck.json
// artifact.
#include "bench/harness.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/verifier.h"
#include "src/staticcheck/check.h"
#include "src/xbase/strfmt.h"

namespace {

using safex::System;

struct Corpus {
  std::string name;
  ebpf::Program prog;
};

constexpr int kTrials = 5;
constexpr int kIters = 6;

// The corpus; `rig` owns the maps the programs reference.
std::vector<Corpus> BuildCorpus(System& rig) {
  std::vector<Corpus> built;
  const int counter_fd = harness::MustCreateArrayMap(rig, "cnt", 8, 4);
  const auto add = [&](const char* name, xbase::Result<ebpf::Program> prog) {
    if (!prog.ok()) {
      std::fprintf(stderr, "staticcheck_cost: build %s: %s\n", name,
                   prog.status().ToString().c_str());
      std::exit(1);
    }
    built.push_back({name, std::move(prog).value()});
  };
  add("straight-256", analysis::BuildStraightLine(256));
  add("diamonds-16", analysis::BuildBranchDiamonds(16));
  add("counted-loop-64", analysis::BuildCountedLoop(64));
  add("packet-counter", analysis::BuildPacketCounter(counter_fd));
  add("sk-lookup-ok", analysis::BuildSkLookupWithRelease());
  return built;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Bench bench("staticcheck_cost", argc, argv);
  harness::Title("STATICCHECK-COST — verifier vs staticcheck per program");
  System rig;
  const std::vector<Corpus> corpus = BuildCorpus(rig);
  ebpf::VerifyOptions vopts;
  vopts.version = rig.kernel.version();
  vopts.faults = &rig.bpf.faults();
  vopts.kfuncs = &rig.bpf.kfuncs();
  staticcheck::CheckOptions copts;
  copts.maps = &rig.bpf.maps();
  copts.helpers = &rig.bpf.helpers();
  copts.callgraph = &rig.kernel.callgraph();
  // Every program in the corpus is correct: the verifier accepts each
  // one, and staticcheck reports no error finding on any.
  for (const Corpus& entry : corpus) {
    xbase::u64 rejected = 0;
    bench.Time(
        "Verify/" + entry.name, kTrials, kIters,
        [&] {
          auto result = ebpf::Verify(entry.prog, rig.bpf.maps(),
                                     rig.bpf.helpers(), vopts);
          rejected += result.ok() ? 0 : 1;
        },
        [&](harness::Fields& counters, xbase::u64) {
          counters.emplace_back("insns", entry.prog.len());
          return rejected == 0 ? xbase::Status::Ok()
                               : xbase::Internal("verifier rejected it");
        });
    xbase::u64 failed = 0;
    xbase::usize findings = 0;
    xbase::usize errors = 0;
    bench.Time(
        "StaticCheck/" + entry.name, kTrials, kIters,
        [&] {
          auto report = staticcheck::RunChecks(entry.prog, copts);
          failed += report.ok() ? 0 : 1;
          findings = report.ok() ? report.value().findings.size() : 0;
          errors = report.ok() ? report.value().errors() : 0;
        },
        [&](harness::Fields& counters, xbase::u64) {
          counters.emplace_back("findings", findings);
          return failed == 0 && errors == 0
                     ? xbase::Status::Ok()
                     : xbase::Internal(xbase::StrFormat(
                           "%llu runs failed, %zu error findings",
                           static_cast<unsigned long long>(failed), errors));
        });
  }
  return bench.Finish();
}
