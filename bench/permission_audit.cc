// PERM — the access-control census as a measurement. Counts the admission
// cells (helper x program type x privilege x kernel version) the declared
// contract defines, times the full three-layer model-check of those cells
// (verifier gate, runtime dispatch gate, loader privilege gate), and runs
// the fault matrix: each injectable missing-permission-check defect must
// surface as census gaps in exactly its own layer, and clean censuses
// must stay gap-free. The census cost is the paper-relevant number: this
// is what "audit every helper permission check" costs when the contract
// is stated once and machine-checked, versus the manual audit the kernel
// relies on.
//
// The census is the bench's one timed case (5 trials of one census after
// one warm-up census); its counts and the fault matrix are the rows. Exits
// nonzero if the census gate fails; `--json PATH` also writes the
// BENCH_perm.json artifact.
#include <vector>

#include "bench/harness.h"
#include "src/analysis/permaudit.h"
#include "src/ebpf/fault.h"
#include "src/xbase/strfmt.h"

namespace {

constexpr int kTrials = 5;

}  // namespace

int main(int argc, char** argv) {
  harness::Bench bench("permission_audit", argc, argv);
  simkern::KernelConfig config;
  config.version = simkern::kV6_12;
  // Expose the per-type privilege gate to the loader probes instead of
  // the blanket unprivileged-bpf sysctl that sits in front of it.
  config.unprivileged_bpf_disabled = false;
  safex::System rig(config);

  harness::Title(
      "Access-control census: contract vs verifier / dispatch / loader");
  analysis::PermCensusReport clean;
  const harness::Stats census = bench.Time(
      "census", kTrials, 1, [&] { clean = analysis::RunPermCensus(rig.bpf); },
      [&](harness::Fields&, xbase::u64) {
        return clean.stats.cells != 0
                   ? xbase::Status::Ok()
                   : xbase::Internal("the census covered no cells");
      });
  const analysis::PermCensusStats& stats = clean.stats;
  std::printf("  helpers x prog types      %zu x %zu\n", stats.helpers,
              stats.prog_types);
  std::printf("  admission cells           %zu\n", stats.cells);
  std::printf("  probes                    %zu verifier, %zu dispatch, "
              "%zu loader\n",
              stats.verifier_probes, stats.runtime_probes,
              stats.loader_probes);
  std::printf("  contract verdicts         %zu allow / %zu version-deny / "
              "%zu family-deny / %zu privilege-deny\n",
              stats.expected_allows, stats.expected_version_denials,
              stats.expected_family_denials,
              stats.expected_privilege_denials);
  std::printf("  clean census              %zu gaps, %zu overblocks in "
              "%.1f ms\n",
              clean.gaps.size(), clean.overblocks.size(),
              census.min_ns / 1e6);
  bench.Row({{"helpers", stats.helpers},
             {"prog_types", stats.prog_types},
             {"cells", stats.cells},
             {"verifier_probes", stats.verifier_probes},
             {"runtime_probes", stats.runtime_probes},
             {"loader_probes", stats.loader_probes},
             {"expected_allows", stats.expected_allows},
             {"expected_version_denials", stats.expected_version_denials},
             {"expected_family_denials", stats.expected_family_denials},
             {"expected_privilege_denials", stats.expected_privilege_denials},
             {"gaps", clean.gaps.size()},
             {"overblocks", clean.overblocks.size()}});

  harness::Title("Missing-permission-check fault matrix");
  const std::vector<analysis::PermFaultCheck> checks =
      analysis::RunPermFaultChecks();
  xbase::usize missed = 0;
  for (const analysis::PermFaultCheck& check : checks) {
    std::printf("  %-38s %-9s %s\n", check.name.c_str(),
                check.passed ? "detected" : "FAIL", check.detail.c_str());
    bench.Row({{"fault", check.name}, {"passed", check.passed}});
    missed += check.passed ? 0 : 1;
  }
  harness::Rule();
  harness::Note("a gap = an enforcement layer more permissive than the "
                "declared helper contract; the census must find zero on "
                "clean builds and attribute every injected defect to "
                "its layer");

  const xbase::usize findings = clean.gaps.size() + clean.overblocks.size();
  bench.Gate("clean_census", "gaps + overblocks",
             static_cast<double>(findings), 0, clean.clean());
  bench.Gate("fault_matrix", "checks failed", static_cast<double>(missed), 0,
             missed == 0);
  return bench.Finish();
}
