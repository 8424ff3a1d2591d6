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
// Default: human-readable table. With `--json PATH` it also writes the
// BENCH_perm.json CI artifact and exits nonzero if the census gate fails.
#include <chrono>
#include <cstring>
#include <vector>

#include "bench/benchutil.h"
#include "src/analysis/permaudit.h"
#include "src/ebpf/fault.h"
#include "src/xbase/strfmt.h"

namespace {

struct CensusRun {
  analysis::PermCensusReport report;
  double wall_ms = 0;
};

CensusRun TimeCensus(ebpf::Bpf& bpf) {
  CensusRun run;
  const auto start = std::chrono::steady_clock::now();
  run.report = analysis::RunPermCensus(bpf);
  const auto end = std::chrono::steady_clock::now();
  run.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return run;
}

bool GatePassed(const CensusRun& clean,
                const std::vector<analysis::PermFaultCheck>& checks) {
  if (!clean.report.clean() || clean.report.stats.cells == 0) {
    return false;
  }
  for (const analysis::PermFaultCheck& check : checks) {
    if (!check.passed) {
      return false;
    }
  }
  return true;
}

int WriteJson(const char* path, const CensusRun& clean,
              const std::vector<analysis::PermFaultCheck>& checks) {
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "permission_audit: cannot write %s\n", path);
    return 1;
  }
  const analysis::PermCensusStats& stats = clean.report.stats;
  std::fprintf(out,
               "{\n  \"census\": {\"helpers\": %zu, \"prog_types\": %zu, "
               "\"cells\": %zu,\n    \"verifier_probes\": %zu, "
               "\"runtime_probes\": %zu, \"loader_probes\": %zu,\n    "
               "\"expected_allows\": %zu, \"expected_version_denials\": "
               "%zu,\n    \"expected_family_denials\": %zu, "
               "\"expected_privilege_denials\": %zu,\n    \"gaps\": %zu, "
               "\"overblocks\": %zu, \"wall_ms\": %.2f},\n",
               stats.helpers, stats.prog_types, stats.cells,
               stats.verifier_probes, stats.runtime_probes,
               stats.loader_probes, stats.expected_allows,
               stats.expected_version_denials,
               stats.expected_family_denials,
               stats.expected_privilege_denials, clean.report.gaps.size(),
               clean.report.overblocks.size(), clean.wall_ms);
  std::fprintf(out, "  \"fault_matrix\": [\n");
  for (xbase::usize i = 0; i < checks.size(); ++i) {
    std::fprintf(out, "    {\"name\": \"%s\", \"passed\": %s}%s\n",
                 checks[i].name.c_str(),
                 checks[i].passed ? "true" : "false",
                 i + 1 < checks.size() ? "," : "");
  }
  const bool passed = GatePassed(clean, checks);
  std::fprintf(out, "  ],\n  \"gate_passed\": %s\n}\n",
               passed ? "true" : "false");
  std::fclose(out);
  std::printf("permission_audit: wrote %s (gate %s)\n", path,
              passed ? "passed" : "FAILED");
  return passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[i + 1];
    }
  }

  simkern::KernelConfig config;
  config.version = simkern::kV6_12;
  // Expose the per-type privilege gate to the loader probes instead of
  // the blanket unprivileged-bpf sysctl that sits in front of it.
  config.unprivileged_bpf_disabled = false;
  safex::System rig(config);

  benchutil::Title(
      "Access-control census: contract vs verifier / dispatch / loader");
  const CensusRun clean = TimeCensus(rig.bpf);
  const analysis::PermCensusStats& stats = clean.report.stats;
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
              clean.report.gaps.size(), clean.report.overblocks.size(),
              clean.wall_ms);

  benchutil::Title("Missing-permission-check fault matrix");
  const std::vector<analysis::PermFaultCheck> checks =
      analysis::RunPermFaultChecks();
  for (const analysis::PermFaultCheck& check : checks) {
    std::printf("  %-38s %-9s %s\n", check.name.c_str(),
                check.passed ? "detected" : "FAIL", check.detail.c_str());
  }
  benchutil::Rule();
  benchutil::Note("a gap = an enforcement layer more permissive than the "
                  "declared helper contract; the census must find zero on "
                  "clean builds and attribute every injected defect to "
                  "its layer");

  if (json_path != nullptr) {
    return WriteJson(json_path, clean, checks);
  }
  if (!GatePassed(clean, checks)) {
    std::fprintf(stderr,
                 "permission_audit: FAIL — census gate did not hold\n");
    return 1;
  }
  return 0;
}
