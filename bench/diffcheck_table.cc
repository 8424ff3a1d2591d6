// DIFFCHECK — the differential oracle artifact: every injectable defect
// from ebpf/fault.h, its paired exploit, the clean and broken verifier
// verdicts, and whether the verifier-independent staticcheck analysis
// flags the program anyway. The YES rows are mis-verifications caught by
// cross-checking two analyses that share no code; the "no" rows with an
// accepting buggy verifier are the paper's argument that bytecode
// analysis alone (either one!) cannot carry the safety case.
#include <cstdio>

#include "bench/harness.h"
#include "src/analysis/diffcheck.h"

int main() {
  harness::Title(
      "Differential oracle: broken verifier vs independent staticcheck");
  auto report = analysis::RunDiffCheck();
  if (!report.ok()) {
    std::fprintf(stderr, "diffcheck failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::fputs(
      analysis::FormatDiffTable(report.value(), /*machine_readable=*/true)
          .c_str(),
      stdout);
  harness::Note(
      "cleanV/buggyV: verifier verdict without/with the defect injected; "
      "caught: staticcheck reports an error-severity finding");
  harness::Note(
      "helper-internal defects are below every bytecode analysis; only "
      "the program-visible rows can ever be caught");
  return 0;
}
