// rangefuzz: the three-oracle range-soundness fuzzer from the command line.
//
//   rangefuzz --seed N --progs N --execs N   seeded fuzz campaign
//   rangefuzz ... --fault ID                 inject a verifier fault
//                                            (repeatable; expect findings;
//                                            an unknown id exits 2)
//   rangefuzz --replay SEED [--execs N]      re-fuzz one program by the
//                                            per-program seed a finding
//                                            printed
//   rangefuzz --check-faults                 deterministic Table-1 witness
//                                            tables (every range AND
//                                            relational fault must be
//                                            detected)
//   rangefuzz --list-faults                  the witnessed fault ids
//
// Both fault flags read one table, analysis::FaultWitnesses(): four range
// rows, then three relational rows.
//
// A campaign prints a `rangefuzz: k=v ...` header first, and on a finding
// a replay line for the whole campaign. Exit status: 0 clean / all faults
// detected, 1 unsoundness or divergence found (or a fault missed), 2 usage
// or internal failure.
#include <cstdio>

#include "src/analysis/stormmain.h"
#include "src/xbase/strfmt.h"

namespace {

int ListFaults() {
  for (const analysis::FaultWitness& witness : analysis::FaultWitnesses()) {
    std::printf("%.*s\n", static_cast<int>(witness.fault_id.size()),
                witness.fault_id.data());
  }
  return 0;
}

int CheckFaults() {
  auto rows = analysis::CheckFaultWitnesses();
  if (!rows.ok()) {
    std::fprintf(stderr, "rangefuzz: %s\n", rows.status().ToString().c_str());
    return 2;
  }
  std::fputs(analysis::FormatFaultWitnessTables(rows.value()).c_str(), stdout);
  for (const auto& row : rows.value()) {
    if (!row.detected()) {
      return 1;
    }
  }
  return 0;
}

analysis::storm::Outcome Run(const analysis::RangeFuzzOptions& opts,
                             bool quiet) {
  auto report = analysis::RunRangeFuzz(opts);
  if (!report.ok()) {
    return {2, report.status().ToString()};
  }
  const std::size_t findings = report.value().findings.size();
  if (!quiet || findings != 0) {
    std::fputs(analysis::FormatRangeFuzzReport(report.value()).c_str(),
               stdout);
  }
  // With an injected fault, divergence alone is a successful detection;
  // without one, any finding is a bug in one of the analyses.
  if (opts.verifier_faults.empty() && findings != 0) {
    return {1, xbase::StrFormat("%zu unsoundness or divergence finding(s)",
                                findings)};
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  return analysis::storm::Main<analysis::RangeFuzzOptions>(
      {"rangefuzz", analysis::storm::RangeFuzzFlags(), Run, CheckFaults,
       ListFaults},
      argc, argv);
}
