// rangefuzz: the three-oracle range-soundness fuzzer from the command line.
//
//   rangefuzz --seed N --progs N --execs N   seeded fuzz campaign
//   rangefuzz ... --fault ID                 inject a verifier range fault
//                                            (repeatable; expect findings)
//   rangefuzz --replay SEED [--execs N]      re-fuzz one program by the
//                                            per-program seed a finding
//                                            printed
//   rangefuzz --check-faults                 deterministic Table-1 witness
//                                            tables (all four range faults
//                                            AND all three relational
//                                            faults must be detected)
//   rangefuzz --list-faults                  injectable range fault ids
//
// A campaign prints a `rangefuzz: k=v ...` header first, and on a finding
// a replay line for the whole campaign. Exit status: 0 clean / all faults
// detected, 1 unsoundness or divergence found (or a fault missed), 2 usage
// or internal failure.
#include <cstdio>

#include "src/analysis/stormmain.h"
#include "src/xbase/strfmt.h"

namespace {

const char* const kRangeFaults[] = {
    "verifier.alu32_bounds_trunc",
    "verifier.sign_ext_confusion",
    "verifier.jgt_refine_off_by_one",
    "verifier.tnum_mul_precision",
    "verifier.reg_reg_refine_off_by_one",
    "verifier.spill_width_confusion",
    "verifier.pkt_range_stale_helper",
};

int ListFaults() {
  for (const char* id : kRangeFaults) {
    std::printf("%s\n", id);
  }
  return 0;
}

int CheckFaults() {
  auto rows = analysis::CheckRangeFaults();
  if (!rows.ok()) {
    std::fprintf(stderr, "rangefuzz: %s\n", rows.status().ToString().c_str());
    return 2;
  }
  std::fputs(analysis::FormatRangeFaultTable(rows.value()).c_str(), stdout);
  auto rel_rows = analysis::CheckRelationalFaults();
  if (!rel_rows.ok()) {
    std::fprintf(stderr, "rangefuzz: %s\n",
                 rel_rows.status().ToString().c_str());
    return 2;
  }
  std::fputs("\n", stdout);
  std::fputs(analysis::FormatRelationalFaultTable(rel_rows.value()).c_str(),
             stdout);
  for (const auto& row : rows.value()) {
    if (!row.detected()) {
      return 1;
    }
  }
  for (const auto& row : rel_rows.value()) {
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
