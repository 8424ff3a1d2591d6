// FIG2 — reproduces Figure 2: "Lines of code of the eBPF verifier by kernel
// over time". The series is computed from the verifier's version-gated
// feature table; each feature is a pass this repository actually implements
// (or documents as accounting-only), tagged with the Linux-attributed LoC
// of the era that introduced it. The claim under test is the *shape*:
// monotone, roughly 6x growth from v3.18 (~2.4 kLoC) to v6.1 (~12 kLoC).
#include "bench/harness.h"
#include "src/analysis/growth.h"

int main() {
  harness::Title("Figure 2: eBPF verifier growth by kernel version");
  std::printf("%-8s %-6s %14s %16s\n", "version", "year",
              "verifier LoC", "active passes");
  harness::Rule(50);

  const auto loc_series = analysis::VerifierLocSeries();
  const auto feature_series = analysis::VerifierFeatureSeries();
  for (size_t i = 0; i < loc_series.size(); ++i) {
    std::printf("%-8s %-6d %14llu %16llu\n",
                loc_series[i].version.ToString().c_str(),
                loc_series[i].year,
                static_cast<unsigned long long>(loc_series[i].value),
                static_cast<unsigned long long>(feature_series[i].value));
  }
  harness::Rule(50);

  std::printf("\nPer-feature attribution (what each pass added):\n");
  std::printf("%-8s %-16s %8s  %s\n", "since", "pass", "LoC",
              "behavioural in this repo?");
  harness::Rule();
  for (const ebpf::VFeatureInfo& info : ebpf::VerifierFeatureTable()) {
    std::printf("%-8s %-16s %8u  %s\n", info.introduced.ToString().c_str(),
                info.name.c_str(), info.linux_loc,
                info.behavioural ? "yes" : "accounting only");
  }
  harness::Rule();

  const auto first = loc_series.front();
  const auto last = loc_series.back();
  std::printf("\nShape check vs paper: v3.18 ~2 kLoC -> v6.1 ~12 kLoC, "
              "monotone.\n");
  std::printf("Measured: %s = %llu LoC -> %s = %llu LoC (%.1fx growth)\n",
              first.version.ToString().c_str(),
              static_cast<unsigned long long>(first.value),
              last.version.ToString().c_str(),
              static_cast<unsigned long long>(last.value),
              static_cast<double>(last.value) /
                  static_cast<double>(first.value));
  return 0;
}
