#include "src/analysis/permstorm.h"

#include <memory>
#include <set>
#include <vector>

#include "src/analysis/permaudit.h"
#include "src/ebpf/bpf.h"
#include "src/ebpf/fault.h"
#include "src/staticcheck/permcheck.h"
#include "src/xbase/rand.h"
#include "src/xbase/strfmt.h"

namespace analysis {

using ebpf::ProgType;
using simkern::KernelVersion;
using xbase::StrFormat;

namespace {

// The three injectable missing-permission-check defects, toggled
// round-robin when the storm runs with faults on.
constexpr std::string_view kPermFaults[] = {
    ebpf::kFaultVerifierFamilyGateSkip,
    ebpf::kFaultVerifierVersionGateOffByOne,
    ebpf::kFaultRuntimeDispatchUnverified,
};
constexpr xbase::usize kPermFaultCount =
    sizeof(kPermFaults) / sizeof(kPermFaults[0]);
// Ops between fault toggles.
constexpr xbase::u64 kTogglePeriod = 97;

// What the enforcement layers should do for a cell given the currently
// injected defects: the clean contract, transformed fault-by-fault. Any
// probe observation this model does not predict is a storm failure — and
// with no fault active the model *is* the contract, so a divergence there
// is a false positive of the census method itself.
struct FaultAdjustedModel {
  bool verifier_denies = false;
  bool runtime_denies = false;
  bool diverges_from_contract = false;  // an injected gap the storm expects
};

FaultAdjustedModel ModelFor(const ebpf::HelperSpec& spec, ProgType type,
                            KernelVersion version,
                            const ebpf::FaultRegistry& faults) {
  const bool family_denies =
      !ebpf::FamilyAdmitsProgType(spec.family, type);
  const bool version_denies = spec.introduced > version;

  KernelVersion verifier_gate = version;
  if (faults.IsActive(ebpf::kFaultVerifierVersionGateOffByOne)) {
    ++verifier_gate.minor;
  }
  const bool verifier_version_denies = spec.introduced > verifier_gate;
  const bool verifier_family_denies =
      family_denies && !faults.IsActive(ebpf::kFaultVerifierFamilyGateSkip);

  FaultAdjustedModel model;
  model.verifier_denies = verifier_version_denies || verifier_family_denies;
  model.runtime_denies =
      !faults.IsActive(ebpf::kFaultRuntimeDispatchUnverified) &&
      (version_denies || family_denies);
  const bool contract_denies = version_denies || family_denies;
  model.diverges_from_contract = (model.verifier_denies != contract_denies) ||
                                 (model.runtime_denies != contract_denies);
  return model;
}

}  // namespace

PermStormReport RunPermStorm(const PermStormConfig& config) {
  PermStormReport report;

  simkern::KernelConfig kconfig;
  kconfig.version = simkern::kV6_12;
  // Probe the per-type privilege gate, not the blanket sysctl in front of
  // it (see permaudit's rig).
  kconfig.unprivileged_bpf_disabled = false;
  simkern::Kernel kernel(kconfig);
  ebpf::Bpf bpf(kernel);
  if (kernel.crashed()) {
    report.failure = "rig construction crashed the kernel";
    return report;
  }

  const std::vector<const ebpf::HelperSpec*> specs = bpf.helpers().AllSpecs();
  if (specs.empty()) {
    report.failure = "helper registry is empty";
    return report;
  }

  // Version pool: the plotted timeline plus every helper's introduction
  // predecessor, so random sampling can land on off-by-one-sensitive cells.
  std::set<KernelVersion> version_pool;
  for (const ebpf::HelperSpec* spec : specs) {
    for (KernelVersion version : ProbeVersionsFor(*spec)) {
      version_pool.insert(version);
    }
  }
  const std::vector<KernelVersion> versions(version_pool.begin(),
                                            version_pool.end());

  xbase::Rng rng(config.seed);
  std::set<std::string_view> ever_injected;
  xbase::usize next_fault = 0;

  auto fail = [&](xbase::u64 op, const std::string& why) {
    report.failure = StrFormat("op %llu: %s",
                               static_cast<unsigned long long>(op),
                               why.c_str());
  };

  for (xbase::u64 op = 0; op < config.ops; ++op) {
    ++report.stats.ops_executed;

    if (config.toggle_faults && op % kTogglePeriod == kTogglePeriod - 1) {
      // Round-robin: clear whatever is active, inject the next defect,
      // with an all-clean window every fourth toggle.
      for (std::string_view fault : kPermFaults) {
        bpf.faults().Clear(fault);
      }
      if (next_fault < kPermFaultCount) {
        bpf.faults().Inject(kPermFaults[next_fault]);
        ever_injected.insert(kPermFaults[next_fault]);
        report.stats.faults_ever_injected = ever_injected.size();
      }
      next_fault = (next_fault + 1) % (kPermFaultCount + 1);
      ++report.stats.fault_toggles;
    }

    const ebpf::HelperSpec& spec =
        *specs[rng.NextBelow(specs.size())];
    const ProgType type =
        ebpf::kAllProgTypes[rng.NextBelow(ebpf::kProgTypeCount)];
    const KernelVersion version = versions[rng.NextBelow(versions.size())];
    const bool privileged = rng.NextBelow(2) == 0;
    const staticcheck::AdmissionCell cell{spec.id, type, privileged,
                                          version};
    ++report.stats.cells_probed;

    const FaultAdjustedModel model =
        ModelFor(spec, type, version, bpf.faults());

    const GateObservation verifier_observed =
        ProbeVerifierGate(bpf, spec.id, type, version);
    const bool verifier_denied =
        verifier_observed != GateObservation::kAdmitted;
    if (verifier_denied) {
      ++report.stats.verifier_denials;
    } else {
      ++report.stats.verifier_admits;
    }
    if (verifier_denied != model.verifier_denies) {
      fail(op, StrFormat(
               "%s: verifier gate %s but the fault-adjusted contract says "
               "%s (active faults explain no such divergence: false %s)",
               cell.ToString().c_str(),
               GateObservationName(verifier_observed).data(),
               model.verifier_denies ? "deny" : "admit",
               model.verifier_denies ? "negative" : "positive"));
      return report;
    }

    const bool runtime_denied =
        ProbeRuntimeGateDenies(bpf, spec.id, type, version);
    if (runtime_denied) {
      ++report.stats.runtime_denials;
    }
    if (runtime_denied != model.runtime_denies) {
      fail(op, StrFormat(
               "%s: dispatch gate %s but the fault-adjusted contract says "
               "%s",
               cell.ToString().c_str(),
               runtime_denied ? "denied" : "admitted",
               model.runtime_denies ? "deny" : "admit"));
      return report;
    }

    if (model.diverges_from_contract) {
      ++report.stats.gaps_confirmed;
      if (spec.writes_state) {
        ++report.stats.gaps_confirmed_writing;
      }
    }

    // The loader's privilege axis is (type x privilege) only; sample it at
    // a lower rate than the per-helper gates.
    if (op % 19 == 0) {
      ++report.stats.loader_probes;
      const bool loader_denied =
          ProbeLoaderPrivilegeDenies(bpf, type, privileged);
      if (loader_denied) {
        ++report.stats.loader_denials;
      }
      const bool expected =
          ebpf::ProgTypeRequiresPrivilege(type) && !privileged;
      if (loader_denied != expected) {
        fail(op, StrFormat(
                 "loader privilege gate %s a %s %s load (contract says %s)",
                 loader_denied ? "denied" : "admitted",
                 privileged ? "privileged" : "unprivileged",
                 ebpf::ProgTypeName(type).data(),
                 expected ? "deny" : "allow"));
        return report;
      }
    }

    if (kernel.crashed()) {
      fail(op, "kernel crashed during probing");
      return report;
    }
  }

  report.ok = true;
  return report;
}

}  // namespace analysis
