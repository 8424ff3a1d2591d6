#include "src/analysis/admitstorm.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/analysis/storm.h"
#include "src/analysis/workloads.h"
#include "src/core/system.h"
#include "src/service/admission.h"
#include "src/xbase/rand.h"
#include "src/xbase/strfmt.h"

namespace analysis {
namespace {

using xbase::u32;
using xbase::u64;
using xbase::usize;

// Minimal well-behaved extension for the signed-artifact leg of the storm;
// the storm never invokes it, it only exercises signature validation and
// registration under concurrency.
class NopExt : public safex::Extension {
 public:
  xbase::Result<u64> Run(safex::Ctx&) override { return u64{0}; }
};

struct CorpusEntry {
  std::string name;
  ebpf::Program prog;
};

}  // namespace

AdmitStormReport RunAdmitStorm(const AdmitStormConfig& config) {
  AdmitStormReport report;

  // `rng` draws the submission schedule and nothing else, so the schedule
  // is a pure function of the config. The unload and probe choices depend
  // on which verdicts came back admitted, which races the fault toggles;
  // they draw from `churn_rng` so they cannot shift the schedule.
  xbase::Rng rng(config.seed);
  xbase::Rng churn_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  simkern::KernelConfig kernel_config;
  kernel_config.unprivileged_bpf_disabled = false;
  safex::System rig(kernel_config);
  if (!rig.ok()) {
    report.failure = "rig construction failed";
    return report;
  }

  const int arr_fd =
      storm::MustMap(rig, ebpf::MapType::kArray, "storm-arr", 8, 4);
  const int wide_fd =
      storm::MustMap(rig, ebpf::MapType::kArray, "storm-wide", 64, 4);
  if (arr_fd < 0 || wide_fd < 0) {
    report.failure = "map setup failed";
    return report;
  }
  // Zeroed ctx block for the post-drain execution probes.
  auto probe_ctx = rig.kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                        simkern::RegionKind::kKernelData,
                                        "storm-ctx");
  if (!probe_ctx.ok()) {
    report.failure = "probe ctx setup failed";
    return report;
  }

  // Corpus. `accepted` programs pass the clean verifier; `rejected` ones are
  // turned away by it (though an injected defect may let one through
  // mid-storm — the invariants below don't depend on which way any single
  // verdict goes). Small on purpose: duplicates are the point.
  std::vector<CorpusEntry> corpus;
  const auto add = [&corpus](const char* name,
                             xbase::Result<ebpf::Program> prog) {
    if (prog.ok()) {
      corpus.push_back(CorpusEntry{name, std::move(prog).value()});
    }
  };
  add("straight-16", BuildStraightLine(16));
  add("straight-64", BuildStraightLine(64));
  add("straight-256", BuildStraightLine(256));
  add("diamonds-4", BuildBranchDiamonds(4));
  add("diamonds-8", BuildBranchDiamonds(8));
  add("loop-32", BuildCountedLoop(32));
  // Everything above at most reads scalar fields out of the ctx block —
  // the post-drain execution probes draw from this prefix so a plain
  // zeroed kernel-data region serves as ctx (no packet or socket state).
  const usize probe_safe_count = corpus.size();
  add("packet-counter", BuildPacketCounter(arr_fd));
  add("sk-lookup-ok", BuildSkLookupWithRelease());
  const usize accepted_count = corpus.size();
  add("sk-lookup-leak", BuildSkLookupNoRelease());
  add("arbitrary-read", BuildArbitraryReadExploit(arr_fd, 4096));
  add("jmp32-oob", BuildJmp32BoundsExploit(wide_fd));
  if (accepted_count < 8 || corpus.size() < 11) {
    report.failure = "corpus setup failed";
    return report;
  }

  const auto nop = []() { return std::make_unique<NopExt>(); };
  auto good_artifact = storm::SignArtifact("storm-nop", nop);
  // Signed with a key no System enrolls: it must be turned away.
  auto rogue_artifact = storm::SignArtifact(
      "storm-rogue", nop,
      crypto::SigningKey::FromPassphrase("storm-rogue", "rogue"));
  if (!good_artifact.ok() || !rogue_artifact.ok()) {
    report.failure = "artifact setup failed";
    return report;
  }

  service::AdmissionConfig svc_config;
  svc_config.workers = config.workers;
  svc_config.queue_capacity = config.queue_capacity;
  svc_config.cache_enabled = config.cache_enabled;
  service::AdmissionService svc(svc_config, rig.bpf, rig.loader,
                                rig.ext_loader.get());

  const auto& catalog = ebpf::FaultRegistry::Catalog();
  std::set<u32> live_progs;
  std::set<u32> live_exts;
  u64 round = 0;

  const auto fail = [&](std::string why) {
    report.failure = std::move(why);
    report.failed_at_round = round;
    // Leave the service to its destructor (drains and joins).
  };

  struct Pending {
    service::AdmissionService::Ticket ticket;
    bool is_ext = false;
  };

  for (round = 1; round <= config.rounds; ++round) {
    std::vector<Pending> pending;
    pending.reserve(config.ops_per_round);

    for (u64 op = 0; op < config.ops_per_round; ++op) {
      const u64 dice = rng.NextBelow(100);
      if (dice < 10 && config.toggle_faults && !catalog.empty()) {
        // Toggle a defect from the driver thread while workers are mid-
        // verification: races the epoch against in-flight stage runs.
        const ebpf::FaultInfo& fault =
            catalog[rng.NextBelow(catalog.size())];
        if (rig.bpf.faults().IsActive(fault.id)) {
          rig.bpf.faults().Clear(fault.id);
        } else {
          rig.bpf.faults().Inject(fault.id);
        }
        ++report.stats.fault_toggles;
        continue;
      }
      if (dice < 25) {
        const bool rogue = rng.NextBelow(3) == 0;
        pending.push_back(Pending{
            svc.LoadExtension(rogue ? rogue_artifact.value()
                                    : good_artifact.value(),
                              /*async=*/true),
            /*is_ext=*/true});
        ++report.stats.ext_submissions;
      } else {
        // Bias toward the accepted half of the corpus, and toward its
        // first few entries — duplicates force coalescing.
        const bool pick_rejected = rng.NextBelow(4) == 0;
        const usize index =
            pick_rejected
                ? accepted_count +
                      rng.NextBelow(corpus.size() - accepted_count)
                : rng.NextBelow(rng.NextBool() ? 3 : accepted_count);
        ebpf::LoadOptions options;
        options.async = true;
        options.privileged = rng.NextBelow(4) != 0;
        options.staticcheck_prepass = rng.NextBelow(4) == 0;
        pending.push_back(
            Pending{svc.Load(corpus[index].prog, options), false});
        ++report.stats.bpf_submissions;
      }
      ++report.stats.submissions;
    }

    svc.Drain();

    // Invariant: every ticket resolved; admitted ids unique and findable.
    for (const Pending& p : pending) {
      auto result = svc.Wait(p.ticket);
      if (!result.ok()) {
        ++report.stats.rejected;
        continue;
      }
      ++report.stats.admitted;
      const u32 id = result.value();
      if (p.is_ext) {
        if (!live_exts.insert(id).second) {
          fail(xbase::StrFormat("duplicate live extension id %u", id));
          return report;
        }
        if (!rig.ext_loader->Find(id).ok()) {
          fail(xbase::StrFormat("admitted extension %u not findable", id));
          return report;
        }
      } else {
        if (!live_progs.insert(id).second) {
          fail(xbase::StrFormat("duplicate live program id %u", id));
          return report;
        }
        auto found = rig.loader.Find(id);
        if (!found.ok() || found.value()->id != id) {
          fail(xbase::StrFormat("admitted program %u not findable", id));
          return report;
        }
      }
    }

    // Invariant: loader populations match the storm's own accounting.
    if (rig.loader.size() != live_progs.size()) {
      fail(xbase::StrFormat("loader holds %zu programs, storm expects %zu",
                            rig.loader.size(), live_progs.size()));
      return report;
    }
    if (rig.ext_loader->size() != live_exts.size()) {
      fail(xbase::StrFormat("ext loader holds %zu, storm expects %zu",
                            rig.ext_loader->size(), live_exts.size()));
      return report;
    }

    // Invariant: settled-epoch verdict consistency. With no toggle in
    // flight, a service load (cache hit or fresh) must agree with a direct
    // single-threaded Prepare — status, verification stats, and the
    // installed lowering's counters against a Prepare without elision (the
    // service lowers every program once, with every check in place).
    for (int probe = 0; probe < 2; ++probe) {
      const CorpusEntry& entry = corpus[churn_rng.NextBelow(corpus.size())];
      ebpf::LoadOptions options;  // privileged, no prepass, sync
      options.elide_checks = false;
      auto direct = rig.loader.Prepare(entry.prog, options);
      auto via_service = svc.Wait(svc.Load(entry.prog, options));
      ++report.stats.bpf_submissions;
      ++report.stats.consistency_probes;
      if (direct.ok() != via_service.ok()) {
        fail(xbase::StrFormat(
            "settled-epoch divergence on %s: direct %s, service %s",
            entry.name.c_str(), direct.status().ToString().c_str(),
            via_service.status().ToString().c_str()));
        return report;
      }
      if (via_service.ok()) {
        const u32 id = via_service.value();
        auto found = rig.loader.Find(id);
        if (!found.ok()) {
          fail(xbase::StrFormat("probe id %u not findable", id));
          return report;
        }
        const ebpf::VerifyStats& service_stats =
            found.value()->verify.stats;
        const ebpf::VerifyStats& direct_stats = direct.value().verify.stats;
        if (service_stats.insns_processed != direct_stats.insns_processed ||
            service_stats.states_explored != direct_stats.states_explored) {
          fail(xbase::StrFormat(
              "verify stats diverge on %s: service %llu/%llu, "
              "direct %llu/%llu",
              entry.name.c_str(),
              static_cast<unsigned long long>(service_stats.insns_processed),
              static_cast<unsigned long long>(service_stats.states_explored),
              static_cast<unsigned long long>(direct_stats.insns_processed),
              static_cast<unsigned long long>(
                  direct_stats.states_explored)));
          return report;
        }
        const ebpf::JitStats& service_jit = found.value()->jit;
        const ebpf::JitStats& direct_jit = direct.value().jit;
        if (service_jit.micro_ops != direct_jit.micro_ops ||
            service_jit.call_sites_gate_denied !=
                direct_jit.call_sites_gate_denied ||
            service_jit.checks_elided != direct_jit.checks_elided) {
          fail(xbase::StrFormat(
              "lowering counters diverge on %s: service %u/%u/%u, direct "
              "%u/%u/%u (micro-ops/gate-denied/elided)",
              entry.name.c_str(), service_jit.micro_ops,
              service_jit.call_sites_gate_denied, service_jit.checks_elided,
              direct_jit.micro_ops, direct_jit.call_sites_gate_denied,
              direct_jit.checks_elided));
          return report;
        }
        if (!rig.loader.Unload(id).ok()) {
          fail(xbase::StrFormat("probe unload of %u refused", id));
          return report;
        }
        ++report.stats.unloads;
      }
    }

    // Invariant: post-drain execution probe. A freshly admitted ctx-free
    // corpus program must run to completion on the configured engine, and —
    // when that engine is the threaded one — agree with the legacy
    // interpreter on r0 and retired-insn count. Active fault-registry
    // defects are suspended for the probe (an injected JIT defect that
    // corrupts the lowered image is *supposed* to diverge the engines) and
    // restored afterwards so the storm's fault schedule is undisturbed.
    {
      std::vector<std::string> suspended;
      for (const ebpf::FaultInfo& fault : catalog) {
        if (rig.bpf.faults().IsActive(fault.id)) {
          suspended.push_back(fault.id);
          rig.bpf.faults().Clear(fault.id);
        }
      }
      const CorpusEntry& entry =
          corpus[churn_rng.NextBelow(probe_safe_count)];
      auto probe_id = rig.loader.Load(entry.prog);
      if (!probe_id.ok()) {
        fail(xbase::StrFormat("exec probe load of %s refused: %s",
                              entry.name.c_str(),
                              probe_id.status().ToString().c_str()));
        return report;
      }
      auto loaded = rig.loader.Find(probe_id.value());
      ebpf::ExecOptions exec_opts;
      exec_opts.engine = config.engine;
      auto primary = ebpf::Execute(rig.bpf, *loaded.value(), probe_ctx.value(),
                                   exec_opts, &rig.loader);
      ++report.stats.exec_probes;
      if (!primary.ok()) {
        fail(xbase::StrFormat("exec probe of %s failed: %s",
                              entry.name.c_str(),
                              primary.status().ToString().c_str()));
        return report;
      }
      if (config.engine == ebpf::ExecEngine::kThreaded) {
        exec_opts.engine = ebpf::ExecEngine::kLegacy;
        auto cross = ebpf::Execute(rig.bpf, *loaded.value(), probe_ctx.value(),
                                   exec_opts, &rig.loader);
        if (!cross.ok() || cross.value().r0 != primary.value().r0 ||
            cross.value().stats.insns != primary.value().stats.insns) {
          fail(xbase::StrFormat(
              "engine divergence on %s: threaded r0=%llu insns=%llu, "
              "legacy %s",
              entry.name.c_str(),
              static_cast<unsigned long long>(primary.value().r0),
              static_cast<unsigned long long>(primary.value().stats.insns),
              cross.ok()
                  ? xbase::StrFormat(
                        "r0=%llu insns=%llu",
                        static_cast<unsigned long long>(cross.value().r0),
                        static_cast<unsigned long long>(
                            cross.value().stats.insns))
                        .c_str()
                  : cross.status().ToString().c_str()));
          return report;
        }
      }
      if (!rig.loader.Unload(probe_id.value()).ok()) {
        fail(xbase::StrFormat("exec probe unload of %u refused",
                              probe_id.value()));
        return report;
      }
      ++report.stats.unloads;
      for (const std::string& fault_id : suspended) {
        rig.bpf.faults().Inject(fault_id);
      }
    }

    // Invariant: metrics conserve after a drain.
    const service::AdmissionMetrics m = svc.Metrics();
    if (m.submitted != m.completed) {
      fail(xbase::StrFormat("metrics leak: %llu submitted, %llu completed",
                            static_cast<unsigned long long>(m.submitted),
                            static_cast<unsigned long long>(m.completed)));
      return report;
    }
    if (m.admitted + m.rejected != m.completed) {
      fail("metrics leak: admitted + rejected != completed");
      return report;
    }
    if (m.queue_depth != 0) {
      fail(xbase::StrFormat("queue depth %llu after drain",
                            static_cast<unsigned long long>(m.queue_depth)));
      return report;
    }
    if (config.cache_enabled) {
      // Every program admission performs exactly one cache Acquire, and
      // every miss's owner publishes exactly once (cacheable or not).
      if (m.cache.hits + m.cache.misses != report.stats.bpf_submissions) {
        fail(xbase::StrFormat(
            "cache lookups leak: %llu hits + %llu misses != %llu program "
            "submissions",
            static_cast<unsigned long long>(m.cache.hits),
            static_cast<unsigned long long>(m.cache.misses),
            static_cast<unsigned long long>(report.stats.bpf_submissions)));
        return report;
      }
      if (m.cache.published != m.cache.misses) {
        fail("cache publish leak: a miss owner never published");
        return report;
      }
    }

    // Unload roughly half of everything live; unattached unloads must
    // always succeed.
    for (auto* live : {&live_progs, &live_exts}) {
      std::vector<u32> victims;
      for (const u32 id : *live) {
        if (churn_rng.NextBool()) {
          victims.push_back(id);
        }
      }
      for (const u32 id : victims) {
        const xbase::Status status = live == &live_progs
                                         ? rig.loader.Unload(id)
                                         : rig.ext_loader->Unload(id);
        if (!status.ok()) {
          fail(xbase::StrFormat("unload of unattached %u refused: %s", id,
                                status.ToString().c_str()));
          return report;
        }
        live->erase(id);
        ++report.stats.unloads;
      }
    }

    if (rig.kernel.state() != simkern::KernelState::kRunning) {
      fail("kernel not running");
      return report;
    }
    ++report.stats.rounds_executed;
  }

  // Teardown: everything must unload cleanly, and a submission after
  // Shutdown must resolve (rejected), not hang.
  round = config.rounds + 1;
  for (const u32 id : live_progs) {
    if (!rig.loader.Unload(id).ok()) {
      fail(xbase::StrFormat("final unload of program %u refused", id));
      return report;
    }
    ++report.stats.unloads;
  }
  for (const u32 id : live_exts) {
    if (!rig.ext_loader->Unload(id).ok()) {
      fail(xbase::StrFormat("final unload of extension %u refused", id));
      return report;
    }
    ++report.stats.unloads;
  }
  if (rig.loader.size() != 0 || rig.ext_loader->size() != 0) {
    fail("loaders not empty after final unload");
    return report;
  }

  const service::AdmissionMetrics final_metrics = svc.Metrics();
  report.stats.cache_hits = final_metrics.cache.hits;
  report.stats.cache_misses = final_metrics.cache.misses;
  report.stats.coalesced_waits = final_metrics.cache.coalesced_waits;
  report.stats.uncacheable = final_metrics.cache.uncacheable;
  report.stats.verify_runs = final_metrics.verify_runs;
  report.stats.queue_depth_peak = final_metrics.queue_depth_peak;

  svc.Shutdown();
  auto post = svc.Wait(svc.Load(corpus[0].prog, {}));
  if (post.ok() ||
      post.status().code() != xbase::Code::kFailedPrecondition) {
    fail("post-shutdown submission did not fail with FailedPrecondition");
    return report;
  }

  report.ok = true;
  return report;
}

}  // namespace analysis
