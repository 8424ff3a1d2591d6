// Fault-injection integration tests: for every defect in the registry,
// assert the full Table 1 causal chain as test expectations — defect off:
// rejected or contained; defect on: a verified program violates the
// property. (The tab1_bug_census bench prints the same runs as a report.)
#include <gtest/gtest.h>

#include "src/analysis/workloads.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/loader.h"

namespace ebpf {
namespace {

struct RunOutcome {
  bool load_ok = false;
  bool kernel_crashed = false;
  xbase::Status load_status;
  u64 r0 = 0;
  xbase::usize ref_leaks = 0;
  u64 wild_reads = 0;
  u64 wild_writes = 0;
};

class FaultTest : public ::testing::Test {
 protected:
  RunOutcome RunWith(std::string_view fault, const Program& prog,
                     bool inject, bool privileged = true,
                     std::function<void(Bpf&)> prepare = nullptr,
                     bool elide_checks = true) {
    simkern::KernelConfig config;
    config.unprivileged_bpf_disabled = false;
    simkern::Kernel kernel(config);
    Bpf bpf(kernel);
    Loader loader(bpf);
    EXPECT_TRUE(kernel.BootstrapWorkload().ok());
    if (inject && !fault.empty()) {
      bpf.faults().Inject(fault);
    }
    if (prepare != nullptr) {
      prepare(bpf);
    }
    const auto before = kernel.objects().Snapshot();

    RunOutcome outcome;
    LoadOptions opts;
    opts.privileged = privileged;
    opts.elide_checks = elide_checks;
    auto id = loader.Load(prog, opts);
    outcome.load_ok = id.ok();
    outcome.load_status = id.ok() ? xbase::Status::Ok() : id.status();
    if (id.ok()) {
      auto loaded = loader.Find(id.value());
      auto ctx = kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                  simkern::RegionKind::kKernelData, "ctx");
      auto result = Execute(bpf, *loaded.value(), ctx.value(), {}, &loader);
      if (result.ok()) {
        outcome.r0 = result.value().r0;
      }
    }
    outcome.kernel_crashed = kernel.crashed();
    outcome.ref_leaks = kernel.objects().DiffSince(before).size();
    outcome.wild_reads = kernel.mem().unchecked_wild_reads();
    outcome.wild_writes = kernel.mem().unchecked_wild_writes();
    return outcome;
  }

  // Builds against a throwaway Bpf so fds match the run's map layout: both
  // kernels create maps in the same order, so fds line up.
  template <typename BuildFn>
  Program BuildWithMap(MapSpec spec, BuildFn build, int* out_fd = nullptr) {
    // Determine the fd a fresh kernel would assign.
    simkern::Kernel kernel;
    Bpf bpf(kernel);
    const int fd = bpf.maps().Create(spec).value();
    if (out_fd != nullptr) {
      *out_fd = fd;
    }
    return build(fd).value();
  }

  static MapSpec ArraySpec(u32 value_size, u32 entries) {
    MapSpec spec;
    spec.type = MapType::kArray;
    spec.key_size = 4;
    spec.value_size = value_size;
    spec.max_entries = entries;
    spec.name = "f";
    return spec;
  }
};

TEST_F(FaultTest, ScalarBoundsDefectAdmitsArbitraryRead) {
  const MapSpec spec = ArraySpec(8, 4);
  const Program prog = BuildWithMap(
      spec, [](int fd) { return analysis::BuildArbitraryReadExploit(fd, 4096); });
  const auto prepare = [&spec](Bpf& bpf) {
    (void)bpf.maps().Create(spec);
  };
  const RunOutcome clean =
      RunWith(kFaultVerifierScalarBounds, prog, false, true, prepare);
  EXPECT_FALSE(clean.load_ok);
  const RunOutcome buggy =
      RunWith(kFaultVerifierScalarBounds, prog, true, true, prepare);
  EXPECT_TRUE(buggy.load_ok);
  // With analysis-driven check elision, the buggy verifier's wrongly-proven
  // bounds claim strips the runtime check: the out-of-bounds read no longer
  // oopses — it completes *silently* as a wild access. The wild counter is
  // the only witness.
  EXPECT_FALSE(buggy.kernel_crashed);
  EXPECT_GT(buggy.wild_reads + buggy.wild_writes, 0u)
      << "elided OOB access should register as wild, not oops";
  // The checked lowering keeps the runtime check, so the same read oopses.
  const RunOutcome checked = RunWith(kFaultVerifierScalarBounds, prog, true,
                                     true, prepare, /*elide_checks=*/false);
  EXPECT_TRUE(checked.load_ok);
  EXPECT_TRUE(checked.kernel_crashed);
  EXPECT_EQ(checked.wild_reads + checked.wild_writes, 0u);
}

TEST_F(FaultTest, PtrLeakDefectLeaksKernelAddress) {
  const MapSpec spec = ArraySpec(8, 4);
  const Program prog = BuildWithMap(
      spec, [](int fd) { return analysis::BuildPtrLeakExploit(fd); });
  const auto prepare = [&spec](Bpf& bpf) { (void)bpf.maps().Create(spec); };
  const RunOutcome clean = RunWith(kFaultVerifierPtrLeak, prog, false,
                                   /*privileged=*/false, prepare);
  EXPECT_FALSE(clean.load_ok);
  const RunOutcome buggy = RunWith(kFaultVerifierPtrLeak, prog, true,
                                   /*privileged=*/false, prepare);
  EXPECT_TRUE(buggy.load_ok);
  EXPECT_GE(buggy.r0, simkern::kKernelBase) << "r0 is a kernel address";
}

TEST_F(FaultTest, Jmp32BoundsDefectAdmitsOob) {
  const MapSpec spec = ArraySpec(64, 4);
  const Program prog = BuildWithMap(
      spec, [](int fd) { return analysis::BuildJmp32BoundsExploit(fd); });
  const auto prepare = [&spec](Bpf& bpf) { (void)bpf.maps().Create(spec); };
  const RunOutcome clean =
      RunWith(kFaultVerifierJmp32Bounds, prog, false, true, prepare);
  EXPECT_FALSE(clean.load_ok);
  const RunOutcome buggy =
      RunWith(kFaultVerifierJmp32Bounds, prog, true, true, prepare);
  EXPECT_TRUE(buggy.load_ok);
  EXPECT_TRUE(buggy.kernel_crashed);
}

TEST_F(FaultTest, SpinLockDefectDeadlocksAtRuntime) {
  const MapSpec spec = ArraySpec(16, 1);
  const Program prog = BuildWithMap(
      spec, [](int fd) { return analysis::BuildDoubleSpinLock(fd); });
  const auto prepare = [&spec](Bpf& bpf) { (void)bpf.maps().Create(spec); };
  const RunOutcome clean =
      RunWith(kFaultVerifierSpinLock, prog, false, true, prepare);
  EXPECT_FALSE(clean.load_ok);
  const RunOutcome buggy =
      RunWith(kFaultVerifierSpinLock, prog, true, true, prepare);
  EXPECT_TRUE(buggy.load_ok);
  EXPECT_TRUE(buggy.kernel_crashed) << "double spin_lock = deadlock oops";
}

TEST_F(FaultTest, LoopInlineUafCrashesTheVerifierItself) {
  const MapSpec spec = ArraySpec(8, 4);
  const Program prog = BuildWithMap(spec, [](int fd) {
    return analysis::BuildNestedLoopStall(fd, 1, 4);
  });
  const auto prepare = [&spec](Bpf& bpf) { (void)bpf.maps().Create(spec); };
  const RunOutcome clean =
      RunWith(kFaultVerifierLoopInlineUaf, prog, false, true, prepare);
  EXPECT_TRUE(clean.load_ok);
  const RunOutcome buggy =
      RunWith(kFaultVerifierLoopInlineUaf, prog, true, true, prepare);
  EXPECT_FALSE(buggy.load_ok);
  EXPECT_EQ(buggy.load_status.code(), xbase::Code::kInternal)
      << "the verifier malfunctions, it does not merely reject";
}

TEST_F(FaultTest, RefTrackingDefectLeaksSocketReference) {
  const Program prog = analysis::BuildSkLookupNoRelease().value();
  const RunOutcome clean = RunWith(kFaultVerifierRefTracking, prog, false);
  EXPECT_FALSE(clean.load_ok);
  const RunOutcome buggy = RunWith(kFaultVerifierRefTracking, prog, true);
  EXPECT_TRUE(buggy.load_ok);
  EXPECT_EQ(buggy.ref_leaks, 1u);
}

TEST_F(FaultTest, SkLookupHelperLeaksEvenInCorrectPrograms) {
  const Program prog = analysis::BuildSkLookupWithRelease().value();
  const RunOutcome clean = RunWith(kFaultHelperSkLookupLeak, prog, false);
  EXPECT_TRUE(clean.load_ok);
  EXPECT_EQ(clean.ref_leaks, 0u);
  const RunOutcome buggy = RunWith(kFaultHelperSkLookupLeak, prog, true);
  EXPECT_TRUE(buggy.load_ok) << "the program is correct; the helper is not";
  EXPECT_EQ(buggy.ref_leaks, 1u);
}

TEST_F(FaultTest, JitDefectHijacksVerifiedControlFlow) {
  const Program prog = analysis::BuildJitHijackVictim().value();
  const RunOutcome clean = RunWith(kFaultJitBranchOffByOne, prog, false);
  EXPECT_TRUE(clean.load_ok);
  EXPECT_EQ(clean.r0, 42u);
  EXPECT_FALSE(clean.kernel_crashed);
  const RunOutcome buggy = RunWith(kFaultJitBranchOffByOne, prog, true);
  EXPECT_TRUE(buggy.load_ok) << "verifier passed it; the JIT broke it";
  EXPECT_TRUE(buggy.kernel_crashed);
}

TEST_F(FaultTest, FaultRegistryCatalogIsConsistent) {
  FaultRegistry faults;
  EXPECT_FALSE(faults.IsActive(kFaultVerifierScalarBounds));
  faults.Inject(kFaultVerifierScalarBounds);
  EXPECT_TRUE(faults.IsActive(kFaultVerifierScalarBounds));
  faults.Clear(kFaultVerifierScalarBounds);
  EXPECT_FALSE(faults.IsActive(kFaultVerifierScalarBounds));
  // Every catalog entry has a component and category.
  for (const FaultInfo& info : FaultRegistry::Catalog()) {
    EXPECT_FALSE(info.id.empty());
    EXPECT_TRUE(info.component == "verifier" || info.component == "helper" ||
                info.component == "jit" || info.component == "runtime")
        << info.id;
    EXPECT_FALSE(info.category.empty());
    EXPECT_FALSE(info.reference.empty());
  }
  EXPECT_EQ(FaultRegistry::Catalog().size(), 27u);
}

}  // namespace
}  // namespace ebpf
