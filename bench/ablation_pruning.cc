// Ablation: what does states_equal pruning buy the verifier? (DESIGN.md §5
// calls this out.) With pruning disabled, every join point re-explores —
// the cost curve is the upper bound the kernel would pay without the
// pruning machinery the paper counts inside the verifier's growing LoC.
#include "bench/harness.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/verifier.h"

namespace {

struct Measurement {
  bool accepted = false;
  xbase::u64 insns = 0;
  xbase::u64 pruned = 0;
};

Measurement Measure(safex::System& rig, const ebpf::Program& prog,
                    bool disable_pruning) {
  ebpf::VerifyOptions opts;
  opts.version = rig.kernel.version();
  opts.faults = &rig.bpf.faults();
  opts.kfuncs = &rig.bpf.kfuncs();
  opts.disable_pruning = disable_pruning;
  auto result = ebpf::Verify(prog, rig.bpf.maps(), rig.bpf.helpers(), opts);
  Measurement m;
  m.accepted = result.ok();
  if (result.ok()) {
    m.insns = result.value().stats.insns_processed;
    m.pruned = result.value().stats.states_pruned;
  }
  return m;
}

}  // namespace

int main() {
  safex::System rig;
  harness::Title("Ablation: states_equal pruning");
  std::printf("%-28s | %14s %10s | %14s %10s\n", "program",
              "insns (pruned)", "hits", "insns (no prune)", "verdict");
  harness::Rule(92);

  struct Case {
    std::string name;
    xbase::Result<ebpf::Program> prog;
  };
  std::vector<Case> cases;
  // Rejoining straight-line diamonds where both arms leave identical state:
  // pruning collapses them; without it the verifier re-walks the tail per
  // path.
  for (const xbase::u32 n : {6u, 10u, 14u, 18u}) {
    // Arms that write the same value so states converge at the join.
    ebpf::ProgramBuilder b("converging", ebpf::ProgType::kXdp);
    b.Ins(ebpf::LdxMem(ebpf::BPF_W, ebpf::R6, ebpf::R1, 0))
        .Ins(ebpf::Mov64Imm(ebpf::R0, 0));
    for (xbase::u32 i = 0; i < n; ++i) {
      const std::string set = "s" + std::to_string(i);
      const std::string join = "j" + std::to_string(i);
      // Both arms overwrite the tested register too, so the verifier
      // states are bit-identical at the join — the prunable shape.
      b.JmpTo(ebpf::BPF_JSET, ebpf::R6,
              static_cast<xbase::s32>(1u << (i % 16)), set)
          .Ins(ebpf::Mov64Imm(ebpf::R7, 1))
          .Ins(ebpf::LdxMem(ebpf::BPF_W, ebpf::R6, ebpf::R1, 0))
          .JaTo(join)
          .Bind(set)
          .Ins(ebpf::Mov64Imm(ebpf::R7, 1))
          .Ins(ebpf::LdxMem(ebpf::BPF_W, ebpf::R6, ebpf::R1, 0))
          .Bind(join);
    }
    b.Ins(ebpf::Exit());
    cases.push_back({"converging diamonds x" + std::to_string(n),
                     b.Build()});
  }
  cases.push_back(
      {"bounded loop, 2k iterations", analysis::BuildCountedLoop(2000)});

  for (Case& test_case : cases) {
    const Measurement with = Measure(rig, test_case.prog.value(), false);
    const Measurement without = Measure(rig, test_case.prog.value(), true);
    std::printf("%-28s | %14llu %10llu | %14llu %10s\n",
                test_case.name.c_str(),
                static_cast<unsigned long long>(with.insns),
                static_cast<unsigned long long>(with.pruned),
                static_cast<unsigned long long>(without.insns),
                without.accepted ? "accept" : "REJECT(budget)");
  }
  harness::Rule(92);
  harness::Note("pruning turns exponential re-exploration into linear "
                "work; it is also ~where the kernel verifier's memory "
                "and bug surface live (Table 1's verifier memory leaks "
                "are in exactly this bookkeeping)");
  return 0;
}
