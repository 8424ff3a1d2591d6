// STATICCHECK-COST — what a second, independent analysis costs: verifier
// time vs staticcheck time per program, over the same corpus the other
// benches use. The point of comparison: staticcheck is path-INsensitive
// (merges at joins), so its cost stays flat where the verifier's path
// enumeration grows with branch count.
//
// Default: google-benchmark timing. With `--json PATH` it instead runs a
// fixed-iteration measurement pass and writes a machine-readable summary
// (the BENCH_staticcheck.json CI artifact).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "bench/benchutil.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/verifier.h"
#include "src/staticcheck/check.h"

namespace {

using safex::System;

struct Corpus {
  std::string name;
  ebpf::Program prog;
};

// Builds one rig + corpus pair per benchmark process; the rig owns the
// maps the programs reference.
System& SharedRig() {
  static System rig;
  return rig;
}

std::vector<Corpus>& SharedCorpus() {
  static std::vector<Corpus> corpus = [] {
    System& rig = SharedRig();
    std::vector<Corpus> built;
    const int counter_fd =
        benchutil::MustCreateArrayMap(rig, "cnt", 8, 4);
    const auto add = [&](const char* name,
                         xbase::Result<ebpf::Program> prog) {
      if (prog.ok()) {
        built.push_back({name, std::move(prog).value()});
      }
    };
    add("straight-256", analysis::BuildStraightLine(256));
    add("diamonds-16", analysis::BuildBranchDiamonds(16));
    add("counted-loop-64", analysis::BuildCountedLoop(64));
    add("packet-counter", analysis::BuildPacketCounter(counter_fd));
    add("sk-lookup-ok", analysis::BuildSkLookupWithRelease());
    return built;
  }();
  return corpus;
}

void BM_Verify(benchmark::State& state) {
  System& rig = SharedRig();
  const Corpus& entry = SharedCorpus()[state.range(0)];
  ebpf::VerifyOptions opts;
  opts.version = rig.kernel.version();
  opts.faults = &rig.bpf.faults();
  opts.kfuncs = &rig.bpf.kfuncs();
  for (auto _ : state) {
    auto result =
        ebpf::Verify(entry.prog, rig.bpf.maps(), rig.bpf.helpers(), opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(entry.name);
}

void BM_StaticCheck(benchmark::State& state) {
  System& rig = SharedRig();
  const Corpus& entry = SharedCorpus()[state.range(0)];
  staticcheck::CheckOptions opts;
  opts.maps = &rig.bpf.maps();
  opts.helpers = &rig.bpf.helpers();
  opts.callgraph = &rig.kernel.callgraph();
  for (auto _ : state) {
    auto report = staticcheck::RunChecks(entry.prog, opts);
    benchmark::DoNotOptimize(report);
  }
  state.SetLabel(entry.name);
}

void RegisterAll() {
  const auto count = static_cast<int>(SharedCorpus().size());
  for (int i = 0; i < count; ++i) {
    benchmark::RegisterBenchmark("BM_Verify", BM_Verify)->Arg(i);
    benchmark::RegisterBenchmark("BM_StaticCheck", BM_StaticCheck)->Arg(i);
  }
}

// Fixed-iteration pass writing one JSON object per corpus program: mean
// verifier and staticcheck wall time, instruction count, finding totals.
int RunJson(const char* path) {
  constexpr int kIters = 30;
  System& rig = SharedRig();
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "staticcheck_cost: cannot write %s\n", path);
    return 2;
  }
  const auto mean_ns = [](auto&& fn) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      fn();
    }
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
               .count() /
           kIters;
  };

  std::fprintf(out, "{\n  \"bench\": \"staticcheck_cost\",\n");
  std::fprintf(out, "  \"iterations\": %d,\n  \"programs\": [\n", kIters);
  xbase::u64 total_findings = 0;
  const std::vector<Corpus>& corpus = SharedCorpus();
  for (xbase::usize i = 0; i < corpus.size(); ++i) {
    const Corpus& entry = corpus[i];
    ebpf::VerifyOptions vopts;
    vopts.version = rig.kernel.version();
    vopts.faults = &rig.bpf.faults();
    vopts.kfuncs = &rig.bpf.kfuncs();
    const long long verify_ns = mean_ns([&] {
      auto result =
          ebpf::Verify(entry.prog, rig.bpf.maps(), rig.bpf.helpers(), vopts);
      benchmark::DoNotOptimize(result);
    });

    staticcheck::CheckOptions copts;
    copts.maps = &rig.bpf.maps();
    copts.helpers = &rig.bpf.helpers();
    copts.callgraph = &rig.kernel.callgraph();
    xbase::usize findings = 0;
    const long long static_ns = mean_ns([&] {
      auto report = staticcheck::RunChecks(entry.prog, copts);
      if (report.ok()) {
        findings = report.value().findings.size();
      }
      benchmark::DoNotOptimize(report);
    });
    total_findings += findings;

    std::fprintf(out,
                 "    {\"name\": \"%s\", \"insns\": %u, "
                 "\"verify_ns\": %lld, \"staticcheck_ns\": %lld, "
                 "\"findings\": %zu}%s\n",
                 entry.name.c_str(), entry.prog.len(), verify_ns, static_ns,
                 findings, i + 1 < corpus.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"programs_analyzed\": %zu,\n",
               corpus.size());
  std::fprintf(out, "  \"total_findings\": %llu\n}\n",
               static_cast<unsigned long long>(total_findings));
  std::fclose(out);
  std::printf("staticcheck_cost: wrote %s (%zu programs)\n", path,
              corpus.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return RunJson(argv[i + 1]);
    }
  }
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
