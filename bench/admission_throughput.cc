// ADMIT — admission pipeline throughput: programs/sec through the
// concurrent admission service at 1/2/4/8 workers, on two corpora:
//
//   mixed      distinct verifier-heavy programs (every load pays the full
//              verification tax; the win is parallelism);
//   duplicate  one verifier-heavy program submitted N times (the win is
//              the content-addressed verdict cache: verify once, then
//              every duplicate is a hash lookup).
//
// The duplicate baseline is 1 worker with the cache disabled — exactly the
// cost profile of the old synchronous Loader::Load path, where every
// duplicate re-paid verification (the paper's B-VER tax, N times over).
//
// Every cell is one case: 3 trials of one batch after one warm-up batch,
// each on a fresh rig + service; wall time is the case's min. `--json PATH`
// also writes the BENCH_admission.json artifact.
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/analysis/workloads.h"
#include "src/service/admission.h"

namespace {

using xbase::u64;
using xbase::usize;

constexpr usize kMixedPrograms = 96;
constexpr usize kDuplicatePrograms = 192;
constexpr int kTrials = 3;

// Distinct verifier-heavy programs: counted loops with distinct trip
// counts, so verification cost is real (the verifier walks every
// iteration) and no two programs share a content hash.
std::vector<ebpf::Program> BuildMixedCorpus() {
  std::vector<ebpf::Program> corpus;
  corpus.reserve(kMixedPrograms);
  for (usize i = 0; i < kMixedPrograms; ++i) {
    auto prog =
        analysis::BuildCountedLoop(static_cast<xbase::u32>(3000 + 61 * i));
    if (prog.ok()) {
      corpus.push_back(std::move(prog).value());
    }
  }
  return corpus;
}

// One heavy program, many times: 100% content-duplicate.
std::vector<ebpf::Program> BuildDuplicateCorpus() {
  std::vector<ebpf::Program> corpus;
  auto prog = analysis::BuildCountedLoop(6000);
  if (!prog.ok()) {
    return corpus;
  }
  corpus.reserve(kDuplicatePrograms);
  for (usize i = 0; i < kDuplicatePrograms; ++i) {
    corpus.push_back(prog.value());
  }
  return corpus;
}

// One rig + service per batch, built before the clock starts.
struct Rep {
  explicit Rep(const service::AdmissionConfig& config)
      : svc(config, rig.bpf, rig.loader) {}
  safex::System rig;
  service::AdmissionService svc;
  u64 admitted = 0;
};

// Times LoadBatch over `corpus`; returns programs/sec at the min wall time.
double Measure(harness::Bench& bench, const char* corpus_name,
               const std::vector<ebpf::Program>& corpus, usize workers,
               bool cache) {
  service::AdmissionConfig config;
  config.workers = workers;
  config.cache_enabled = cache;
  std::vector<std::unique_ptr<Rep>> reps;  // one per call, warm-up included
  for (int i = 0; i <= kTrials; ++i) {
    reps.push_back(std::make_unique<Rep>(config));
  }
  usize next = 0;
  const harness::Stats stats = bench.Time(
      xbase::StrFormat("%s/%zuw/cache-%s", corpus_name, workers,
                       cache ? "on" : "off"),
      kTrials, 1,
      [&] {
        Rep& rep = *reps[next++];
        for (const auto& result : rep.svc.LoadBatch(corpus)) {
          rep.admitted += result.ok() ? 1 : 0;
        }
      },
      [&](harness::Fields& counters, u64) {
        for (const auto& rep : reps) {
          if (rep->admitted != corpus.size()) {
            return xbase::Internal(xbase::StrFormat(
                "only %llu of %zu admitted",
                static_cast<unsigned long long>(rep->admitted),
                corpus.size()));
          }
        }
        const service::AdmissionMetrics m = reps.back()->svc.Metrics();
        counters.emplace_back("cache_hits", m.cache.hits);
        counters.emplace_back("coalesced_waits", m.cache.coalesced_waits);
        counters.emplace_back("verify_runs", m.verify_runs);
        counters.emplace_back("queue_depth_peak", m.queue_depth_peak);
        return xbase::Status::Ok();
      });
  const double programs_per_sec =
      static_cast<double>(corpus.size()) / (stats.min_ns / 1e9);
  bench.Row({{"corpus", corpus_name},
             {"workers", workers},
             {"cache", cache},
             {"programs_per_sec", programs_per_sec}});
  return programs_per_sec;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Bench bench("admission_throughput", argc, argv);
  const std::vector<ebpf::Program> mixed = BuildMixedCorpus();
  const std::vector<ebpf::Program> duplicate = BuildDuplicateCorpus();
  if (mixed.size() != kMixedPrograms ||
      duplicate.size() != kDuplicatePrograms) {
    std::fprintf(stderr, "admission_throughput: corpus setup failed\n");
    return 1;
  }

  harness::Title("ADMIT — admission pipeline throughput");
  std::printf("  %zu distinct mixed programs, %zu duplicates of one; worker "
              "scaling is bounded by the host's CPUs\n",
              mixed.size(), duplicate.size());
  double mixed_pps[9] = {};  // by worker count
  double duplicate_pps[9] = {};
  for (const usize workers : {1, 2, 4, 8}) {
    mixed_pps[workers] = Measure(bench, "mixed", mixed, workers, true);
  }
  for (const usize workers : {1, 2, 4, 8}) {
    duplicate_pps[workers] =
        Measure(bench, "duplicate", duplicate, workers, true);
  }
  // The pre-pipeline cost profile: sequential, every duplicate re-verified.
  const double uncached_pps =
      Measure(bench, "duplicate", duplicate, 1, /*cache=*/false);

  const double speedup_mixed = mixed_pps[4] / mixed_pps[1];
  const double speedup_duplicate = duplicate_pps[4] / uncached_pps;
  bench.Row({{"mixed_4w_over_1w", speedup_mixed},
             {"duplicate_cached_4w_over_uncached_1w", speedup_duplicate}});
  harness::Rule();
  std::printf("  mixed corpus, 4 workers over 1:            %.2fx\n",
              speedup_mixed);
  std::printf("  duplicate corpus, cached 4w over uncached: %.2fx\n",
              speedup_duplicate);
  harness::Note(
      "duplicate baseline (1 worker, cache off) is the old synchronous "
      "load path: every duplicate re-pays the B-VER verification tax");
  return bench.Finish();
}
