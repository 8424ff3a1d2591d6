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
// each on a fresh rig + service; wall time is the case's min.
//
// Two more cases time the verdict cache alone: Acquire and Publish of a
// fresh key into a full cache (every publish evicts) and into an empty one.
// Eviction is O(1), so the gate holds the full cache to at most 4x the
// empty one's cost, both measured in this run. `--json PATH` also writes
// the BENCH_admission.json artifact.
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
// VerdictCache holds 16 x 1024 entries; this many distinct keys fill every
// shard.
constexpr usize kCacheFill = 20000;
constexpr int kPublishTrials = 9;
constexpr int kPublishIters = 1000;
constexpr double kPublishFullOverEmptyBound = 4.0;

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

// A distinct cache key per index; the cache hashes the digest's first
// eight bytes.
service::VerdictKey IndexKey(u64 index) {
  service::VerdictKey key;
  for (usize i = 0; i < 8; ++i) {
    key.content[i] = static_cast<xbase::u8>(index >> (8 * i));
  }
  return key;
}

// Times one Acquire + Publish of a fresh key into a cache that `fill` keys
// were published into first; returns the case's min ns per publish.
double MeasurePublish(harness::Bench& bench, const char* name, usize fill) {
  service::VerdictCache cache;
  for (usize i = 0; i < fill; ++i) {
    (void)cache.Acquire(IndexKey(i));
    cache.Publish(IndexKey(i), service::Verdict{}, /*cacheable=*/true);
  }
  const service::CacheStats before = cache.stats();
  std::vector<service::VerdictKey> keys;
  for (usize i = 0; i <= kPublishTrials * kPublishIters; ++i) {
    keys.push_back(IndexKey(fill + i));
  }
  usize next = 0;
  const harness::Stats stats = bench.Time(
      name, kPublishTrials, kPublishIters,
      [&] {
        const service::VerdictKey& key = keys[next++];
        (void)cache.Acquire(key);
        cache.Publish(key, service::Verdict{}, /*cacheable=*/true);
      },
      [&](harness::Fields& counters, u64 calls) {
        const service::CacheStats after = cache.stats();
        const u64 misses = after.misses - before.misses;
        const u64 evictions = after.evictions - before.evictions;
        counters.emplace_back("entries", after.entries);
        counters.emplace_back("evictions", evictions);
        // A full cache evicts one entry per publish, an empty one none.
        const u64 want_evictions = before.entries == 0 ? 0 : calls;
        if (misses != calls || evictions != want_evictions) {
          return xbase::Internal(xbase::StrFormat(
              "%llu misses and %llu evictions for %llu publishes",
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(evictions),
              static_cast<unsigned long long>(calls)));
        }
        return xbase::Status::Ok();
      });
  return stats.min_ns;
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
  const double publish_full_ns =
      MeasurePublish(bench, "cache/publish-full", kCacheFill);
  const double publish_empty_ns =
      MeasurePublish(bench, "cache/publish-empty", 0);
  const double publish_ratio = publish_full_ns / publish_empty_ns;
  bench.Gate("cache_publish_full_over_empty", "min_ns", publish_ratio,
             kPublishFullOverEmptyBound,
             publish_ratio <= kPublishFullOverEmptyBound);

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
