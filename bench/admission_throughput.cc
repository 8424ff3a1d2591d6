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
// Default: human-readable table. `--json PATH` writes the
// BENCH_admission.json CI artifact instead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/benchutil.h"
#include "src/analysis/workloads.h"
#include "src/service/admission.h"

namespace {

using xbase::u64;
using xbase::usize;

constexpr usize kMixedPrograms = 96;
constexpr usize kDuplicatePrograms = 192;
constexpr int kReps = 3;  // fresh rig + service per rep; best-of wall time

struct Cell {
  std::string corpus;
  usize workers = 0;
  bool cache = true;
  double wall_ms = 0.0;
  double programs_per_sec = 0.0;
  u64 admitted = 0;
  u64 cache_hits = 0;
  u64 coalesced_waits = 0;
  u64 verify_runs = 0;
  u64 queue_depth_peak = 0;
};

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

Cell Measure(const std::string& corpus_name,
             const std::vector<ebpf::Program>& corpus, usize workers,
             bool cache) {
  Cell cell;
  cell.corpus = corpus_name;
  cell.workers = workers;
  cell.cache = cache;
  cell.wall_ms = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    safex::System rig;
    service::AdmissionConfig config;
    config.workers = workers;
    config.cache_enabled = cache;
    service::AdmissionService svc(config, rig.bpf, rig.loader);

    const auto start = std::chrono::steady_clock::now();
    const auto results = svc.LoadBatch(corpus);
    const auto end = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();

    u64 admitted = 0;
    for (const auto& result : results) {
      admitted += result.ok() ? 1 : 0;
    }
    if (admitted != corpus.size()) {
      std::fprintf(stderr,
                   "admission_throughput: %s/%zuw: only %llu of %zu "
                   "admitted\n",
                   corpus_name.c_str(), workers,
                   static_cast<unsigned long long>(admitted), corpus.size());
      std::exit(1);
    }
    if (wall_ms < cell.wall_ms) {
      cell.wall_ms = wall_ms;
      const service::AdmissionMetrics m = svc.Metrics();
      cell.admitted = admitted;
      cell.cache_hits = m.cache.hits;
      cell.coalesced_waits = m.cache.coalesced_waits;
      cell.verify_runs = m.verify_runs;
      cell.queue_depth_peak = m.queue_depth_peak;
    }
    svc.Shutdown();
  }
  cell.programs_per_sec =
      static_cast<double>(corpus.size()) / (cell.wall_ms / 1000.0);
  return cell;
}

void PrintTable(const std::vector<Cell>& cells) {
  benchutil::Title("ADMIT — admission pipeline throughput");
  std::printf("  host CPUs: %u (worker scaling is bounded by this)\n",
              std::thread::hardware_concurrency());
  std::printf("  %-10s %7s %6s %10s %12s %8s %8s %9s\n", "corpus",
              "workers", "cache", "wall ms", "progs/sec", "hits",
              "verify", "peak q");
  benchutil::Rule();
  for (const Cell& cell : cells) {
    std::printf("  %-10s %7zu %6s %10.2f %12.0f %8llu %8llu %9llu\n",
                cell.corpus.c_str(), cell.workers,
                cell.cache ? "on" : "off", cell.wall_ms,
                cell.programs_per_sec,
                static_cast<unsigned long long>(cell.cache_hits),
                static_cast<unsigned long long>(cell.verify_runs),
                static_cast<unsigned long long>(cell.queue_depth_peak));
  }
}

const Cell& FindCell(const std::vector<Cell>& cells, const char* corpus,
                     usize workers, bool cache) {
  for (const Cell& cell : cells) {
    if (cell.corpus == corpus && cell.workers == workers &&
        cell.cache == cache) {
      return cell;
    }
  }
  std::fprintf(stderr, "admission_throughput: missing cell %s/%zu\n", corpus,
               workers);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: admission_throughput [--json PATH]\n");
      return 2;
    }
  }

  const std::vector<ebpf::Program> mixed = BuildMixedCorpus();
  const std::vector<ebpf::Program> duplicate = BuildDuplicateCorpus();
  if (mixed.size() != kMixedPrograms ||
      duplicate.size() != kDuplicatePrograms) {
    std::fprintf(stderr, "admission_throughput: corpus setup failed\n");
    return 1;
  }

  std::vector<Cell> cells;
  for (const usize workers : {1, 2, 4, 8}) {
    cells.push_back(Measure("mixed", mixed, workers, /*cache=*/true));
  }
  for (const usize workers : {1, 2, 4, 8}) {
    cells.push_back(Measure("duplicate", duplicate, workers, /*cache=*/true));
  }
  // The pre-pipeline cost profile: sequential, every duplicate re-verified.
  cells.push_back(Measure("duplicate", duplicate, 1, /*cache=*/false));

  const double speedup_mixed =
      FindCell(cells, "mixed", 4, true).programs_per_sec /
      FindCell(cells, "mixed", 1, true).programs_per_sec;
  const double speedup_duplicate =
      FindCell(cells, "duplicate", 4, true).programs_per_sec /
      FindCell(cells, "duplicate", 1, false).programs_per_sec;

  if (json_path != nullptr) {
    FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "admission_throughput: cannot write %s\n",
                   json_path);
      return 2;
    }
    std::fprintf(out, "{\n  \"bench\": \"admission_throughput\",\n");
    // Worker scaling is bounded by the host: on a 1-CPU runner the mixed
    // corpus cannot speed up no matter how many workers exist.
    std::fprintf(out, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out,
                 "  \"corpus\": {\"mixed\": {\"programs\": %zu, "
                 "\"distinct\": %zu}, \"duplicate\": {\"programs\": %zu, "
                 "\"distinct\": 1}},\n",
                 mixed.size(), mixed.size(), duplicate.size());
    std::fprintf(out, "  \"grid\": [\n");
    for (usize i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      std::fprintf(
          out,
          "    {\"corpus\": \"%s\", \"workers\": %zu, \"cache\": %s, "
          "\"wall_ms\": %.3f, \"programs_per_sec\": %.0f, "
          "\"cache_hits\": %llu, \"coalesced_waits\": %llu, "
          "\"verify_runs\": %llu, \"queue_depth_peak\": %llu}%s\n",
          cell.corpus.c_str(), cell.workers, cell.cache ? "true" : "false",
          cell.wall_ms, cell.programs_per_sec,
          static_cast<unsigned long long>(cell.cache_hits),
          static_cast<unsigned long long>(cell.coalesced_waits),
          static_cast<unsigned long long>(cell.verify_runs),
          static_cast<unsigned long long>(cell.queue_depth_peak),
          i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"speedup\": {\n");
    std::fprintf(out, "    \"mixed_4w_over_1w\": %.2f,\n", speedup_mixed);
    std::fprintf(out,
                 "    \"duplicate_cached_4w_over_uncached_1w\": %.2f\n",
                 speedup_duplicate);
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
    std::printf("admission_throughput: wrote %s\n", json_path);
  } else {
    PrintTable(cells);
    benchutil::Rule();
    std::printf("  mixed corpus, 4 workers over 1:            %.2fx\n",
                speedup_mixed);
    std::printf("  duplicate corpus, cached 4w over uncached: %.2fx\n",
                speedup_duplicate);
    benchutil::Note(
        "duplicate baseline (1 worker, cache off) is the old synchronous "
        "load path: every duplicate re-pays the B-VER verification tax");
  }
  return 0;
}
