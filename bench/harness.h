// The one bench harness. A bench that times something measures each case
// through Bench::Time — one untimed warm-up call, then `trials` batches of
// `iters` calls, summarized as the min / median / p90 of the per-call batch
// means — checks the case's result once, and with `--json PATH` writes one
// schema shared by every bench:
//
//   {"bench", "host": {nproc, compiler, build_type},
//    "cases": [{name, iters, trials, min_ns, median_ns, p90_ns, counters}],
//    "rows": [untimed count tables], "gates": [{name, stat, value, bound,
//    pass}], "gate_passed"}
//
// A bench runs the same cases with or without `--json` and prints its
// table either way. The table helpers every bench shares live here too.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/xbase/bytes.h"
#include "src/xbase/status.h"
#include "src/xbase/strfmt.h"

namespace harness {

inline void Title(const std::string& text) {
  std::printf("\n=== %s ===\n", text.c_str());
}

inline void Rule(int width = 78) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline void Note(const std::string& text) {
  std::printf("  note: %s\n", text.c_str());
}

// Creates an array map of the given geometry, exiting on failure.
inline int MustCreateArrayMap(safex::System& rig, const std::string& name,
                              xbase::u32 value_size, xbase::u32 entries) {
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kArray;
  spec.key_size = 4;
  spec.value_size = value_size;
  spec.max_entries = entries;
  spec.name = name;
  auto fd = rig.bpf.maps().Create(spec);
  if (!fd.ok()) {
    std::fprintf(stderr, "map create failed: %s\n",
                 fd.status().ToString().c_str());
    std::exit(1);
  }
  return fd.value();
}

// The u64 at the head of slot `index` of array map `fd`: where a packet
// counter counts, so a case can check its calls all landed.
inline xbase::Result<xbase::u64> ReadSlot(safex::System& rig, int fd,
                                          xbase::u32 index) {
  XB_ASSIGN_OR_RETURN(ebpf::Map * map, rig.bpf.maps().Find(fd));
  xbase::u8 key[4];
  xbase::StoreLe32(key, index);
  XB_ASSIGN_OR_RETURN(const simkern::Addr addr,
                      map->LookupAddr(rig.kernel, key));
  return rig.kernel.mem().ReadU64(addr);
}

// ---- timing ----------------------------------------------------------------

struct Stats {
  double min_ns = 0;
  double median_ns = 0;
  double p90_ns = 0;
};

// Quantile `q` of an ascending sample, interpolating between closest ranks.
inline double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

inline Stats Summarize(std::vector<double> batch_means) {
  std::sort(batch_means.begin(), batch_means.end());
  return {batch_means.front(), Quantile(batch_means, 0.5),
          Quantile(batch_means, 0.9)};
}

// One untimed warm-up call (decode caches, exec-stack lease, map state),
// then `trials` timed batches of `iters` calls each.
template <typename Fn>
Stats Measure(int trials, int iters, Fn&& fn) {
  fn();
  std::vector<double> batch_means;
  for (int t = 0; t < trials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    const auto end = std::chrono::steady_clock::now();
    batch_means.push_back(
        std::chrono::duration<double, std::nano>(end - start).count() /
        iters);
  }
  return Summarize(std::move(batch_means));
}

// ---- JSON ------------------------------------------------------------------

inline std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += xbase::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class Json;
using Fields = std::vector<std::pair<std::string, Json>>;

// One JSON value, rendered when built.
class Json {
 public:
  Json(const char* text) : text_(Quote(text)) {}
  Json(const std::string& text) : text_(Quote(text)) {}
  Json(bool flag) : text_(flag ? "true" : "false") {}
  // Shortest text that reads back as the same double.
  Json(double value) : text_("null") {
    char buf[32];
    if (std::isfinite(value)) {
      text_.assign(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
    }
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json(T value) : text_(std::to_string(value)) {}
  Json(const Fields& fields) : text_("{") {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      text_ += (i == 0 ? "" : ", ") + Quote(fields[i].first) + ": " +
               fields[i].second.text();
    }
    text_ += "}";
  }

  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

// ---- the bench -------------------------------------------------------------

class Bench {
 public:
  // The one flag is `--json PATH`; anything else prints usage, exits 2.
  Bench(std::string name, int argc, char** argv) : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc &&
          argv[i + 1][0] != '\0' && json_path_.empty()) {
        json_path_ = argv[++i];
        continue;
      }
      std::fprintf(stderr, "usage: %s [--json PATH]\n", name_.c_str());
      std::exit(2);
    }
  }

  // Times one case, then checks its result once: `check(counters, calls)`
  // reads what the calls left behind (`calls` counts the warm-up), may add
  // counters, and returns non-OK if the calls did not do what the case
  // claims. A failed check exits 1 before any gate is evaluated.
  template <typename Fn, typename Check>
  Stats Time(const std::string& name, int trials, int iters, Fn&& fn,
             Check&& check) {
    const Stats stats = Measure(trials, iters, fn);
    Fields counters;
    const xbase::Status status =
        check(counters, 1 + static_cast<xbase::u64>(trials) * iters);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: FAIL — case %s: %s\n", name_.c_str(),
                   name.c_str(), status.message().c_str());
      std::exit(1);
    }
    if (cases_.empty()) {
      std::printf("  %-34s %14s %10s %10s %10s\n", "case", "iters x trials",
                  "min", "median", "p90");
    }
    std::string extra;
    for (const auto& [key, value] : counters) {
      extra += " " + key + "=" + value.text();
    }
    std::printf("  %-34s %5d x %-6d %10s %10s %10s%s\n", name.c_str(),
                iters, trials, Ns(stats.min_ns).c_str(),
                Ns(stats.median_ns).c_str(), Ns(stats.p90_ns).c_str(),
                extra.c_str());
    cases_.push_back({{"name", name},
                      {"iters", iters},
                      {"trials", trials},
                      {"min_ns", stats.min_ns},
                      {"median_ns", stats.median_ns},
                      {"p90_ns", stats.p90_ns},
                      {"counters", counters}});
    return stats;
  }

  // One row of an untimed count table.
  void Row(Fields fields) { rows_.push_back(std::move(fields)); }

  // Records a gate; `stat` names the statistic `value` was read from.
  void Gate(const std::string& name, const std::string& stat, double value,
            double bound, bool pass) {
    std::printf("  gate %s (%s): %.4g, bound %.4g — %s\n", name.c_str(),
                stat.c_str(), value, bound, pass ? "PASS" : "FAIL");
    gates_.push_back({{"name", name},
                      {"stat", stat},
                      {"value", value},
                      {"bound", bound},
                      {"pass", pass}});
    passed_ = passed_ && pass;
  }

  // Writes the JSON file if `--json` asked for one. Returns the exit code:
  // 0 when every gate passed, 1 when one failed, 2 if the file can't be
  // written.
  int Finish() const {
    if (!json_path_.empty()) {
      FILE* out = std::fopen(json_path_.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "%s: cannot write %s\n", name_.c_str(),
                     json_path_.c_str());
        return 2;
      }
      std::fprintf(out,
                   "{\n  \"bench\": %s,\n  \"host\": %s,\n  \"cases\": %s,\n"
                   "  \"rows\": %s,\n  \"gates\": %s,\n  \"gate_passed\": "
                   "%s\n}\n",
                   Quote(name_).c_str(), Json(Host()).text().c_str(),
                   List(cases_).c_str(), List(rows_).c_str(),
                   List(gates_).c_str(), passed_ ? "true" : "false");
      std::fclose(out);
      std::printf("%s: wrote %s\n", name_.c_str(), json_path_.c_str());
    }
    if (!passed_) {
      std::fprintf(stderr, "%s: FAIL — a gate did not hold\n",
                   name_.c_str());
      return 1;
    }
    return 0;
  }

 private:
  static Fields Host() {
#ifdef __clang__
    const char* compiler = "clang " __clang_version__;
#else
    const char* compiler = "gcc " __VERSION__;
#endif
    return {{"nproc", std::thread::hardware_concurrency()},
            {"compiler", compiler},
            {"build_type", UNTENABLE_BUILD_TYPE}};
  }

  static std::string List(const std::vector<Fields>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += (i == 0 ? "\n    " : ",\n    ") + Json(items[i]).text();
    }
    return out + (items.empty() ? "]" : "\n  ]");
  }

  // A duration in the unit that keeps it readable.
  static std::string Ns(double ns) {
    if (ns < 1e4) {
      return xbase::StrFormat("%.1f ns", ns);
    }
    return ns < 1e7 ? xbase::StrFormat("%.2f us", ns / 1e3)
                    : xbase::StrFormat("%.2f ms", ns / 1e6);
  }

  std::string name_;
  std::string json_path_;
  std::vector<Fields> cases_;
  std::vector<Fields> rows_;
  std::vector<Fields> gates_;
  bool passed_ = true;
};

}  // namespace harness
