// Spans recorded from outside the program: the benchmark wraps each call it
// makes into a layer's public function in a Span (name, start, end, parent,
// request id). Nothing inside src/ is instrumented.
//
// Every span feeds per-name statistics (count, duration and self-time
// histograms) and per-layer self-time totals. The spans of every 64th
// request are also kept in memory, up to a fixed cap per thread, and are
// written out once, at exit. Each recording thread owns one slot, so the
// hot path takes no lock.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/histogram.h"

namespace perfbench {

std::uint64_t NowNs();

enum class Layer : std::uint8_t {
  kHooks,
  kSupervisor,
  kLoader,
  kEngine,
  kSafex,
  kMaps,
  kSched,
  kVerifier,
  kStaticcheck,
  kJit,
  kService,
  kSmp,
};
inline constexpr std::size_t kLayerCount = 12;
std::string_view LayerName(Layer layer);

enum class SpanName : std::uint8_t {
  kHooksFire,
  kHooksAttach,
  kHooksDetach,
  kSupervisorAdmit,
  kSupervisorRecord,
  kLoaderFind,
  kLoaderPrepare,
  kLoaderInstall,
  kLoaderUnload,
  kExec,
  kSafexInvoke,
  kSafexPrepare,
  kSafexInstall,
  kSafexUnload,
  kMapUpdate,
  kMapDelete,
  kSchedTick,
  kStaticcheck,
  kVerify,
  kJit,
  kServiceSubmit,
  kServiceWait,
  kSmpSubmit,
  kSmpDrain,
};
inline constexpr std::size_t kSpanNameCount = 24;
std::string_view SpanNameString(SpanName name);
Layer LayerOf(SpanName name);

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanName name = SpanName::kHooksFire;
};

struct NameStats {
  std::uint64_t count = 0;
  Histogram duration;
  Histogram self;
};

class Tracer {
 public:
  // `slots`: one per recording thread.
  explicit Tracer(std::size_t slots);

  struct Slot {
    std::array<NameStats, kSpanNameCount> names;
    std::array<std::uint64_t, kLayerCount> layer_self_ns{};
    std::vector<SpanRecord> kept;
    std::uint64_t next_id = 0;
  };
  Slot& slot(std::size_t index) { return slots_[index]; }

  // Merged over all slots.
  NameStats Merged(SpanName name) const;
  std::uint64_t LayerSelfNs(Layer layer) const;
  // What one pair of clock reads adds to a measured span; subtracted from
  // every span's duration.
  std::uint64_t clock_overhead_ns() const { return clock_overhead_ns_; }

  // One JSON object per kept span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Slot> slots_;
  std::uint64_t clock_overhead_ns_ = 0;
};

// One span. Timing starts at construction; End() stamps the end, and the
// destructor (or Finish) accounts the span: its self time is its duration
// minus the durations its children reported. A child may finish after its
// parent ended (a replayed call decomposing the parent from outside), as
// long as it finishes before the parent does. A null tracer makes every
// operation a no-op.
class Span {
 public:
  Span(Tracer* tracer, std::size_t slot, SpanName name,
       std::uint64_t request, Span* parent = nullptr);
  ~Span() { Finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void End();
  void Finish();
  std::uint64_t duration_ns() const {
    const std::uint64_t raw = end_ns_ - start_ns_;
    return raw > overhead_ns_ ? raw - overhead_ns_ : 0;
  }
  // Clamped at 0: a replayed child can outlast its share of the parent.
  std::uint64_t self_ns() const {
    return duration_ns() > child_ns_ ? duration_ns() - child_ns_ : 0;
  }

  // Records a child measured by someone else (e.g. a stage time the
  // program reported), placed at the start of this span.
  void AddMeasuredChild(SpanName name, std::uint64_t duration_ns);

 private:
  Tracer* tracer_;
  std::size_t slot_;
  SpanName name_;
  std::uint64_t request_;
  Span* parent_;
  std::uint64_t id_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t end_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  std::uint64_t overhead_ns_ = 0;
  bool ended_ = false;
  bool finished_ = false;
};

}  // namespace perfbench
