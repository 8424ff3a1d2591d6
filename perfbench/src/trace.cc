#include "src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

// Requests whose spans are kept for the trace file, and the per-slot cap.
constexpr std::uint64_t kKeepEvery = 64;
constexpr std::size_t kKeepCap = 1 << 15;

struct SpanInfo {
  std::string_view name;
  Layer layer;
};

constexpr std::array<SpanInfo, kSpanNameCount> kSpans = {{
    {"hooks.fire", Layer::kHooks},
    {"hooks.attach", Layer::kHooks},
    {"hooks.detach", Layer::kHooks},
    {"supervisor.admit", Layer::kSupervisor},
    {"supervisor.record", Layer::kSupervisor},
    {"ebpf.loader.find", Layer::kLoader},
    {"ebpf.loader.prepare", Layer::kLoader},
    {"ebpf.loader.install", Layer::kLoader},
    {"ebpf.loader.unload", Layer::kLoader},
    {"ebpf.exec", Layer::kEngine},
    {"safex.invoke", Layer::kSafex},
    {"safex.prepare", Layer::kSafex},
    {"safex.install", Layer::kSafex},
    {"safex.unload", Layer::kSafex},
    {"ebpf.maps.update", Layer::kMaps},
    {"ebpf.maps.delete", Layer::kMaps},
    {"sched.tick", Layer::kSched},
    {"staticcheck.check", Layer::kStaticcheck},
    {"verifier.verify", Layer::kVerifier},
    {"jit.compile", Layer::kJit},
    {"service.submit", Layer::kService},
    {"service.wait", Layer::kService},
    {"smp.submit", Layer::kSmp},
    {"smp.drain_wait", Layer::kSmp},
}};

constexpr std::array<std::string_view, kLayerCount> kLayers = {
    "core.hooks",      "core.supervisor", "ebpf.loader", "ebpf.engine",
    "safex.runtime",   "ebpf.maps",       "core.sched",  "ebpf.verifier",
    "staticcheck",     "ebpf.jit",        "service",     "simkern.smp",
};

}  // namespace

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string_view LayerName(Layer layer) {
  return kLayers[static_cast<std::size_t>(layer)];
}

std::string_view SpanNameString(SpanName name) {
  return kSpans[static_cast<std::size_t>(name)].name;
}

Layer LayerOf(SpanName name) {
  return kSpans[static_cast<std::size_t>(name)].layer;
}

Tracer::Tracer(std::size_t slots) : slots_(slots) {
  std::vector<std::uint64_t> gaps(1001);
  for (std::uint64_t& gap : gaps) {
    const std::uint64_t t0 = NowNs();
    gap = NowNs() - t0;
  }
  std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
  clock_overhead_ns_ = gaps[gaps.size() / 2];
}

NameStats Tracer::Merged(SpanName name) const {
  NameStats merged;
  for (const Slot& slot : slots_) {
    const NameStats& stats = slot.names[static_cast<std::size_t>(name)];
    merged.count += stats.count;
    merged.duration.Merge(stats.duration);
    merged.self.Merge(stats.self);
  }
  return merged;
}

std::uint64_t Tracer::LayerSelfNs(Layer layer) const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.layer_self_ns[static_cast<std::size_t>(layer)];
  }
  return total;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (std::size_t index = 0; index < slots_.size(); ++index) {
    for (const SpanRecord& span : slots_[index].kept) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"layer\":\"%s\",\"thread\":%zu,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   SpanNameString(span.name).data(),
                   LayerName(LayerOf(span.name)).data(), index,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

Span::Span(Tracer* tracer, std::size_t slot, SpanName name,
           std::uint64_t request, Span* parent)
    : tracer_(tracer),
      slot_(slot),
      name_(name),
      request_(request),
      parent_(parent) {
  if (tracer_ == nullptr) {
    return;
  }
  Tracer::Slot& state = tracer_->slot(slot_);
  overhead_ns_ = tracer_->clock_overhead_ns();
  // Ids are unique across slots: the slot index sits in the low byte.
  id_ = ((++state.next_id) << 8) | slot_;
  start_ns_ = NowNs();
}

void Span::End() {
  if (tracer_ != nullptr && !ended_) {
    end_ns_ = NowNs();
    ended_ = true;
  }
}

void Span::Finish() {
  if (tracer_ == nullptr || finished_) {
    return;
  }
  End();
  finished_ = true;
  Tracer::Slot& state = tracer_->slot(slot_);
  NameStats& stats = state.names[static_cast<std::size_t>(name_)];
  ++stats.count;
  stats.duration.Record(duration_ns());
  stats.self.Record(self_ns());
  state.layer_self_ns[static_cast<std::size_t>(LayerOf(name_))] += self_ns();
  if (parent_ != nullptr) {
    parent_->child_ns_ += duration_ns();
  }
  if (request_ % kKeepEvery == 0 && state.kept.size() < kKeepCap) {
    state.kept.push_back(SpanRecord{id_, parent_ != nullptr ? parent_->id_ : 0,
                                    request_, start_ns_, end_ns_, name_});
  }
}

void Span::AddMeasuredChild(SpanName name, std::uint64_t duration_ns) {
  if (tracer_ == nullptr) {
    return;
  }
  Span child(tracer_, slot_, name, request_, this);
  child.start_ns_ = start_ns_;
  child.end_ns_ = start_ns_ + duration_ns;
  child.overhead_ns_ = 0;  // measured by the program, not by two clock reads
  child.ended_ = true;
}

}  // namespace perfbench
