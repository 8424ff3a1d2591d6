// datapath-1cpu and datapath-smp: trafficgen's event mix — packet fires,
// scheduler ticks, LSM file-open fires and hash-map churn — as a closed
// loop in batches of 128 events, inline on one simulated CPU or through
// the kernel's CpuPool with a Drain barrier per batch. Two attachments sit
// on the XDP hook, an eBPF and a signed safex packet counter, each counting
// into its own per-CPU array; at the end both sums must equal the packet
// fires (plus the executions a traced run replays).
#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "src/analysis/workloads.h"
#include "src/bench.h"
#include "src/core/sched.h"
#include "src/core/toolchain.h"
#include "src/simkern/lsm.h"
#include "src/xbase/bytes.h"
#include "src/xbase/rand.h"

namespace perfbench {
namespace {

using safex::HookPoint;
using xbase::u32;
using xbase::u64;
using xbase::u8;

// trafficgen's mix, in percent; the remainder is map churn.
constexpr u64 kPacketPct = 70;
constexpr u64 kSchedPct = 10;
constexpr u64 kLsmPct = 10;
constexpr u32 kBatchSize = 128;
constexpr u32 kTasks = 8;
constexpr u32 kChurnKeys = 128;  // = max_entries: inserts never fail
constexpr u8 kProtocol = 1;      // counter key 1, XDP_PASS
constexpr u64 kXdpPass = 2;
// Untimed warm-up before measuring, as a share of the measured time.
constexpr double kWarmupShare = 0.1;

enum class Kind : u8 { kPacket, kSched, kLsm, kUpdate, kDelete };

struct Event {
  Kind kind = Kind::kPacket;
  u32 cpu = 0;
  u32 key = 0;  // churn key
  u64 seq = 0;
};

// The signed safex twin of BuildPacketCounter: count by protocol class on
// the executing CPU's slot, drop class 3, pass the rest.
class PacketCounterExt : public safex::Extension {
 public:
  explicit PacketCounterExt(int map_fd) : map_fd_(map_fd) {}
  xbase::Result<u64> Run(safex::Ctx& ctx) override {
    auto packet = ctx.Packet();
    XB_RETURN_IF_ERROR(packet.status());
    if (packet.value().size() < 14) {
      return u64{1};
    }
    auto proto = packet.value().ReadU8(12);
    XB_RETURN_IF_ERROR(proto.status());
    auto map = ctx.Map(map_fd_);
    XB_RETURN_IF_ERROR(map.status());
    auto slot = map.value().LookupIndex(proto.value() & 3);
    XB_RETURN_IF_ERROR(slot.status());
    auto count = slot.value().ReadU64(0);
    XB_RETURN_IF_ERROR(count.status());
    XB_RETURN_IF_ERROR(slot.value().WriteU64(0, count.value() + 1));
    return u64{(proto.value() & 3) == 3 ? 1u : 2u};
  }

 private:
  int map_fd_;
};

// Per-CPU accounting: only the thread bound to a CPU touches its slot
// during a batch; the generator reads them after a Drain.
struct alignas(64) CpuAgg {
  Histogram fire_ns;
  safex::HookFireReport report;
  EngineTally engine;
  u64 xdp_fires = 0;
  u64 xdp_replays = 0;  // each runs both counters once more
  u64 batch_replay_ns = 0;
  u64 ops = 0;
  u64 failed = 0;
  std::string first_failure;

  void Fail(std::string why) {
    if (failed++ == 0) {
      first_failure = std::move(why);
    }
  }
};

int MakeMap(System& sys, ebpf::MapType type, u32 entries, const char* name) {
  ebpf::MapSpec spec;
  spec.type = type;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = entries;
  spec.name = name;
  auto fd = sys.bpf.maps().Create(spec);
  return fd.ok() ? fd.value() : -1;
}

// One booted system with the four tenants loaded and attached, plus the
// stream state that runs against it.
class Datapath {
 public:
  Datapath(u32 cpus, Tracer* tracer, ProgramTally& programs)
      : sys_(cpus), cpus_(cpus), tracer_(tracer), aggs_(cpus) {
    if (sys_.error.empty()) {
      SetUp(programs);
    }
    if (error_.empty() && !sys_.error.empty()) {
      error_ = sys_.error;
    }
  }
  // Stops the CPU threads before the members their tasks use go away.
  ~Datapath() { sys_.kernel.StopCpus(); }

  // Starts the CPU threads. Not part of set-up: thread start-up is the
  // host's cost, and its time varies too much to gate on.
  void StartCpus() {
    if (cpus_ > 1) {
      sys_.kernel.StartCpus();
    }
  }

  const std::string& error() const { return error_; }
  System& sys() { return sys_; }

  void StartStream(u64 seed) { rng_ = std::make_unique<xbase::Rng>(seed); }

  // Runs whole batches until `seconds` of wall time have passed. With
  // `windows`, closes each window as it falls due and calls `between`
  // outside the measurement. In a traced run, odd batches are traced and
  // even ones are not, so one process measures both rates.
  void RunFor(double seconds, bool alternate_tracing,
              Windows* windows = nullptr,
              const std::function<void()>& between = {}) {
    const u64 start = NowNs();
    const u64 budget = static_cast<u64>(seconds * 1e9);
    u64 window_events = 0;
    if (windows != nullptr) {
      windows->Start();
    }
    while (NowNs() - start < budget) {
      const bool traced = alternate_tracing && (batches_ % 2 == 1);
      const u64 t0 = NowNs();
      RunBatch(traced);
      const u64 elapsed = NowNs() - t0;
      if (traced) {
        // Without the replays, a traced batch costs what its spans add.
        traced_.Add(kBatchSize, elapsed - std::min(elapsed, BatchReplayNs()));
      } else {
        untraced_.Add(kBatchSize, elapsed);
      }
      ++batches_;
      window_events += kBatchSize;
      if (windows != nullptr && windows->Due()) {
        windows->Close(static_cast<double>(window_events) * 1e9 /
                           static_cast<double>(windows->elapsed_ns()),
                       TakeFireLatencies());
        window_events = 0;
        between();
        windows->Start();
      }
    }
  }

  struct Rate {
    u64 events = 0;
    u64 ns = 0;
    void Add(u64 n, u64 t) {
      events += n;
      ns += t;
    }
    double rate() const { return ns > 0 ? events * 1e9 / ns : 0; }
  };
  // Restarts the traced/untraced tallies and the simulated clocks'
  // baseline at the start of the measured time.
  void StartMeasuring() {
    traced_ = Rate{};
    untraced_ = Rate{};
    for (u32 cpu = 0; cpu < cpus_; ++cpu) {
      sim_start_[cpu] = sys_.kernel.clock().now_ns(cpu);
    }
  }
  const Rate& traced() const { return traced_; }
  const Rate& untraced() const { return untraced_; }

  double SimEventsPerMs() const {
    u64 makespan = 0;
    for (u32 cpu = 0; cpu < cpus_; ++cpu) {
      makespan = std::max(makespan,
                          sys_.kernel.clock().now_ns(cpu) - sim_start_[cpu]);
    }
    const u64 events = traced_.events + untraced_.events;
    return makespan > 0 ? events * 1e6 / static_cast<double>(makespan) : 0;
  }

  // Fire latencies since the last call, merged across CPUs (read after a
  // Drain).
  Histogram TakeFireLatencies() {
    Histogram merged;
    for (CpuAgg& agg : aggs_) {
      merged.Merge(agg.fire_ns);
      agg.fire_ns = Histogram{};
    }
    return merged;
  }
  // The replays' share of the last batch's wall time: the busiest CPU's
  // replay time (read after a Drain).
  u64 BatchReplayNs() const {
    u64 most = 0;
    for (const CpuAgg& agg : aggs_) {
      most = std::max(most, agg.batch_replay_ns);
    }
    return most;
  }
  EngineTally Engine() const {
    EngineTally total;
    for (const CpuAgg& agg : aggs_) {
      total.Merge(agg.engine);
    }
    return total;
  }

  // End-of-stream checks, after the last Drain. Each failed check and
  // each failed operation counts into `result`.
  void Check(RunResult& result);
  // Detach everything and unload both tenants' code; the loaders must be
  // empty afterwards.
  void TearDown(RunResult& result);

 private:
  void SetUp(ProgramTally& programs);
  Event NextEvent();
  void RunBatch(bool traced);
  void Execute(const Event& event, bool traced);
  void Fire(HookPoint hook, simkern::Addr ctx, u64 seq, CpuAgg& agg,
            Tracer* tracer, std::size_t slot);

  System sys_;
  u32 cpus_;
  Tracer* tracer_;
  std::string error_;

  int bpf_counter_fd_ = -1;
  int safex_counter_fd_ = -1;
  ebpf::Map* churn_map_ = nullptr;
  std::vector<u32> prog_ids_;
  u32 ext_id_ = 0;
  std::vector<Attached> xdp_;
  std::vector<Attached> lsm_;
  std::vector<u32> attachment_ids_;
  simkern::Addr pkt_ctx_ = 0;
  simkern::Addr lsm_ctx_ = 0;
  std::vector<std::unique_ptr<safex::SchedCore>> cores_;

  std::unique_ptr<xbase::Rng> rng_;
  u64 seq_ = 0;
  u64 batches_ = 0;
  u32 rr_cpu_ = 0;
  std::vector<CpuAgg> aggs_;
  std::array<u64, simkern::kMaxCpus> sim_start_{};
  Rate traced_;
  Rate untraced_;
};

void Datapath::SetUp(ProgramTally& programs) {
  bpf_counter_fd_ =
      MakeMap(sys_, ebpf::MapType::kPercpuArray, 4, "pb_pkt_bpf");
  safex_counter_fd_ =
      MakeMap(sys_, ebpf::MapType::kPercpuArray, 4, "pb_pkt_safex");
  const int churn_fd =
      MakeMap(sys_, ebpf::MapType::kHash, kChurnKeys, "pb_churn");
  if (bpf_counter_fd_ < 0 || safex_counter_fd_ < 0 || churn_fd < 0) {
    error_ = "map creation failed";
    return;
  }
  churn_map_ = sys_.bpf.maps().Find(churn_fd).value();

  // eBPF tenants, verified and JIT-compiled by the loader.
  ebpf::ProgramBuilder lsm_builder("pb_lsm_allow", ebpf::ProgType::kLsm);
  lsm_builder.Ins(ebpf::Mov64Imm(ebpf::R0, 0)).Ins(ebpf::Exit());
  const struct {
    HookPoint hook;
    xbase::Result<ebpf::Program> prog;
  } tenants[] = {
      {HookPoint::kXdpIngress, analysis::BuildPacketCounter(bpf_counter_fd_)},
      {HookPoint::kLsmFileOpen, lsm_builder.Build()},
      {HookPoint::kSchedPickNext, analysis::BuildSchedPickFirst()},
  };
  for (const auto& tenant : tenants) {
    if (!tenant.prog.ok()) {
      error_ = "tenant build failed: " + tenant.prog.status().ToString();
      return;
    }
    auto id = LoadProgram(sys_, tenant.prog.value(), ebpf::LoadOptions{},
                          tracer_, 0, programs);
    if (!id.ok()) {
      error_ = "tenant load failed: " + id.status().ToString();
      return;
    }
    prog_ids_.push_back(id.value());
    Span span(tracer_, 0, SpanName::kHooksAttach, 0);
    auto attached = sys_.hooks->AttachProgram(tenant.hook, id.value());
    span.Finish();
    if (!attached.ok()) {
      error_ = "tenant attach failed: " + attached.status().ToString();
      return;
    }
    attachment_ids_.push_back(attached.value());
    const Attached record{attached.value(), false, id.value()};
    if (tenant.hook == HookPoint::kXdpIngress) {
      xdp_.push_back(record);
    } else if (tenant.hook == HookPoint::kLsmFileOpen) {
      lsm_.push_back(record);
    }
  }

  // The safex packet counter, signed by the enrolled vendor key, through
  // the kernel's signature check.
  safex::Toolchain toolchain(*sys_.key);
  safex::ExtensionManifest manifest;
  manifest.name = "pb-packet-counter";
  manifest.version = "1";
  manifest.caps = {safex::Capability::kPacketAccess,
                   safex::Capability::kMapAccess};
  manifest.imports = {"kcrate.packet_view", "kcrate.map_lookup"};
  const int fd = safex_counter_fd_;
  auto artifact = toolchain.Build(
      manifest, [fd] { return std::make_unique<PacketCounterExt>(fd); },
      std::span<const u8>());
  if (!artifact.ok()) {
    error_ = "safex build failed: " + artifact.status().ToString();
    return;
  }
  Span prepare(tracer_, 0, SpanName::kSafexPrepare, 0);
  auto prepared = sys_.ext_loader->Prepare(artifact.value());
  prepare.Finish();
  if (!prepared.ok()) {
    error_ = "safex prepare failed: " + prepared.status().ToString();
    return;
  }
  Span install(tracer_, 0, SpanName::kSafexInstall, 0);
  auto ext_id = sys_.ext_loader->Install(std::move(prepared).value());
  install.Finish();
  if (!ext_id.ok()) {
    error_ = "safex install failed: " + ext_id.status().ToString();
    return;
  }
  ext_id_ = ext_id.value();
  Span attach(tracer_, 0, SpanName::kHooksAttach, 0);
  auto attached = sys_.hooks->AttachExtension(HookPoint::kXdpIngress, ext_id_);
  attach.Finish();
  if (!attached.ok()) {
    error_ = "safex attach failed: " + attached.status().ToString();
    return;
  }
  attachment_ids_.push_back(attached.value());
  xdp_.push_back(Attached{attached.value(), true, ext_id_});

  // Contexts: one packet, one populated file-open decision.
  u8 payload[48] = {};
  payload[12] = kProtocol;
  auto skb = sys_.kernel.net().CreateSkBuff(sys_.kernel.mem(), payload);
  auto lsm_block = sys_.kernel.mem().Map(
      simkern::LsmCtxLayout::kSize, simkern::MemPerm::kReadWrite,
      simkern::RegionKind::kKernelData, "pb_lsmctx");
  if (!skb.ok() || !lsm_block.ok()) {
    error_ = "context set-up failed";
    return;
  }
  pkt_ctx_ = skb.value().meta_addr;
  lsm_ctx_ = lsm_block.value();
  simkern::SimMemory& mem = sys_.kernel.mem();
  (void)mem.WriteU32(lsm_ctx_ + simkern::LsmCtxLayout::kPid, 1);
  (void)mem.WriteU32(lsm_ctx_ + simkern::LsmCtxLayout::kUid, 1000);
  (void)mem.WriteU64(lsm_ctx_ + simkern::LsmCtxLayout::kInodeId, 4242);
  (void)mem.WriteU32(lsm_ctx_ + simkern::LsmCtxLayout::kOpenFlags, 0);
  (void)mem.WriteU32(lsm_ctx_ + simkern::LsmCtxLayout::kPathLen, 8);

  // One scheduler core per CPU over per-CPU runqueues. The starvation
  // bound is huge: a packet-dominated mix races a CPU's clock ahead of its
  // rare ticks, and this tenant is here for its cost, not containment.
  safex::SchedConfig sched_config;
  sched_config.starvation_bound_ns = 3600 * simkern::kNsPerSec;
  for (u32 cpu = 0; cpu < cpus_; ++cpu) {
    cores_.push_back(std::make_unique<safex::SchedCore>(
        sys_.kernel, *sys_.hooks, sched_config));
    if (!cores_.back()->Init().ok()) {
      error_ = "sched core init failed";
      return;
    }
  }
  for (u32 i = 0; i < kTasks; ++i) {
    const u32 pid = 60000 + i;
    if (!sys_.kernel.tasks()
             .Create(sys_.kernel.mem(), sys_.kernel.objects(), pid, pid,
                     "perfbench")
             .ok() ||
        !sys_.kernel.runqueue(pid % cpus_)
             .Enqueue(pid, sys_.kernel.clock().now_ns(pid % cpus_))
             .ok()) {
      error_ = "task set-up failed";
      return;
    }
  }
}

Event Datapath::NextEvent() {
  Event event;
  event.seq = seq_++;
  const u64 dice = rng_->NextBelow(100);
  event.cpu = rr_cpu_++ % cpus_;
  if (dice < kPacketPct) {
    event.kind = Kind::kPacket;
  } else if (dice < kPacketPct + kSchedPct) {
    event.kind = Kind::kSched;
  } else if (dice < kPacketPct + kSchedPct + kLsmPct) {
    event.kind = Kind::kLsm;
  } else {
    event.key = static_cast<u32>(rng_->NextBelow(kChurnKeys));
    event.kind = rng_->NextBelow(3) != 0 ? Kind::kUpdate : Kind::kDelete;
  }
  return event;
}

void Datapath::RunBatch(bool traced) {
  simkern::CpuPool* pool = sys_.kernel.cpus();
  Tracer* tracer = traced ? tracer_ : nullptr;
  for (CpuAgg& agg : aggs_) {
    agg.batch_replay_ns = 0;
  }
  for (u32 i = 0; i < kBatchSize; ++i) {
    const Event event = NextEvent();
    if (pool == nullptr) {
      Execute(event, traced);
      continue;
    }
    Span submit(tracer, 0, SpanName::kSmpSubmit, event.seq);
    pool->Submit(event.cpu, [this, event, traced] { Execute(event, traced); });
  }
  if (pool != nullptr) {
    Span drain(tracer, 0, SpanName::kSmpDrain, batches_);
    pool->Drain();
  }
}

void Datapath::Execute(const Event& event, bool traced) {
  const u32 cpu = sys_.kernel.current_cpu();
  CpuAgg& agg = aggs_[cpu];
  Tracer* tracer = traced ? tracer_ : nullptr;
  const std::size_t slot = cpus_ > 1 ? 1 + cpu : 0;
  ++agg.ops;
  switch (event.kind) {
    case Kind::kPacket:
      Fire(HookPoint::kXdpIngress, pkt_ctx_, event.seq, agg, tracer, slot);
      break;
    case Kind::kLsm:
      Fire(HookPoint::kLsmFileOpen, lsm_ctx_, event.seq, agg, tracer, slot);
      break;
    case Kind::kSched: {
      // Each CPU ticks its own core over its own runqueue. One thread runs
      // a CPU's work, stolen work included, so no core is entered twice.
      Span span(tracer, slot, SpanName::kSchedTick, event.seq);
      const safex::SchedTickOutcome outcome = cores_[cpu]->Tick();
      span.Finish();
      if (outcome.deadline_missed || outcome.invalid_pick ||
          outcome.stalled || outcome.fell_back) {
        agg.Fail(Format("sched tick %llu misbehaved",
                        static_cast<unsigned long long>(event.seq)));
      }
      break;
    }
    case Kind::kUpdate:
    case Kind::kDelete: {
      u8 key[4];
      xbase::StoreLe32(key, event.key);
      if (event.kind == Kind::kUpdate) {
        u8 value[8];
        xbase::StoreLe64(value, event.seq);
        Span span(tracer, slot, SpanName::kMapUpdate, event.seq);
        const xbase::Status status =
            churn_map_->Update(sys_.kernel, key, value, ebpf::kBpfAny);
        span.Finish();
        if (!status.ok()) {
          agg.Fail("map update failed: " + status.ToString());
        }
      } else {
        Span span(tracer, slot, SpanName::kMapDelete, event.seq);
        const xbase::Status status = churn_map_->Delete(sys_.kernel, key);
        span.Finish();
        if (!status.ok() && status.code() != xbase::Code::kNotFound) {
          agg.Fail("map delete failed: " + status.ToString());
        }
      }
      break;
    }
  }
}

void Datapath::Fire(HookPoint hook, simkern::Addr ctx, u64 seq, CpuAgg& agg,
                    Tracer* tracer, std::size_t slot) {
  const bool xdp = hook == HookPoint::kXdpIngress;
  const std::vector<Attached>& attached = xdp ? xdp_ : lsm_;
  Span fire(tracer, slot, SpanName::kHooksFire, seq);
  const u64 t0 = NowNs();
  sys_.hooks->FireInto(hook, ctx, agg.report);
  const u64 t1 = NowNs();
  fire.End();
  if (tracer == nullptr) {
    agg.fire_ns.Record(t1 - t0);
  }
  const safex::HookFireReport& report = agg.report;
  const bool verdict_ok =
      xdp ? report.verdict == kXdpPass : !report.denied;
  if (report.served != attached.size() || report.failed != 0 ||
      report.skipped != 0 || !verdict_ok) {
    agg.Fail(Format("%s fire %llu: served %u failed %u skipped %u verdict "
                    "%llu",
                    xdp ? "xdp" : "lsm", static_cast<unsigned long long>(seq),
                    report.served, report.failed, report.skipped,
                    static_cast<unsigned long long>(report.verdict)));
  }
  if (xdp) {
    ++agg.xdp_fires;
  }
  if (tracer == nullptr) {
    return;
  }
  std::string error;
  const u64 replay_start = NowNs();
  const bool replayed = ReplayFire(sys_, attached, hook, ctx, fire, tracer,
                                   slot, seq, agg.engine, &error);
  agg.batch_replay_ns += NowNs() - replay_start;
  if (!replayed) {
    agg.Fail(error);
  } else if (xdp) {
    ++agg.xdp_replays;
  }
}

u64 CounterSum(System& sys, int fd, u32 cpus) {
  auto* map =
      dynamic_cast<ebpf::PercpuArrayMap*>(sys.bpf.maps().Find(fd).value());
  u64 sum = 0;
  for (u32 key = 0; key < 4; ++key) {
    u8 key_bytes[4];
    xbase::StoreLe32(key_bytes, key);
    for (u32 cpu = 0; cpu < cpus; ++cpu) {
      auto addr = map->LookupAddrForCpu(key_bytes, cpu);
      if (addr.ok()) {
        sum += sys.kernel.mem().ReadU64(addr.value()).value_or(0);
      }
    }
  }
  return sum;
}

void Datapath::Check(RunResult& result) {
  u64 xdp_fires = 0;
  u64 xdp_replays = 0;
  for (const CpuAgg& agg : aggs_) {
    result.attempted += agg.ops;
    xdp_fires += agg.xdp_fires;
    xdp_replays += agg.xdp_replays;
    for (u64 i = 0; i < agg.failed; ++i) {
      result.Fail(agg.first_failure);
    }
  }
  simkern::Kernel& kernel = sys_.kernel;
  const struct {
    const char* name;
    int fd;
  } counters[] = {{"eBPF", bpf_counter_fd_}, {"safex", safex_counter_fd_}};
  for (const auto& counter : counters) {
    const u64 sum = CounterSum(sys_, counter.fd, cpus_);
    if (sum != xdp_fires + xdp_replays) {
      result.Fail(Format("%s per-CPU counter sum %llu != %llu packet fires "
                         "+ %llu replays",
                         counter.name, static_cast<unsigned long long>(sum),
                         static_cast<unsigned long long>(xdp_fires),
                         static_cast<unsigned long long>(xdp_replays)));
    }
  }
  if (sys_.supervisor->failures() != 0) {
    result.Fail(Format("supervisor charged %llu failure(s)",
                       static_cast<unsigned long long>(
                           sys_.supervisor->failures())));
  }
  if (!sys_.supervisor->CheckConsistent(kernel.clock().max_now_ns()).ok()) {
    result.Fail("supervisor state inconsistent");
  }
  if (kernel.state() != simkern::KernelState::kRunning) {
    result.Fail("kernel not running after the stream");
  }
  if (kernel.rcu().AnyReader()) {
    result.Fail("an RCU reader remains after the last Drain");
  }
  if (kernel.locks().held_count_total() != 0) {
    result.Fail(Format("%d lock(s) held after the last Drain",
                       kernel.locks().held_count_total()));
  }
}

void Datapath::TearDown(RunResult& result) {
  sys_.kernel.StopCpus();
  for (const u32 id : attachment_ids_) {
    Span span(tracer_, 0, SpanName::kHooksDetach, 0);
    if (!sys_.hooks->Detach(id).ok()) {
      result.Fail(Format("detach of attachment %u refused", id));
    }
  }
  for (const u32 id : prog_ids_) {
    Span span(tracer_, 0, SpanName::kLoaderUnload, 0);
    if (!sys_.loader.Unload(id).ok()) {
      result.Fail(Format("unload of program %u refused", id));
    }
  }
  Span span(tracer_, 0, SpanName::kSafexUnload, 0);
  if (!sys_.ext_loader->Unload(ext_id_).ok()) {
    result.Fail(Format("unload of extension %u refused", ext_id_));
  }
  span.Finish();
  if (sys_.loader.size() != 0 || sys_.ext_loader->size() != 0) {
    result.Fail("loaders not empty after tear-down");
  }
}

// Span medians whose difference between an SMP run and a 1-CPU run is the
// host-mutex wait the layer's calls meet under contention.
constexpr SpanName kWaitSpans[] = {
    SpanName::kHooksFire,         SpanName::kSupervisorAdmit,
    SpanName::kSupervisorRecord,  SpanName::kLoaderFind,
    SpanName::kExec,              SpanName::kSafexInvoke,
};

}  // namespace

void RunDatapath(const RunConfig& config, u32 cpus, RunResult& result) {
  std::unique_ptr<Tracer> tracer =
      config.trace ? std::make_unique<Tracer>(1 + cpus) : nullptr;
  ProgramTally programs;

  std::vector<double> setup_s;
  auto set_up = [&] {
    const u64 t0 = NowNs();
    auto dp = std::make_unique<Datapath>(cpus, tracer.get(), programs);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!dp->error().empty()) {
      result.Fail("set-up: " + dp->error());
    }
    return dp;
  };
  std::unique_ptr<Datapath> dp = set_up();
  if (!result.correct()) {
    return;
  }
  dp->StartCpus();
  if (!config.inject_fault.empty()) {
    dp->sys().bpf.faults().Inject(config.inject_fault);
  }

  dp->StartStream(config.seed);
  dp->RunFor(config.seconds * kWarmupShare, false);
  dp->StartMeasuring();
  (void)dp->TakeFireLatencies();
  Windows windows(config.seconds, kWindows);
  dp->RunFor(config.seconds, config.trace, config.trace ? nullptr : &windows,
             [&] { set_up(); });
  const double sim_rate = dp->SimEventsPerMs();
  simkern::CpuPool* pool = dp->sys().kernel.cpus();
  double stolen_share = 0;
  if (pool != nullptr) {
    u64 executed = 0;
    u64 stolen = 0;
    for (u32 cpu = 0; cpu < cpus; ++cpu) {
      executed += pool->executed_on(cpu);
      stolen += pool->stolen_by(cpu);
    }
    stolen_share = executed > 0 ? static_cast<double>(stolen) / executed : 0;
  }
  const simkern::LockStats locks = dp->sys().kernel.locks().Totals();
  dp->Check(result);
  dp->TearDown(result);

  if (!config.trace) {
    result.metrics["throughput_per_s"] = windows.rate();
    result.metrics["latency_p50_us"] = windows.p50() / 1e3;
    result.metrics["latency_p99_us"] = windows.p99() / 1e3;
    result.metrics["setup_s"] = Quantile(setup_s, 0);
    result.Note("setup_median_s", Median(setup_s), "s");
    result.Note("events_per_s", windows.rate(), "events/s");
    result.Note("sim_events_per_ms", sim_rate, "events/sim-ms");
    result.Note("fire_p50_ns", windows.p50(), "ns");
    result.Note("fire_p99_ns", windows.p99(), "ns");
    result.Note("events", static_cast<double>(dp->untraced().events),
                "events");
    result.Note("windows", static_cast<double>(windows.count()), "windows");
    return;
  }

  const u64 traced_events = dp->traced().events;
  AddLayerMetrics(*tracer, traced_events, dp->Engine(), programs, result);
  result.metrics["sim_events_per_ms"] = sim_rate;
  result.metrics["trace_overhead_share"] =
      1.0 - dp->traced().rate() / dp->untraced().rate();
  if (pool != nullptr) {
    result.metrics["smp.stolen_share"] = stolen_share;
  }
  result.metrics["simkern.lock.contended"] =
      static_cast<double>(locks.contended_acquires);
  tracer->WriteJsonLines(Format("%s/%s-seed%llu.spans.jsonl",
                                config.trace_dir.c_str(),
                                config.workload.c_str(),
                                static_cast<unsigned long long>(config.seed)));
  if (cpus == 1) {
    return;
  }

  // Host-mutex wait is invisible from outside; estimate it per layer as
  // the layer's span median here minus the same on one CPU, measured in
  // this process on the same seed.
  Tracer reference_tracer(1);
  ProgramTally reference_programs;
  Datapath reference(1, &reference_tracer, reference_programs);
  if (!reference.error().empty()) {
    result.Fail("reference set-up: " + reference.error());
    return;
  }
  reference.StartStream(config.seed);
  reference.RunFor(config.seconds * kWarmupShare, false);
  reference.RunFor(config.seconds / 2, true);
  RunResult reference_result;
  reference.Check(reference_result);
  if (!reference_result.correct()) {
    result.Fail("reference run: " + reference_result.failures.front());
  }
  for (const SpanName name : kWaitSpans) {
    result.metrics["wait." + std::string(SpanNameString(name)) + "_ns"] =
        tracer->Merged(name).duration.Quantile(0.5) -
        reference_tracer.Merged(name).duration.Quantile(0.5);
  }
}

}  // namespace perfbench
