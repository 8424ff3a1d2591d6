// Packet filter: the XDP-style networking scenario the paper's intro
// motivates ([23] "the eXpress Data Path"). A stream of synthetic packets
// runs through (a) a verified eBPF filter and (b) a safex extension with
// identical policy: drop malformed packets, drop a denylisted "protocol",
// count everything per class. The safex variant then goes beyond what eBPF
// can express: it keeps a dynamic flow table sized at runtime from the pool
// allocator (§4 of the paper).
//
// Run: ./build/examples/packet_filter
#include <cstdio>

#include "src/analysis/workloads.h"
#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/ebpf/interp.h"
#include "src/xbase/bytes.h"
#include "src/xbase/rand.h"

namespace {

constexpr xbase::u64 kXdpDrop = 1;
constexpr xbase::u64 kXdpPass = 2;

class SafexFilter : public safex::Extension {
 public:
  explicit SafexFilter(int counter_fd) : counter_fd_(counter_fd) {}

  xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
    auto packet = ctx.Packet();
    XB_RETURN_IF_ERROR(packet.status());
    if (packet.value().size() < 14) {
      return kXdpDrop;  // runt frame
    }
    auto proto = packet.value().ReadU8(12);
    XB_RETURN_IF_ERROR(proto.status());
    const xbase::u32 klass = proto.value() & 3;

    // Count the class.
    auto map = ctx.Map(counter_fd_);
    XB_RETURN_IF_ERROR(map.status());
    auto slot = map.value().LookupIndex(klass);
    XB_RETURN_IF_ERROR(slot.status());
    auto count = slot.value().ReadU64(0);
    XB_RETURN_IF_ERROR(count.status());
    XB_RETURN_IF_ERROR(slot.value().WriteU64(0, count.value() + 1));

    // Denylist class 3.
    if (klass == 3) {
      return kXdpDrop;
    }

    // Flow bookkeeping in pool memory — dynamic allocation inside a kernel
    // extension, which eBPF flatly cannot do.
    auto flow = ctx.Alloc(32);
    XB_RETURN_IF_ERROR(flow.status());
    XB_RETURN_IF_ERROR(flow.value().WriteU64(0, ctx.KtimeNs()));
    XB_RETURN_IF_ERROR(flow.value().WriteU32(8, klass));
    XB_RETURN_IF_ERROR(ctx.Free(flow.value()));

    return kXdpPass;
  }

 private:
  int counter_fd_;
};

void PrintCounters(simkern::Kernel& kernel, ebpf::Bpf& bpf, int fd,
                   const char* tag) {
  auto map = bpf.maps().Find(fd);
  std::printf("%s per-class counters: ", tag);
  for (xbase::u32 klass = 0; klass < 4; ++klass) {
    xbase::u8 key[4];
    xbase::StoreLe32(key, klass);
    auto addr = map.value()->LookupAddr(kernel, key);
    auto value = kernel.mem().ReadU64(addr.value());
    std::printf("[%u]=%llu ", klass,
                static_cast<unsigned long long>(value.value()));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  safex::System sys;
  simkern::Kernel& kernel = sys.kernel;
  ebpf::Bpf& bpf = sys.bpf;

  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kArray;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 4;
  spec.name = "ebpf-counters";
  const int ebpf_fd = bpf.maps().Create(spec).value();
  spec.name = "safex-counters";
  const int safex_fd = bpf.maps().Create(spec).value();

  // Load the eBPF filter.
  ebpf::Loader& loader = sys.loader;
  auto prog = analysis::BuildPacketCounter(ebpf_fd);
  auto prog_id = loader.Load(prog.value()).value();
  auto loaded = loader.Find(prog_id).value();

  // Sign + load the safex filter.
  safex::Toolchain toolchain(safex::System::VendorKey());
  safex::ExtensionManifest manifest;
  manifest.name = "packet-filter";
  manifest.version = "2.1";
  manifest.caps = {safex::Capability::kPacketAccess,
                   safex::Capability::kMapAccess,
                   safex::Capability::kDynAlloc};
  auto artifact =
      toolchain.Build(manifest,
                      [safex_fd]() {
                        return std::make_unique<SafexFilter>(safex_fd);
                      },
                      crypto::Sha256::HashString("packet-filter-2.1"))
          .value();
  safex::ExtLoader& ext_loader = *sys.ext_loader;
  const xbase::u32 ext_id = ext_loader.Load(artifact).value();

  // Drive 64 synthetic packets through both.
  xbase::Rng rng(42);
  xbase::u64 ebpf_drops = 0, ebpf_passes = 0;
  xbase::u64 safex_drops = 0, safex_passes = 0;
  for (int i = 0; i < 64; ++i) {
    xbase::u8 payload[32] = {};
    const xbase::usize len = (i % 8 == 7) ? 8 : sizeof(payload);  // runts
    payload[12] = static_cast<xbase::u8>(rng.NextBelow(8));
    auto skb = kernel.net().CreateSkBuff(
        kernel.mem(), std::span<const xbase::u8>(payload, len));

    auto ebpf_result =
        ebpf::Execute(bpf, *loaded, skb.value().meta_addr, {}, &loader);
    (ebpf_result.value().r0 == kXdpPass ? ebpf_passes : ebpf_drops)++;

    safex::InvokeOptions opts;
    opts.skb_meta = skb.value().meta_addr;
    auto outcome = ext_loader.Invoke(ext_id, opts).value();
    (outcome.ret == kXdpPass ? safex_passes : safex_drops)++;
  }

  std::printf("eBPF  filter: %llu pass / %llu drop\n",
              static_cast<unsigned long long>(ebpf_passes),
              static_cast<unsigned long long>(ebpf_drops));
  PrintCounters(kernel, bpf, ebpf_fd, "eBPF ");
  std::printf("safex filter: %llu pass / %llu drop (plus a dynamic flow "
              "record per packet from the pool)\n",
              static_cast<unsigned long long>(safex_passes),
              static_cast<unsigned long long>(safex_drops));
  PrintCounters(kernel, bpf, safex_fd, "safex");
  std::printf("pool stats: %llu allocations, %u chunks still in use\n",
              static_cast<unsigned long long>(
                  sys.runtime->pool_for_cpu(0).stats().alloc_calls),
              sys.runtime->pool_for_cpu(0).stats().chunks_in_use);
  return 0;
}
