// Networking helper suite: sk_buff manipulation, XDP adjustments, checksum
// plumbing, FIB lookup, and the reference-acquiring socket lookups whose
// leak bugs Table 1 counts.
#include <cstring>

#include "src/ebpf/helpers_internal.h"
#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace ebpf {

using simkern::Addr;
using simkern::SkBuffLayout;
using xbase::u16;
using xbase::usize;

namespace {

constexpr ArgType kA = ArgType::kAnything;
constexpr ArgType kMem = ArgType::kPtrToMem;
constexpr ArgType kUMem = ArgType::kPtrToUninitMem;
constexpr ArgType kSz = ArgType::kMemSize;
constexpr ArgType kCtxA = ArgType::kCtx;
constexpr ArgType kMapPtr = ArgType::kConstMapPtr;

struct Def {
  HelperWiring& wiring;

  xbase::Status operator()(
      HelperSpec spec,
      std::initializer_list<std::pair<const char*, usize>> links,
      HelperFn fn) {
    if (spec.entry_func.empty()) {
      spec.entry_func = spec.name;
    }
    LinkHelperCallGraph(wiring.kernel, spec.entry_func, links);
    return wiring.registry.Register(std::move(spec), std::move(fn));
  }
};

HelperSpec MakeSpec(u32 id, const char* name,
                    simkern::KernelVersion version,
                    std::initializer_list<ArgType> args, RetType ret,
                    u64 cost_ns = simkern::kCostHelperCallNs) {
  HelperSpec spec;
  spec.id = id;
  spec.name = name;
  spec.introduced = version;
  int i = 0;
  for (ArgType arg : args) {
    spec.args[i++] = arg;
  }
  spec.ret = ret;
  spec.cost_ns = cost_ns;
  // Everything in this file touches packets or sockets; the family tag
  // keeps the suite out of reach of sched_ext programs.
  spec.family = HelperFamily::kNet;
  return spec;
}

// sk_buff metadata accessors (ctx points at the SkBuffLayout block).
xbase::Result<u32> SkbLen(HelperCtx& ctx, Addr skb) {
  return ctx.kernel.mem().ReadU32(skb + SkBuffLayout::kLen);
}
xbase::Result<Addr> SkbData(HelperCtx& ctx, Addr skb) {
  return ctx.kernel.mem().ReadU64(skb + SkBuffLayout::kDataPtr);
}
xbase::Status SetSkbLen(HelperCtx& ctx, Addr skb, u32 len) {
  XB_RETURN_IF_ERROR(ctx.kernel.mem().WriteU32(skb + SkBuffLayout::kLen,
                                               len));
  XB_ASSIGN_OR_RETURN(const Addr data, SkbData(ctx, skb));
  return ctx.kernel.mem().WriteU64(skb + SkBuffLayout::kDataEndPtr,
                                   data + len);
}

// Tuple layout read by the sk_lookup helpers (bpf_sock_tuple, IPv4 form).
struct TupleLayout {
  static constexpr usize kSrcIp = 0;
  static constexpr usize kDstIp = 4;
  static constexpr usize kSrcPort = 8;
  static constexpr usize kDstPort = 10;
  static constexpr usize kSize = 12;
};

xbase::Result<u64> SkLookup(HelperCtx& ctx, const HelperArgs& a,
                            u32 protocol) {
  if (a[2] < TupleLayout::kSize) {
    return NegErrno(kEInval);
  }
  XB_ASSIGN_OR_RETURN(const std::vector<u8> raw,
                      ReadMem(ctx.kernel, a[1], TupleLayout::kSize));
  simkern::SockTuple tuple;
  tuple.src_ip = xbase::LoadLe32(raw.data() + TupleLayout::kSrcIp);
  tuple.dst_ip = xbase::LoadLe32(raw.data() + TupleLayout::kDstIp);
  tuple.src_port = xbase::LoadLe16(raw.data() + TupleLayout::kSrcPort);
  tuple.dst_port = xbase::LoadLe16(raw.data() + TupleLayout::kDstPort);

  const auto sock = ctx.kernel.net().Lookup(tuple);
  if (!sock.has_value() || sock->protocol != protocol) {
    return 0;  // NULL
  }
  // The caller now owns a reference; the verifier (v4.20+) tracks it.
  XB_RETURN_IF_ERROR(
      ctx.kernel.Route(ctx.kernel.objects().Acquire(sock->object_id)));
  if (ctx.faults.IsActive(kFaultHelperSkLookupLeak)) {
    // Commit 3046a827316c: the lookup path internally creates a
    // request_sock and forgets to put it. Invisible to the program and to
    // the verifier — only the refcount audit sees it.
    const simkern::ObjectId leak = ctx.kernel.objects().Create(
        simkern::ObjectType::kRequestSock, "leaked-request-sock");
    (void)leak;
  }
  return sock->struct_addr;
}

}  // namespace

xbase::Status RegisterNetHelpers(HelperWiring& wiring) {
  Def def{wiring};
  std::shared_ptr<HelperState> state = wiring.state;

  // --- skb byte access -----------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSkbStoreBytes, "bpf_skb_store_bytes", {4, 1},
               {kCtxA, kA, kMem, kSz, kA}, RetType::kInteger, 80),
      {{"net_core", 600}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(const u32 len, SkbLen(ctx, a[0]));
        if (a[1] + a[3] > len) {
          return NegErrno(kEFault);
        }
        XB_ASSIGN_OR_RETURN(const Addr data, SkbData(ctx, a[0]));
        XB_ASSIGN_OR_RETURN(const std::vector<u8> bytes,
                            ReadMem(ctx.kernel, a[2], a[3]));
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, data + a[1], bytes));
        return 0;
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSkbLoadBytes, "bpf_skb_load_bytes", {4, 5},
               {kCtxA, kA, kUMem, kSz}, RetType::kInteger, 60),
      {{"net_core", 25}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(const u32 len, SkbLen(ctx, a[0]));
        if (a[1] + a[3] > len) {
          return NegErrno(kEFault);
        }
        XB_ASSIGN_OR_RETURN(const Addr data, SkbData(ctx, a[0]));
        XB_ASSIGN_OR_RETURN(const std::vector<u8> bytes,
                            ReadMem(ctx.kernel, data + a[1], a[3]));
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[2], bytes));
        return 0;
      }));

  // --- checksums --------------------------------------------------------------
  const auto csum_replace = [](HelperCtx& ctx,
                               const HelperArgs& a) -> xbase::Result<u64> {
    XB_ASSIGN_OR_RETURN(const u32 len, SkbLen(ctx, a[0]));
    if (a[1] + 2 > len) {
      return NegErrno(kEFault);
    }
    XB_ASSIGN_OR_RETURN(const Addr data, SkbData(ctx, a[0]));
    XB_ASSIGN_OR_RETURN(const std::vector<u8> cur,
                        ReadMem(ctx.kernel, data + a[1], 2));
    const u16 old_sum = xbase::LoadLe16(cur.data());
    const u16 new_sum = static_cast<u16>(
        old_sum ^ static_cast<u16>(a[2]) ^ static_cast<u16>(a[3]));
    u8 out[2];
    xbase::StoreLe16(out, new_sum);
    XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, data + a[1], out));
    return 0;
  };
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperL3CsumReplace, "bpf_l3_csum_replace", {4, 1},
               {kCtxA, kA, kA, kA, kA}, RetType::kInteger, 60),
      {{"net_core", 550}}, csum_replace));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperL4CsumReplace, "bpf_l4_csum_replace", {4, 1},
               {kCtxA, kA, kA, kA, kA}, RetType::kInteger, 60),
      {{"net_core", 560}}, csum_replace));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperCsumDiff, "bpf_csum_diff", {4, 6},
               {kMem, kSz, kMem, kSz, kA}, RetType::kInteger, 60),
      {{"util", 6}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(const std::vector<u8> from,
                            ReadMem(ctx.kernel, a[0],
                                    std::min<u64>(a[1], 512)));
        XB_ASSIGN_OR_RETURN(const std::vector<u8> to,
                            ReadMem(ctx.kernel, a[2],
                                    std::min<u64>(a[3], 512)));
        u64 csum = a[4];
        for (u8 byte : from) {
          csum -= byte;
        }
        for (u8 byte : to) {
          csum += byte;
        }
        return csum & 0xffff;
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperCsumLevel, "bpf_csum_level", {5, 7}, {kCtxA, kA},
               RetType::kInteger),
      {{"net_core", 25}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 0;
      }));

  // --- redirection -------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperCloneRedirect, "bpf_clone_redirect", {4, 2},
               {kCtxA, kA, kA}, RetType::kInteger, 400),
      {{"net_core", 900}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        ctx.kernel.Printk(xbase::StrFormat(
            "bpf_clone_redirect -> ifindex %llu",
            static_cast<unsigned long long>(a[1])));
        return 0;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperRedirect, "bpf_redirect", {4, 4}, {kA, kA},
               RetType::kInteger, 100),
      {{"net_core", 700}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 7;  // TC_ACT_REDIRECT
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetRouteRealm, "bpf_get_route_realm", {4, 4}, {kCtxA},
               RetType::kInteger),
      {{"net_core", 15}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 0;
      }));

  // --- VLAN / shape changes -------------------------------------------------------
  {
    HelperSpec spec = MakeSpec(kHelperSkbVlanPush, "bpf_skb_vlan_push",
                               {4, 3}, {kCtxA, kA, kA}, RetType::kInteger,
                               120);
    spec.changes_packet_data = true;
    XB_RETURN_IF_ERROR(def(
        std::move(spec), {{"net_core", 650}},
        [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
          XB_ASSIGN_OR_RETURN(const u32 len, SkbLen(ctx, a[0]));
          XB_RETURN_IF_ERROR(SetSkbLen(ctx, a[0], len + 4));
          XB_RETURN_IF_ERROR(ctx.kernel.mem().WriteU32(
              a[0] + SkBuffLayout::kProtocol, 0x8100));
          return 0;
        }));
  }
  {
    HelperSpec spec = MakeSpec(kHelperSkbVlanPop, "bpf_skb_vlan_pop",
                               {4, 3}, {kCtxA}, RetType::kInteger, 120);
    spec.changes_packet_data = true;
    XB_RETURN_IF_ERROR(def(
        std::move(spec), {{"net_core", 640}},
        [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
          XB_ASSIGN_OR_RETURN(const u32 len, SkbLen(ctx, a[0]));
          if (len < 4) {
            return NegErrno(kEInval);
          }
          XB_RETURN_IF_ERROR(SetSkbLen(ctx, a[0], len - 4));
          XB_RETURN_IF_ERROR(ctx.kernel.mem().WriteU32(
              a[0] + SkBuffLayout::kProtocol, 0x0800));
          return 0;
        }));
  }

  // --- tunnels ----------------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSkbGetTunnelKey, "bpf_skb_get_tunnel_key", {4, 3},
               {kCtxA, kUMem, kSz, kA}, RetType::kInteger),
      {{"net_core", 200}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        std::vector<u8> key(std::min<u64>(a[2], 16), 0);
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[1], key));
        return 0;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSkbSetTunnelKey, "bpf_skb_set_tunnel_key", {4, 3},
               {kCtxA, kMem, kSz, kA}, RetType::kInteger),
      {{"net_core", 620}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(const std::vector<u8> key,
                            ReadMem(ctx.kernel, a[1],
                                    std::min<u64>(a[2], 16)));
        XB_RETURN_IF_ERROR(ctx.kernel.mem().WriteU32(
            a[0] + SkBuffLayout::kMark,
            key.size() >= 4 ? xbase::LoadLe32(key.data()) : 0));
        return 0;
      }));

  // --- protocol / type / room ----------------------------------------------------------
  {
    HelperSpec spec = MakeSpec(kHelperSkbChangeProto, "bpf_skb_change_proto",
                               {4, 8}, {kCtxA, kA, kA}, RetType::kInteger,
                               200);
    spec.changes_packet_data = true;
    XB_RETURN_IF_ERROR(def(
        std::move(spec), {{"net_core", 630}},
        [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
          XB_RETURN_IF_ERROR(ctx.kernel.mem().WriteU32(
              a[0] + SkBuffLayout::kProtocol, static_cast<u32>(a[1])));
          return 0;
        }));
  }
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSkbChangeType, "bpf_skb_change_type", {4, 8},
               {kCtxA, kA}, RetType::kInteger),
      {{"util", 2}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 0;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSkbUnderCgroup, "bpf_skb_under_cgroup", {4, 8},
               {kCtxA, kMapPtr, kA}, RetType::kInteger),
      {{"cgroup", 120}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 1;
      }));
  {
    HelperSpec spec = MakeSpec(kHelperSkbChangeTail, "bpf_skb_change_tail",
                               {4, 9}, {kCtxA, kA, kA}, RetType::kInteger,
                               200);
    spec.changes_packet_data = true;
    XB_RETURN_IF_ERROR(def(
        std::move(spec), {{"net_core", 660}},
        [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
          XB_ASSIGN_OR_RETURN(const Addr data, SkbData(ctx, a[0]));
          const simkern::Region* region =
              ctx.kernel.mem().FindRegionContaining(data);
          if (region == nullptr || a[1] > region->size) {
            return NegErrno(kEInval);
          }
          XB_RETURN_IF_ERROR(SetSkbLen(ctx, a[0],
                                       static_cast<u32>(a[1])));
          return 0;
        }));
  }
  {
    HelperSpec spec = MakeSpec(kHelperSkbPullData, "bpf_skb_pull_data",
                               {4, 9}, {kCtxA, kA}, RetType::kInteger, 150);
    spec.changes_packet_data = true;
    XB_RETURN_IF_ERROR(def(std::move(spec), {{"net_core", 610}},
                           [](HelperCtx&, const HelperArgs&)
                               -> xbase::Result<u64> { return 0; }));
  }
  {
    HelperSpec spec = MakeSpec(kHelperSkbAdjustRoom, "bpf_skb_adjust_room",
                               {4, 14}, {kCtxA, kA, kA, kA},
                               RetType::kInteger, 250);
    spec.changes_packet_data = true;
    XB_RETURN_IF_ERROR(def(
        std::move(spec), {{"net_core", 670}},
        [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
          XB_ASSIGN_OR_RETURN(const u32 len, SkbLen(ctx, a[0]));
          const s64 delta = static_cast<s64>(a[1]);
          if (delta < 0 && static_cast<u64>(-delta) > len) {
            return NegErrno(kEInval);
          }
          XB_RETURN_IF_ERROR(
              SetSkbLen(ctx, a[0], static_cast<u32>(len + delta)));
          return 0;
        }));
  }

  // --- hashes ------------------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetHashRecalc, "bpf_get_hash_recalc", {4, 8}, {kCtxA},
               RetType::kInteger, 80),
      {{"net_core", 320}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(const u32 len, SkbLen(ctx, a[0]));
        XB_ASSIGN_OR_RETURN(const Addr data, SkbData(ctx, a[0]));
        XB_ASSIGN_OR_RETURN(const std::vector<u8> head,
                            ReadMem(ctx.kernel, data,
                                    std::min<u32>(len, 16)));
        return xbase::Fnv1a(head) & 0xffffffff;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSetHash, "bpf_set_hash", {4, 13}, {kCtxA, kA},
               RetType::kInteger),
      {{"util", 1}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_RETURN_IF_ERROR(ctx.kernel.mem().WriteU32(
            a[0] + SkBuffLayout::kMark, static_cast<u32>(a[1])));
        return 0;
      }));

  // --- XDP ----------------------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperXdpAdjustHead, "bpf_xdp_adjust_head", {4, 10},
               {kCtxA, kA}, RetType::kInteger, 100),
      {{"net_core", 18}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        const s64 delta = static_cast<s64>(a[1]);
        XB_ASSIGN_OR_RETURN(const Addr data, SkbData(ctx, a[0]));
        XB_ASSIGN_OR_RETURN(const u32 len, SkbLen(ctx, a[0]));
        if (delta < 0 || static_cast<u64>(delta) >= len) {
          return NegErrno(kEInval);  // no headroom in the simulated buffer
        }
        XB_RETURN_IF_ERROR(ctx.kernel.mem().WriteU64(
            a[0] + SkBuffLayout::kDataPtr, data + delta));
        XB_RETURN_IF_ERROR(ctx.kernel.mem().WriteU32(
            a[0] + SkBuffLayout::kLen, len - static_cast<u32>(delta)));
        return 0;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperXdpAdjustMeta, "bpf_xdp_adjust_meta", {4, 15},
               {kCtxA, kA}, RetType::kInteger),
      {{"net_core", 15}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 0;
      }));

  // --- sockets -----------------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetSocketCookie, "bpf_get_socket_cookie", {4, 12},
               {kCtxA}, RetType::kInteger),
      {{"inet", 12}},
      [](HelperCtx&, const HelperArgs& a) -> xbase::Result<u64> {
        return xbase::Fnv1a(xbase::AsBytes(a[0]));
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperGetSocketUid, "bpf_get_socket_uid", {4, 12}, {kCtxA},
               RetType::kInteger),
      {{"inet", 10}},
      [](HelperCtx&, const HelperArgs&) -> xbase::Result<u64> {
        return 0;
      }));
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSetsockopt, "bpf_setsockopt", {4, 13},
               {kCtxA, kA, kA, kMem, kSz}, RetType::kInteger, 300),
      {{"inet", 700}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        ctx.kernel.Printk(xbase::StrFormat(
            "bpf_setsockopt: level %llu opt %llu",
            static_cast<unsigned long long>(a[1]),
            static_cast<unsigned long long>(a[2])));
        return 0;
      }));

  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperFibLookup, "bpf_fib_lookup", {4, 18},
               {kCtxA, kUMem, kSz, kA}, RetType::kInteger, 400),
      {{"net_core", 800}, {"inet", 200}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        if (a[2] < 8) {
          return NegErrno(kEInval);
        }
        u8 result[8];
        xbase::StoreLe32(result, 1);      // ifindex
        xbase::StoreLe32(result + 4, 0);  // BPF_FIB_LKUP_RET_SUCCESS
        XB_RETURN_IF_ERROR(WriteMem(ctx.kernel, a[1], result));
        return 0;
      }));

  // --- socket lookups (v4.20, acquire/release discipline) -------------------------------
  {
    HelperSpec spec = MakeSpec(kHelperSkLookupTcp, "bpf_sk_lookup_tcp",
                               {4, 20}, {kCtxA, kMem, kSz, kA, kA},
                               RetType::kSockOrNull, 350);
    spec.acquires_ref = true;
    XB_RETURN_IF_ERROR(def(std::move(spec),
                           {{"inet", 750}, {"net_core", 150}},
                           [](HelperCtx& ctx, const HelperArgs& a) {
                             return SkLookup(ctx, a, 6);
                           }));
  }
  {
    HelperSpec spec = MakeSpec(kHelperSkLookupUdp, "bpf_sk_lookup_udp",
                               {4, 20}, {kCtxA, kMem, kSz, kA, kA},
                               RetType::kSockOrNull, 350);
    spec.acquires_ref = true;
    XB_RETURN_IF_ERROR(def(std::move(spec),
                           {{"inet", 600}, {"net_core", 150}},
                           [](HelperCtx& ctx, const HelperArgs& a) {
                             return SkLookup(ctx, a, 17);
                           }));
  }
  {
    HelperSpec spec = MakeSpec(kHelperSkRelease, "bpf_sk_release", {4, 20},
                               {ArgType::kSock}, RetType::kInteger);
    spec.releases_ref_arg = 1;
    XB_RETURN_IF_ERROR(def(
        std::move(spec), {{"inet", 20}},
        [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
          auto sock = ctx.kernel.net().FindByAddr(a[0]);
          if (!sock.ok()) {
            return ctx.kernel.Route(
                xbase::KernelFault("bpf_sk_release of non-socket address"));
          }
          XB_RETURN_IF_ERROR(ctx.kernel.Route(
              ctx.kernel.objects().Release(sock.value().object_id)));
          return 0;
        }));
  }

  // --- socket-local storage --------------------------------------------------------------
  XB_RETURN_IF_ERROR(def(
      MakeSpec(kHelperSkStorageGet, "bpf_sk_storage_get", {5, 2},
               {kMapPtr, ArgType::kSock, kA, kA}, RetType::kMapValueOrNull,
               simkern::kCostMapOpNs),
      {{"inet", 350}, {"mm", 160}},
      [](HelperCtx& ctx, const HelperArgs& a) -> xbase::Result<u64> {
        XB_ASSIGN_OR_RETURN(Map* const map, ResolveMapArg(ctx, a[0]));
        if (map->spec().key_size != 8) {
          return NegErrno(kEInval);
        }
        if (a[1] == 0) {
          return 0;
        }
        u8 key[8];
        xbase::StoreLe64(key, a[1]);
        auto addr = map->LookupAddr(ctx.kernel, key);
        if (addr.ok()) {
          return addr.value();
        }
        if ((a[3] & 1) == 0) {
          return 0;
        }
        std::vector<u8> zero(map->spec().value_size, 0);
        const xbase::Status status =
            map->Update(ctx.kernel, key, zero, kBpfAny);
        if (!status.ok()) {
          return 0;
        }
        auto created = map->LookupAddr(ctx.kernel, key);
        return created.ok() ? created.value() : u64{0};
      }));

  return xbase::Status::Ok();
}

}  // namespace ebpf
