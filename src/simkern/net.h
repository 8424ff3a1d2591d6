// Simulated network substrate: sockets (with refcounted identities — the
// target of bpf_sk_lookup_tcp / bpf_sk_release) and socket buffers backing
// the XDP/skb program contexts.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/simkern/mem.h"
#include "src/simkern/object.h"
#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace simkern {

// Byte offsets inside a sock region.
struct SockLayout {
  static constexpr xbase::usize kFamily = 0;    // u32
  static constexpr xbase::usize kProtocol = 4;  // u32
  static constexpr xbase::usize kSrcIp = 8;     // u32
  static constexpr xbase::usize kDstIp = 12;    // u32
  static constexpr xbase::usize kSrcPort = 16;  // u16
  static constexpr xbase::usize kDstPort = 18;  // u16
  static constexpr xbase::usize kState = 20;    // u32
  static constexpr xbase::usize kSize = 64;
};

struct SockTuple {
  xbase::u32 src_ip = 0;
  xbase::u32 dst_ip = 0;
  xbase::u16 src_port = 0;
  xbase::u16 dst_port = 0;

  auto operator<=>(const SockTuple&) const = default;
};

struct Sock {
  SockTuple tuple;
  xbase::u32 protocol = 6;  // IPPROTO_TCP
  Addr struct_addr = 0;
  ObjectId object_id = 0;
};

// Byte offsets of the sk_buff metadata block exposed to programs as the
// __sk_buff-style context.
struct SkBuffLayout {
  static constexpr xbase::usize kLen = 0;        // u32
  static constexpr xbase::usize kProtocol = 4;   // u32
  static constexpr xbase::usize kDataPtr = 8;    // u64: packet bytes addr
  static constexpr xbase::usize kDataEndPtr = 16;// u64
  static constexpr xbase::usize kMark = 24;      // u32
  static constexpr xbase::usize kSize = 64;
};

struct SkBuff {
  Addr meta_addr = 0;  // the SkBuffLayout block
  Addr data_addr = 0;  // packet payload region
  xbase::u32 len = 0;
};

class NetState {
 public:
  // Registers a listening/established socket reachable via lookup helpers.
  xbase::Result<ObjectId> CreateSock(SimMemory& mem, ObjectTable& objects,
                                     const SockTuple& tuple,
                                     xbase::u32 protocol);

  // 5-tuple lookup; returns the sock (not yet acquired — helpers decide
  // whether the reference is taken, which is exactly where the leak bugs
  // live).
  std::optional<Sock> Lookup(const SockTuple& tuple) const;
  xbase::Result<Sock> FindByAddr(Addr struct_addr) const;

  // Builds an sk_buff whose payload is `payload` (metadata block + data
  // region in SimMemory).
  xbase::Result<SkBuff> CreateSkBuff(SimMemory& mem,
                                     std::span<const xbase::u8> payload);

 private:
  std::map<SockTuple, Sock> socks_;
  std::vector<SkBuff> skbs_;
};

}  // namespace simkern
