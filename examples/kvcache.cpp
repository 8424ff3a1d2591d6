// In-kernel key-value cache: the storage acceleration scenario the paper's
// intro cites (BMC [20] — "Accelerating Memcached using Safe In-kernel
// Caching"). GET requests are served from a hash-map cache inside the
// extension; misses fall through to "userspace" (this main), which installs
// the answer. BMC famously had to be split into many small eBPF programs to
// fit the verifier; here the whole cache — loop over the request buffer
// included — is one extension.
//
// Run: ./build/examples/kvcache
#include <cstdio>
#include <functional>
#include <map>

#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/xbase/bytes.h"

namespace {

constexpr xbase::u32 kKeySize = 16;
constexpr xbase::u32 kValueSize = 32;

// Request layout in the packet: 'G'|'S', key[16], value[32] (for SET).
class KvCache : public safex::Extension {
 public:
  explicit KvCache(int cache_fd) : cache_fd_(cache_fd) {}

  xbase::Result<xbase::u64> Run(safex::Ctx& ctx) override {
    auto packet = ctx.Packet();
    XB_RETURN_IF_ERROR(packet.status());
    if (packet.value().size() < 1 + kKeySize) {
      return 0;  // malformed -> userspace
    }
    auto op = packet.value().ReadU8(0);
    XB_RETURN_IF_ERROR(op.status());
    auto key = packet.value().ReadBytes(1, kKeySize);
    XB_RETURN_IF_ERROR(key.status());

    auto cache = ctx.Map(cache_fd_);
    XB_RETURN_IF_ERROR(cache.status());

    if (op.value() == 'S') {
      if (packet.value().size() < 1 + kKeySize + kValueSize) {
        return 0;
      }
      auto value = packet.value().ReadBytes(1 + kKeySize, kValueSize);
      XB_RETURN_IF_ERROR(value.status());
      XB_RETURN_IF_ERROR(cache.value().Update(key.value(), value.value(),
                                              0));
      return 'S';  // stored in-kernel
    }

    // GET: serve from cache if hot.
    auto hit = cache.value().Lookup(key.value());
    if (!hit.ok()) {
      return 0;  // miss -> userspace
    }
    // "Respond" by writing the value back into the packet in place —
    // the BMC pre-stack-processing trick.
    auto bytes = hit.value().ReadBytes(0, kValueSize);
    XB_RETURN_IF_ERROR(bytes.status());
    XB_RETURN_IF_ERROR(
        packet.value().WriteBytes(1 + kKeySize, bytes.value()));
    return 'H';  // hit, served in-kernel
  }

 private:
  int cache_fd_;
};

std::vector<xbase::u8> MakeRequest(char op, const std::string& key,
                                   const std::string& value = "") {
  std::vector<xbase::u8> packet(1 + kKeySize + kValueSize, 0);
  packet[0] = static_cast<xbase::u8>(op);
  std::copy(key.begin(), key.end(), packet.begin() + 1);
  std::copy(value.begin(), value.end(), packet.begin() + 1 + kKeySize);
  return packet;
}

}  // namespace

int main() {
  safex::System sys;
  simkern::Kernel& kernel = sys.kernel;

  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kHash;
  spec.key_size = kKeySize;
  spec.value_size = kValueSize;
  spec.max_entries = 64;
  spec.name = "kv-cache";
  const int cache_fd = sys.bpf.maps().Create(spec).value();

  safex::Toolchain toolchain(safex::System::VendorKey());
  safex::ExtensionManifest manifest;
  manifest.name = "kv-cache";
  manifest.version = "1.0";
  manifest.caps = {safex::Capability::kPacketAccess,
                   safex::Capability::kMapAccess};
  auto artifact =
      toolchain
          .Build(manifest,
                 [cache_fd]() { return std::make_unique<KvCache>(cache_fd); },
                 crypto::Sha256::HashString("kv-cache-1.0"))
          .value();
  safex::ExtLoader& loader = *sys.ext_loader;
  const xbase::u32 ext_id = loader.Load(artifact).value();

  std::map<std::string, std::string> userspace_store = {
      {"alpha", "value-of-alpha"}, {"beta", "value-of-beta"}};

  std::function<void(char, const std::string&, const std::string&)> drive =
      [&](char op, const std::string& k, const std::string& v) {
    auto packet = MakeRequest(op, k, v);
    auto skb = kernel.net().CreateSkBuff(kernel.mem(), packet).value();
    safex::InvokeOptions opts;
    opts.skb_meta = skb.meta_addr;
    auto outcome = loader.Invoke(ext_id, opts).value();
    if (outcome.ret == 'H') {
      std::printf("GET %-6s -> in-kernel cache HIT\n", k.c_str());
    } else if (outcome.ret == 'S') {
      std::printf("SET %-6s -> cached in-kernel\n", k.c_str());
    } else {
      // Miss: userspace answers and warms the cache via a SET request.
      const auto it = userspace_store.find(k);
      std::printf("GET %-6s -> miss, userspace answers '%s', warming "
                  "cache\n",
                  k.c_str(), it == userspace_store.end() ? "(none)"
                                                         : it->second.c_str());
      if (it != userspace_store.end()) {
        drive('S', k, it->second);
      }
    }
  };

  drive('G', "alpha", "");  // miss -> warm
  drive('G', "alpha", "");  // hit
  drive('G', "beta", "");   // miss -> warm
  drive('G', "beta", "");   // hit
  drive('G', "alpha", "");  // still hit
  drive('G', "gamma", "");  // miss, nothing to warm

  std::printf("\nBMC note: upstream BMC split its cache into many eBPF "
              "programs to satisfy verifier limits; this extension is one "
              "plain function.\n");
  return 0;
}
