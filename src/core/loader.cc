#include "src/core/loader.h"

#include <chrono>

#include "src/xbase/strfmt.h"

namespace safex {

xbase::Result<PreparedExtension> ExtLoader::Prepare(
    const SignedArtifact& artifact) const {
  const auto start = std::chrono::steady_clock::now();

  // 1. Signature validation against the sealed boot keyring.
  const std::vector<xbase::u8> message =
      CanonicalEncode(artifact.manifest, artifact.code_hash);
  XB_RETURN_IF_ERROR(runtime_.keyring().Verify(message, artifact.signature));

  // 2. Kernel policy audit: even a validly signed unsafe extension needs
  // the kernel to opt in.
  if ((artifact.manifest.uses_unsafe ||
       HasCap(artifact.manifest.caps, Capability::kUnsafeRaw)) &&
      !runtime_.config().allow_unsafe_extensions) {
    return xbase::PermissionDenied(
        "kernel policy refuses unsafe extensions");
  }

  // 3. Load-time fixup: bind every symbolic import to a crate entry point.
  xbase::u32 relocations = 0;
  for (const std::string& import : artifact.manifest.imports) {
    if (!KnownImports().contains(import)) {
      return xbase::Rejected("fixup: unresolved import " + import);
    }
    ++relocations;
  }

  // 4. Instantiate.
  if (artifact.factory == nullptr) {
    return xbase::InvalidArgument("artifact has no body");
  }
  PreparedExtension prepared;
  prepared.manifest = artifact.manifest;
  prepared.instance = artifact.factory();
  prepared.relocations = relocations;
  if (prepared.instance == nullptr) {
    return xbase::Internal("artifact factory produced no extension");
  }
  prepared.load_wall_ns = static_cast<xbase::u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return prepared;
}

xbase::Result<xbase::u32> ExtLoader::Install(PreparedExtension prepared) {
  LoadedExtension loaded;
  loaded.manifest = std::move(prepared.manifest);
  loaded.instance = std::move(prepared.instance);
  loaded.relocations = prepared.relocations;
  loaded.load_wall_ns = prepared.load_wall_ns;

  const std::string name = loaded.manifest.name;
  const std::string version = loaded.manifest.version;
  const xbase::u32 relocations = loaded.relocations;

  xbase::u32 id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::optional<xbase::u32> fresh =
        ids_.Allocate(extensions_.size(), [this](xbase::u32 id) {
          return extensions_.contains(id);
        });
    if (!fresh) {
      return xbase::ResourceExhausted("extension id space exhausted");
    }
    id = *fresh;
    loaded.id = id;
    extensions_.emplace(id, std::move(loaded));
  }

  runtime_.kernel().Printk(xbase::StrFormat(
      "safex: extension %u (%s %s) loaded: signature ok, "
      "%u imports bound, no verifier involved",
      id, name.c_str(), version.c_str(), relocations));
  return id;
}

xbase::Result<xbase::u32> ExtLoader::Load(const SignedArtifact& artifact) {
  XB_ASSIGN_OR_RETURN(PreparedExtension prepared, Prepare(artifact));
  // Keep the pre-split dmesg detail: which key signed the artifact.
  runtime_.kernel().Printk(xbase::StrFormat(
      "safex: artifact '%s' signature validated (key '%s')",
      artifact.manifest.name.c_str(), artifact.signature.key_id.c_str()));
  return Install(std::move(prepared));
}

xbase::Result<const LoadedExtension*> ExtLoader::Find(xbase::u32 id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = extensions_.find(id);
  if (it == extensions_.end()) {
    return xbase::NotFound(xbase::StrFormat("no extension id %u", id));
  }
  return &it->second;
}

xbase::Status ExtLoader::Unload(xbase::u32 id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = extensions_.find(id);
    if (it == extensions_.end()) {
      return xbase::NotFound(xbase::StrFormat("no extension id %u", id));
    }
    if (it->second.attach_count > 0) {
      return xbase::FailedPrecondition(xbase::StrFormat(
          "extension %u has %u live attachment(s); detach before unload", id,
          it->second.attach_count));
    }
    extensions_.erase(it);
  }
  runtime_.kernel().Printk(
      xbase::StrFormat("safex: extension %u unloaded", id));
  return xbase::Status::Ok();
}

xbase::Status ExtLoader::Pin(xbase::u32 id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = extensions_.find(id);
  if (it == extensions_.end()) {
    return xbase::NotFound(xbase::StrFormat("no extension id %u", id));
  }
  ++it->second.attach_count;
  return xbase::Status::Ok();
}

void ExtLoader::Unpin(xbase::u32 id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = extensions_.find(id);
  if (it != extensions_.end() && it->second.attach_count > 0) {
    --it->second.attach_count;
  }
}

xbase::usize ExtLoader::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return extensions_.size();
}

xbase::Result<InvokeOutcome> ExtLoader::Invoke(xbase::u32 id,
                                               const InvokeOptions& options) {
  const LoadedExtension* extension = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = extensions_.find(id);
    if (it == extensions_.end()) {
      return xbase::NotFound(xbase::StrFormat("no extension id %u", id));
    }
    // Map nodes are stable and Unload refuses while the extension is
    // attached, so the entry outlives this invocation.
    extension = &it->second;
  }
  return Invoke(*extension, options);
}

InvokeOutcome ExtLoader::Invoke(const LoadedExtension& extension,
                                const InvokeOptions& options) {
  return runtime_.Invoke(*extension.instance, extension.manifest.caps,
                         options);
}

}  // namespace safex
