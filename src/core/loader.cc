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
  const std::string name = prepared.manifest.name;
  const std::string version = prepared.manifest.version;
  const xbase::u32 relocations = prepared.relocations;
  XB_ASSIGN_OR_RETURN(const xbase::u32 id,
                      extensions_.Insert(LoadedExtension{std::move(prepared)}));
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
  return extensions_.Find(id);
}

xbase::Status ExtLoader::Unload(xbase::u32 id) {
  XB_RETURN_IF_ERROR(extensions_.Erase(id));
  runtime_.kernel().Printk(
      xbase::StrFormat("safex: extension %u unloaded", id));
  return xbase::Status::Ok();
}

xbase::Result<const LoadedExtension*> ExtLoader::Pin(xbase::u32 id) {
  return extensions_.Pin(id);
}

void ExtLoader::Unpin(xbase::u32 id) { extensions_.Unpin(id); }

xbase::usize ExtLoader::size() const { return extensions_.size(); }

xbase::Result<InvokeOutcome> ExtLoader::Invoke(xbase::u32 id,
                                               const InvokeOptions& options) {
  // Unload refuses while the extension is attached, so the entry outlives
  // this invocation.
  XB_ASSIGN_OR_RETURN(const LoadedExtension* extension, extensions_.Find(id));
  return Invoke(*extension, options);
}

InvokeOutcome ExtLoader::Invoke(const LoadedExtension& extension,
                                const InvokeOptions& options) {
  return runtime_.Invoke(*extension.instance, extension.manifest.caps,
                         options);
}

}  // namespace safex
