#include "src/core/toolchain.h"

#include <set>

#include "src/crypto/sha256.h"

namespace safex {

xbase::Status Toolchain::Audit(const ExtensionManifest& manifest) const {
  // Check 1: identity must be meaningful.
  if (manifest.name.empty() || manifest.version.empty()) {
    return xbase::Rejected("toolchain: manifest needs a name and version");
  }

  // Check 2: unsafe policy — the "only safe Rust" rule.
  const bool wants_unsafe =
      manifest.uses_unsafe || HasCap(manifest.caps, Capability::kUnsafeRaw);
  if (wants_unsafe && !policy_.allow_unsafe) {
    return xbase::Rejected(
        "toolchain: extension contains unsafe blocks; policy forbids "
        "signing it");
  }
  if (HasCap(manifest.caps, Capability::kUnsafeRaw) &&
      !manifest.uses_unsafe) {
    return xbase::Rejected(
        "toolchain: unsafe_raw capability without uses_unsafe marker");
  }

  // Check 3: capability list sanity.
  if (manifest.caps.size() > policy_.max_capabilities) {
    return xbase::Rejected("toolchain: too many capabilities requested");
  }
  std::set<Capability> seen;
  for (Capability cap : manifest.caps) {
    if (!seen.insert(cap).second) {
      return xbase::Rejected("toolchain: duplicate capability in manifest");
    }
  }

  // Check 4: every import must be a known kernel-crate symbol whose
  // required capability is declared.
  for (const std::string& import : manifest.imports) {
    const auto it = KnownImports().find(import);
    if (it == KnownImports().end()) {
      return xbase::Rejected("toolchain: unknown import " + import);
    }
    if (!HasCap(manifest.caps, it->second)) {
      return xbase::Rejected("toolchain: import " + import +
                             " requires undeclared capability " +
                             std::string(CapabilityName(it->second)));
    }
  }
  return xbase::Status::Ok();
}

xbase::Result<SignedArtifact> Toolchain::Build(
    ExtensionManifest manifest, ExtensionFactory factory,
    std::span<const xbase::u8> code_identity) {
  if (factory == nullptr) {
    return xbase::InvalidArgument("toolchain: no extension body");
  }
  XB_RETURN_IF_ERROR(Audit(manifest));

  SignedArtifact artifact;
  artifact.code_hash = crypto::Sha256::Hash(code_identity);
  artifact.manifest = std::move(manifest);
  const std::vector<xbase::u8> message =
      CanonicalEncode(artifact.manifest, artifact.code_hash);
  artifact.signature = key_.Sign(message);
  artifact.factory = std::move(factory);
  return artifact;
}

}  // namespace safex
