// The trusted userspace toolchain (§3.1 "Decoupling static code analysis").
// This is where the paper moves all static checking: the toolchain audits
// the extension (no unsafe blocks unless policy allows, imports consistent
// with declared capabilities), computes the code identity, and signs the
// canonical artifact. The kernel then only has to validate a signature —
// the entire in-kernel verifier disappears from the trust path.
#pragma once

#include "src/core/artifact.h"

namespace safex {

struct ToolchainPolicy {
  bool allow_unsafe = false;  // refuse `unsafe` blocks by default
  xbase::u32 max_capabilities = 12;
};

class Toolchain {
 public:
  Toolchain(crypto::SigningKey key, ToolchainPolicy policy = {})
      : key_(std::move(key)), policy_(policy) {}

  // Audits and signs. `code_identity` stands in for the compiled body; its
  // SHA-256 becomes the signed code hash, so any post-signing change to the
  // "code" invalidates the artifact.
  xbase::Result<SignedArtifact> Build(ExtensionManifest manifest,
                                      ExtensionFactory factory,
                                      std::span<const xbase::u8> code_identity);

 private:
  xbase::Status Audit(const ExtensionManifest& manifest) const;

  crypto::SigningKey key_;
  ToolchainPolicy policy_;
};

}  // namespace safex
