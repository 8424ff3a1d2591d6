// The kernel-side load path of the proposed framework: validate the
// signature against the boot keyring, audit the manifest against kernel
// policy, perform load-time fixup (bind symbolic imports to crate entry
// points), and register the extension. No safety checking happens here —
// that moved to the toolchain — which is exactly the paper's claim about
// where the complexity goes.
//
// Like ebpf::Loader, the path is split into a thread-safe Prepare
// (signature + policy + fixup + instantiation) and a locked Install
// (registration in the id-and-pin table ebpf::Loader uses too) so the
// admission pipeline can run signature validation on worker threads.
#pragma once

#include <memory>

#include "src/core/artifact.h"
#include "src/core/ext.h"
#include "src/xbase/ids.h"

namespace safex {

// Outcome of the fallible load stages, ready to register. Move-only (owns
// the instantiated extension).
struct PreparedExtension {
  ExtensionManifest manifest;
  std::unique_ptr<Extension> instance;
  xbase::u32 relocations = 0;   // imports bound during fixup
  xbase::u64 load_wall_ns = 0;  // host time spent in the load path
};

// A registered extension: its prepared load, unchanged, plus its id.
struct LoadedExtension : PreparedExtension {
  xbase::u32 id = 0;
  // Live hook attachments referencing this id; Unload refuses while > 0.
  xbase::u32 attach_count = 0;
};

class ExtLoader {
 public:
  explicit ExtLoader(Runtime& runtime) : runtime_(runtime) {}

  xbase::Result<xbase::u32> Load(const SignedArtifact& artifact);

  // Signature validation, policy audit, fixup and instantiation — no
  // registration. Safe to call concurrently from admission workers.
  xbase::Result<PreparedExtension> Prepare(const SignedArtifact& artifact) const;

  // Registers a prepared extension under a fresh id (xbase::IdTable::Insert).
  xbase::Result<xbase::u32> Install(PreparedExtension prepared);

  xbase::Result<const LoadedExtension*> Find(xbase::u32 id) const;

  // Removes a loaded extension. Refuses with FailedPrecondition while hook
  // attachments still reference the id; later Invoke calls fail NotFound.
  xbase::Status Unload(xbase::u32 id);

  // Attachment refcount (see ebpf::Loader::Pin).
  xbase::Result<const LoadedExtension*> Pin(xbase::u32 id);
  void Unpin(xbase::u32 id);

  // Invokes a loaded extension with its manifest's capabilities.
  xbase::Result<InvokeOutcome> Invoke(xbase::u32 id,
                                      const InvokeOptions& options = {});
  // The same for an extension the caller already resolved (and keeps
  // pinned), without the id lookup and its lock.
  InvokeOutcome Invoke(const LoadedExtension& extension,
                       const InvokeOptions& options = {});

  xbase::usize size() const;

 private:
  Runtime& runtime_;
  xbase::IdTable<LoadedExtension> extensions_{"extension", "extension",
                                              "extension"};
};

}  // namespace safex
