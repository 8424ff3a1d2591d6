// LSM hook substrate: the context block an lsm_file_open extension decides
// over. The block is written by whoever fires the hook (tests, storms, a
// future security core) and is read-only to the program; the extension's
// return value is the verdict — 0 allows the open, a positive errno denies
// it. Unlike the packet and tracing families there is no neutral verdict:
// a failed or quarantined lsm attachment must deny (fail closed), which is
// why the lsm_file_open row of safex::kHookFamilies fails closed with EPERM.
#pragma once

#include "src/xbase/types.h"

namespace simkern {

// Context block layout for lsm_file_open extensions (mirrors the style of
// SchedCtxLayout: fixed offsets into a 64-byte read-only block).
struct LsmCtxLayout {
  static constexpr xbase::usize kPid = 0;        // u32 acting task
  static constexpr xbase::usize kUid = 4;        // u32 acting cred uid
  static constexpr xbase::usize kInodeId = 8;    // u64 target inode
  static constexpr xbase::usize kOpenFlags = 16; // u32 O_* flags
  static constexpr xbase::usize kPathLen = 20;   // u32 valid path bytes
  static constexpr xbase::usize kPath = 24;      // path bytes (kPathMax)
  static constexpr xbase::usize kPathMax = 40;
  static constexpr xbase::usize kSize = 64;
};

}  // namespace simkern
