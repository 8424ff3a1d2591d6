// Shared plumbing for the reproduction benches: small table-printing
// helpers so every bench emits the same layout the paper's tables/figures
// use. The experiment rig itself is safex::System.
#pragma once

#include <cstdio>
#include <string>

#include "src/core/system.h"
#include "src/core/toolchain.h"

namespace benchutil {

inline void Title(const std::string& text) {
  std::printf("\n=== %s ===\n", text.c_str());
}

inline void Rule(int width = 78) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline void Note(const std::string& text) {
  std::printf("  note: %s\n", text.c_str());
}

// Creates an array map of the given geometry, exiting on failure.
inline int MustCreateArrayMap(safex::System& rig, const std::string& name,
                              xbase::u32 value_size, xbase::u32 entries) {
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kArray;
  spec.key_size = 4;
  spec.value_size = value_size;
  spec.max_entries = entries;
  spec.name = name;
  auto fd = rig.bpf.maps().Create(spec);
  if (!fd.ok()) {
    std::fprintf(stderr, "map create failed: %s\n",
                 fd.status().ToString().c_str());
    std::exit(1);
  }
  return fd.value();
}

}  // namespace benchutil
