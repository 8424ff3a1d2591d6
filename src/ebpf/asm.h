// Program construction API: free functions mirroring the kernel's
// BPF_MOV64_IMM-style macros, plus a ProgramBuilder with symbolic labels so
// tests and workload generators can write nontrivial control flow without
// hand-counting jump offsets.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/ebpf/prog.h"
#include "src/xbase/status.h"

namespace ebpf {

// ---- single-instruction constructors ---------------------------------------
inline Insn Mov64Imm(u8 dst, s32 imm) {
  return Insn{static_cast<u8>(BPF_ALU64 | BPF_MOV | BPF_K), dst, 0, 0, imm};
}
inline Insn Mov64Reg(u8 dst, u8 src) {
  return Insn{static_cast<u8>(BPF_ALU64 | BPF_MOV | BPF_X), dst, src, 0, 0};
}
inline Insn Mov32Imm(u8 dst, s32 imm) {
  return Insn{static_cast<u8>(BPF_ALU | BPF_MOV | BPF_K), dst, 0, 0, imm};
}
inline Insn Mov32Reg(u8 dst, u8 src) {
  return Insn{static_cast<u8>(BPF_ALU | BPF_MOV | BPF_X), dst, src, 0, 0};
}
inline Insn Alu64Imm(u8 op, u8 dst, s32 imm) {
  return Insn{static_cast<u8>(BPF_ALU64 | op | BPF_K), dst, 0, 0, imm};
}
inline Insn Alu64Reg(u8 op, u8 dst, u8 src) {
  return Insn{static_cast<u8>(BPF_ALU64 | op | BPF_X), dst, src, 0, 0};
}
inline Insn Alu32Imm(u8 op, u8 dst, s32 imm) {
  return Insn{static_cast<u8>(BPF_ALU | op | BPF_K), dst, 0, 0, imm};
}
inline Insn Alu32Reg(u8 op, u8 dst, u8 src) {
  return Insn{static_cast<u8>(BPF_ALU | op | BPF_X), dst, src, 0, 0};
}
inline Insn Neg64(u8 dst) {
  return Insn{static_cast<u8>(BPF_ALU64 | BPF_NEG), dst, 0, 0, 0};
}

// Memory: *(size *)(dst + off) = src / imm, and loads.
inline Insn StxMem(u8 size, u8 dst, u8 src, s16 off) {
  return Insn{static_cast<u8>(BPF_STX | size | BPF_MEM), dst, src, off, 0};
}
inline Insn StMemImm(u8 size, u8 dst, s16 off, s32 imm) {
  return Insn{static_cast<u8>(BPF_ST | size | BPF_MEM), dst, 0, off, imm};
}
inline Insn LdxMem(u8 size, u8 dst, u8 src, s16 off) {
  return Insn{static_cast<u8>(BPF_LDX | size | BPF_MEM), dst, src, off, 0};
}
// Atomic fetch-add: *(size *)(dst + off) += src (the classic BPF_XADD).
inline Insn AtomicAdd(u8 size, u8 dst, u8 src, s16 off) {
  return Insn{static_cast<u8>(BPF_STX | size | BPF_ATOMIC), dst, src, off,
              BPF_ADD};
}

// 64-bit immediate load (two instruction slots).
inline std::vector<Insn> LdImm64(u8 dst, u64 imm) {
  return {Insn{static_cast<u8>(BPF_LD | BPF_DW | BPF_IMM), dst, 0, 0,
               static_cast<s32>(imm & 0xffffffff)},
          Insn{0, 0, 0, 0, static_cast<s32>(imm >> 32)}};
}
// Map reference: ld_imm64 with the pseudo source; imm = map fd.
inline std::vector<Insn> LdMapFd(u8 dst, s32 map_fd) {
  return {Insn{static_cast<u8>(BPF_LD | BPF_DW | BPF_IMM), dst,
               BPF_PSEUDO_MAP_FD, 0, map_fd},
          Insn{0, 0, 0, 0, 0}};
}
// Callback reference (bpf_loop): ld_imm64 with the func pseudo source;
// imm = absolute instruction index of the callback entry.
inline std::vector<Insn> LdFunc(u8 dst, s32 callback_pc) {
  return {Insn{static_cast<u8>(BPF_LD | BPF_DW | BPF_IMM), dst,
               BPF_PSEUDO_FUNC, 0, callback_pc},
          Insn{0, 0, 0, 0, 0}};
}

inline Insn JmpImm(u8 op, u8 dst, s32 imm, s16 off) {
  return Insn{static_cast<u8>(BPF_JMP | op | BPF_K), dst, 0, off, imm};
}
inline Insn JmpReg(u8 op, u8 dst, u8 src, s16 off) {
  return Insn{static_cast<u8>(BPF_JMP | op | BPF_X), dst, src, off, 0};
}
inline Insn Jmp32Imm(u8 op, u8 dst, s32 imm, s16 off) {
  return Insn{static_cast<u8>(BPF_JMP32 | op | BPF_K), dst, 0, off, imm};
}
inline Insn Jmp32Reg(u8 op, u8 dst, u8 src, s16 off) {
  return Insn{static_cast<u8>(BPF_JMP32 | op | BPF_X), dst, src, off, 0};
}
inline Insn Ja(s16 off) {
  return Insn{static_cast<u8>(BPF_JMP | BPF_JA), 0, 0, off, 0};
}
inline Insn CallHelper(s32 helper_id) {
  return Insn{static_cast<u8>(BPF_JMP | BPF_CALL), 0, 0, 0, helper_id};
}
// Call into an exposed internal kernel function (v5.13+); imm = btf id.
inline Insn CallKfunc(s32 btf_id) {
  return Insn{static_cast<u8>(BPF_JMP | BPF_CALL), 0,
              BPF_PSEUDO_KFUNC_CALL, 0, btf_id};
}
// BPF-to-BPF call: imm is the pc delta to the subprog entry (resolved by the
// builder when using labels).
inline Insn CallPseudo(s32 insn_delta) {
  return Insn{static_cast<u8>(BPF_JMP | BPF_CALL), 0, BPF_PSEUDO_CALL, 0,
              insn_delta};
}
inline Insn Exit() {
  return Insn{static_cast<u8>(BPF_JMP | BPF_EXIT), 0, 0, 0, 0};
}

// ---- builder ----------------------------------------------------------------
// Usage:
//   ProgramBuilder b("filter", ProgType::kXdp);
//   b.Ins(Mov64Imm(R0, 0));
//   b.JmpTo(BPF_JEQ, R1, 0, "drop");
//   ...
//   b.Bind("drop");
//   b.Ins(Exit());
//   auto prog = b.Build();
class ProgramBuilder {
 public:
  ProgramBuilder(std::string name, ProgType type) {
    prog_.name = std::move(name);
    prog_.type = type;
  }

  ProgramBuilder& Ins(const Insn& insn) {
    prog_.insns.push_back(insn);
    return *this;
  }
  ProgramBuilder& Ins(const std::vector<Insn>& insns) {
    for (const Insn& insn : insns) {
      prog_.insns.push_back(insn);
    }
    return *this;
  }

  // Conditional jump to a label (immediate comparand).
  ProgramBuilder& JmpTo(u8 op, u8 dst, s32 imm, const std::string& label);
  // Conditional jump to a label (register comparand).
  ProgramBuilder& JmpRegTo(u8 op, u8 dst, u8 src, const std::string& label);
  // Unconditional jump to a label.
  ProgramBuilder& JaTo(const std::string& label);
  // BPF-to-BPF call to a label.
  ProgramBuilder& CallTo(const std::string& label);
  // Callback reference to a label (two instruction slots).
  ProgramBuilder& LdFuncTo(u8 dst, const std::string& label);

  // Binds `label` to the next instruction index.
  ProgramBuilder& Bind(const std::string& label);

  // Resolves all label fixups. Fails on unbound labels or offsets that do
  // not fit the 16-bit field.
  xbase::Result<Program> Build();

 private:
  enum class FixupKind : u8 { kJump, kCall, kFunc };
  struct Fixup {
    u32 insn_index;
    std::string label;
    FixupKind kind;
  };

  Program prog_;
  std::map<std::string, u32> labels_;
  std::vector<Fixup> fixups_;
};

}  // namespace ebpf
