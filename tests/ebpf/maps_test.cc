// Map substrate tests: CRUD semantics per map type, update flags, the
// use-after-free behaviour of deleted hash entries, ring-buffer
// producer/consumer discipline, and the injectable array-overflow defect.
#include <gtest/gtest.h>

#include "src/ebpf/bpf.h"
#include "src/xbase/bytes.h"

namespace ebpf {
namespace {

class MapsTest : public ::testing::Test {
 protected:
  MapsTest() : bpf_(kernel_) {}

  int Create(MapType type, u32 key_size, u32 value_size, u32 entries) {
    MapSpec spec;
    spec.type = type;
    spec.key_size = key_size;
    spec.value_size = value_size;
    spec.max_entries = entries;
    spec.name = "m";
    auto fd = bpf_.maps().Create(spec);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return fd.value_or(-1);
  }

  Map* Find(int fd) { return bpf_.maps().Find(fd).value(); }

  static std::vector<u8> Key32(u32 key) {
    std::vector<u8> out(4);
    xbase::StoreLe32(out.data(), key);
    return out;
  }
  static std::vector<u8> Value64(u64 value) {
    std::vector<u8> out(8);
    xbase::StoreLe64(out.data(), value);
    return out;
  }

  u64 ReadValue(simkern::Addr addr) {
    return kernel_.mem().ReadU64(addr).value();
  }

  simkern::Kernel kernel_;
  Bpf bpf_;
};

// ---- array ----------------------------------------------------------------------

TEST_F(MapsTest, ArrayElementsAlwaysExist) {
  const int fd = Create(MapType::kArray, 4, 8, 4);
  Map* map = Find(fd);
  // Fresh elements are zero and addressable.
  auto addr = map->LookupAddr(kernel_, Key32(3));
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(ReadValue(addr.value()), 0u);
  ASSERT_TRUE(map->Update(kernel_, Key32(3), Value64(99), kBpfAny).ok());
  EXPECT_EQ(ReadValue(addr.value()), 99u);
}

TEST_F(MapsTest, ArrayIndexOutOfRange) {
  const int fd = Create(MapType::kArray, 4, 8, 4);
  EXPECT_EQ(Find(fd)->LookupAddr(kernel_, Key32(4)).status().code(),
            xbase::Code::kNotFound);
}

TEST_F(MapsTest, ArrayRejectsDeleteAndNoExist) {
  const int fd = Create(MapType::kArray, 4, 8, 4);
  EXPECT_FALSE(Find(fd)->Delete(kernel_, Key32(0)).ok());
  EXPECT_EQ(
      Find(fd)->Update(kernel_, Key32(0), Value64(1), kBpfNoExist).code(),
      xbase::Code::kAlreadyExists);
}

TEST_F(MapsTest, ArrayRejectsWrongKeyOrValueSize) {
  const int fd = Create(MapType::kArray, 4, 8, 4);
  std::vector<u8> bad_key(8, 0);
  EXPECT_FALSE(Find(fd)->LookupAddr(kernel_, bad_key).ok());
  std::vector<u8> bad_value(4, 0);
  EXPECT_FALSE(Find(fd)->Update(kernel_, Key32(0), bad_value, kBpfAny).ok());
}

TEST_F(MapsTest, ArrayOverflowDefectAliasesElementZero) {
  const int fd = Create(MapType::kArray, 4, 8, 8200);
  auto* array = dynamic_cast<ArrayMap*>(Find(fd));
  ASSERT_NE(array, nullptr);
  array->InjectIndexOverflow(true);
  // index 8192 * 8 bytes = 65536 wraps to 0 at 16 bits.
  ASSERT_TRUE(array->Update(kernel_, Key32(8192), Value64(0x41), kBpfAny)
                  .ok());
  auto elem0 = array->LookupAddr(kernel_, Key32(0));
  EXPECT_EQ(ReadValue(elem0.value()), 0x41u) << "corruption must alias";
  array->InjectIndexOverflow(false);
  ASSERT_TRUE(array->Update(kernel_, Key32(8192), Value64(0x42), kBpfAny)
                  .ok());
  EXPECT_EQ(ReadValue(elem0.value()), 0x41u) << "fixed path writes high";
}

// ---- hash -----------------------------------------------------------------------

TEST_F(MapsTest, HashInsertLookupDelete) {
  const int fd = Create(MapType::kHash, 8, 8, 4);
  Map* map = Find(fd);
  std::vector<u8> key(8, 0xaa);
  EXPECT_EQ(map->LookupAddr(kernel_, key).status().code(),
            xbase::Code::kNotFound);
  ASSERT_TRUE(map->Update(kernel_, key, Value64(7), kBpfAny).ok());
  EXPECT_EQ(map->entry_count(), 1u);
  EXPECT_EQ(ReadValue(map->LookupAddr(kernel_, key).value()), 7u);
  ASSERT_TRUE(map->Delete(kernel_, key).ok());
  EXPECT_EQ(map->entry_count(), 0u);
  EXPECT_EQ(map->Delete(kernel_, key).code(), xbase::Code::kNotFound);
}

TEST_F(MapsTest, HashUpdateFlagSemantics) {
  const int fd = Create(MapType::kHash, 4, 8, 4);
  Map* map = Find(fd);
  EXPECT_EQ(map->Update(kernel_, Key32(1), Value64(1), kBpfExist).code(),
            xbase::Code::kNotFound);
  ASSERT_TRUE(map->Update(kernel_, Key32(1), Value64(1), kBpfNoExist).ok());
  EXPECT_EQ(map->Update(kernel_, Key32(1), Value64(2), kBpfNoExist).code(),
            xbase::Code::kAlreadyExists);
  ASSERT_TRUE(map->Update(kernel_, Key32(1), Value64(2), kBpfExist).ok());
}

TEST_F(MapsTest, HashCapacityEnforced) {
  const int fd = Create(MapType::kHash, 4, 8, 2);
  Map* map = Find(fd);
  ASSERT_TRUE(map->Update(kernel_, Key32(1), Value64(1), kBpfAny).ok());
  ASSERT_TRUE(map->Update(kernel_, Key32(2), Value64(2), kBpfAny).ok());
  EXPECT_EQ(map->Update(kernel_, Key32(3), Value64(3), kBpfAny).code(),
            xbase::Code::kResourceExhausted);
  // Overwriting an existing key still works at capacity.
  EXPECT_TRUE(map->Update(kernel_, Key32(1), Value64(9), kBpfAny).ok());
}

TEST_F(MapsTest, DeletedHashEntryAddressFaults) {
  // The use-after-free shape: a stale value pointer faults once the entry
  // is deleted (its region is unmapped).
  const int fd = Create(MapType::kHash, 4, 8, 4);
  Map* map = Find(fd);
  ASSERT_TRUE(map->Update(kernel_, Key32(1), Value64(1), kBpfAny).ok());
  const simkern::Addr stale = map->LookupAddr(kernel_, Key32(1)).value();
  ASSERT_TRUE(map->Delete(kernel_, Key32(1)).ok());
  u8 buf[8];
  EXPECT_EQ(kernel_.mem().ReadChecked(stale, buf, 0)->kind,
            simkern::FaultKind::kUnmapped);
}

// ---- per-CPU array ------------------------------------------------------------------

TEST_F(MapsTest, PercpuSlotsAreIndependent) {
  const int fd = Create(MapType::kPercpuArray, 4, 8, 2);
  auto* map = dynamic_cast<PercpuArrayMap*>(Find(fd));
  ASSERT_NE(map, nullptr);
  const auto cpu0 = map->LookupAddrForCpu(Key32(1), 0);
  const auto cpu1 = map->LookupAddrForCpu(Key32(1), 1);
  ASSERT_TRUE(cpu0.ok());
  ASSERT_TRUE(cpu1.ok());
  EXPECT_NE(cpu0.value(), cpu1.value());
  ASSERT_TRUE(kernel_.mem().WriteU64(cpu0.value(), 111).ok());
  EXPECT_EQ(ReadValue(cpu1.value()), 0u);
  EXPECT_FALSE(map->LookupAddrForCpu(Key32(0), 99).ok());
}

TEST_F(MapsTest, PercpuLookupAddrRoutesToExecutingCpu) {
  // Regression: LookupAddr used to hardcode cpu 0, so every executing
  // CPU aliased onto the same slot.
  const int fd = Create(MapType::kPercpuArray, 4, 8, 2);
  auto* map = dynamic_cast<PercpuArrayMap*>(Find(fd));
  ASSERT_NE(map, nullptr);
  const simkern::CpuBinding saved = simkern::ThisThreadCpuBinding();
  simkern::ThisThreadCpuBinding() = simkern::CpuBinding{&kernel_, 0};
  const simkern::Addr cpu0_addr = map->LookupAddr(kernel_, Key32(1)).value();
  simkern::ThisThreadCpuBinding() = simkern::CpuBinding{&kernel_, 1};
  const simkern::Addr cpu1_addr = map->LookupAddr(kernel_, Key32(1)).value();
  simkern::ThisThreadCpuBinding() = saved;
  EXPECT_NE(cpu0_addr, cpu1_addr);
  EXPECT_EQ(cpu0_addr, map->LookupAddrForCpu(Key32(1), 0).value());
  EXPECT_EQ(cpu1_addr, map->LookupAddrForCpu(Key32(1), 1).value());
}

// ---- prog array ---------------------------------------------------------------------

TEST_F(MapsTest, ProgArrayStoresIds) {
  const int fd = Create(MapType::kProgArray, 4, 4, 4);
  auto* map = dynamic_cast<ProgArrayMap*>(Find(fd));
  ASSERT_NE(map, nullptr);
  EXPECT_FALSE(map->ProgIdAt(0).has_value());
  std::vector<u8> value(4);
  xbase::StoreLe32(value.data(), 55);
  ASSERT_TRUE(map->Update(kernel_, Key32(0), value, kBpfAny).ok());
  EXPECT_EQ(map->ProgIdAt(0).value(), 55u);
  EXPECT_EQ(map->entry_count(), 1u);
  ASSERT_TRUE(map->Delete(kernel_, Key32(0)).ok());
  EXPECT_FALSE(map->ProgIdAt(0).has_value());
  // Direct reads of prog-array values are forbidden.
  EXPECT_EQ(map->LookupAddr(kernel_, Key32(0)).status().code(),
            xbase::Code::kPermissionDenied);
}

// ---- ring buffer ----------------------------------------------------------------------

TEST_F(MapsTest, RingbufSizeMustBePowerOfTwo) {
  MapSpec spec;
  spec.type = MapType::kRingBuf;
  spec.max_entries = 100;  // not a power of two
  spec.name = "rb";
  EXPECT_FALSE(bpf_.maps().Create(spec).ok());
}

TEST_F(MapsTest, RingbufOutputConsumeRoundTrip) {
  const int fd = Create(MapType::kRingBuf, 0, 0, 256);
  auto* ringbuf = dynamic_cast<RingBufMap*>(Find(fd));
  ASSERT_NE(ringbuf, nullptr);
  const u8 record[] = {1, 2, 3, 4};
  ASSERT_TRUE(ringbuf->Output(kernel_, record).ok());
  auto consumed = ringbuf->Consume(kernel_);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(consumed.value(), std::vector<u8>({1, 2, 3, 4}));
  EXPECT_EQ(ringbuf->Consume(kernel_).status().code(),
            xbase::Code::kNotFound);
}

TEST_F(MapsTest, RingbufReserveCommitDiscard) {
  const int fd = Create(MapType::kRingBuf, 0, 0, 64);
  auto* ringbuf = dynamic_cast<RingBufMap*>(Find(fd));
  auto rec = ringbuf->Reserve(kernel_, 16);
  ASSERT_TRUE(rec.ok());
  // Uncommitted records are invisible to the consumer.
  EXPECT_FALSE(ringbuf->Consume(kernel_).ok());
  ASSERT_TRUE(kernel_.mem().WriteU64(rec.value(), 0x1234).ok());
  ASSERT_TRUE(ringbuf->Commit(rec.value()).ok());
  EXPECT_FALSE(ringbuf->Commit(rec.value()).ok()) << "double commit";
  auto consumed = ringbuf->Consume(kernel_);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(xbase::LoadLe64(consumed.value().data()), 0x1234u);

  auto discarded = ringbuf->Reserve(kernel_, 16);
  ASSERT_TRUE(discarded.ok());
  ASSERT_TRUE(ringbuf->Discard(discarded.value()).ok());
  EXPECT_FALSE(ringbuf->Consume(kernel_).ok());
}

TEST_F(MapsTest, RingbufFullDrops) {
  const int fd = Create(MapType::kRingBuf, 0, 0, 64);
  auto* ringbuf = dynamic_cast<RingBufMap*>(Find(fd));
  ASSERT_TRUE(ringbuf->Reserve(kernel_, 48).ok());
  EXPECT_EQ(ringbuf->Reserve(kernel_, 32).status().code(),
            xbase::Code::kResourceExhausted);
  EXPECT_EQ(ringbuf->dropped(), 1u);
}

// ---- task storage -----------------------------------------------------------------------

TEST_F(MapsTest, TaskStorageGetForTask) {
  ASSERT_TRUE(kernel_.BootstrapWorkload().ok());
  const int fd = Create(MapType::kTaskStorage, 4, 16, 8);
  auto* storage = dynamic_cast<TaskStorageMap*>(Find(fd));
  ASSERT_NE(storage, nullptr);
  const simkern::Task* task = kernel_.tasks().current(0);

  EXPECT_EQ(storage->GetForTask(kernel_, task->struct_addr, false)
                .status()
                .code(),
            xbase::Code::kNotFound);
  auto created = storage->GetForTask(kernel_, task->struct_addr, true);
  ASSERT_TRUE(created.ok());
  auto again = storage->GetForTask(kernel_, task->struct_addr, false);
  EXPECT_EQ(created.value(), again.value());
  EXPECT_EQ(storage->entry_count(), 1u);
}

TEST_F(MapsTest, TaskStorageNullOwnerFaults) {
  const int fd = Create(MapType::kTaskStorage, 4, 16, 8);
  auto* storage = dynamic_cast<TaskStorageMap*>(Find(fd));
  const auto result = storage->GetForTask(kernel_, 0, true);
  EXPECT_EQ(result.status().code(), xbase::Code::kKernelFault);
}

// ---- table ---------------------------------------------------------------------------------

TEST_F(MapsTest, TableLifecycle) {
  const int fd = Create(MapType::kArray, 4, 8, 1);
  EXPECT_TRUE(bpf_.maps().Find(fd).ok());
  EXPECT_EQ(bpf_.maps().Find(999).status().code(), xbase::Code::kNotFound);
  ASSERT_TRUE(bpf_.maps().Destroy(fd).ok());
  EXPECT_FALSE(bpf_.maps().Find(fd).ok());
}

}  // namespace
}  // namespace ebpf
