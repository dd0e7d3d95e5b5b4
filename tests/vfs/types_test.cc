// The simulated kernel's layouts must match the paper's Tab. 6 member
// population exactly (#M and #Bl columns).
#include "src/vfs/types.h"

#include <gtest/gtest.h>

#include <cstring>

namespace lockdoc {
namespace {

struct TypeExpectation {
  const char* name;
  size_t members;   // Paper #M.
  size_t filtered;  // Paper #Bl (locks + atomics + blacklisted).
};

// gtest lists each case as "<name>  # GetParam() = <raw parameter bytes>",
// and those bytes start with the `name` pointer. A string literal's address
// moves with every other string linked into this binary and with the
// checkout path, so unrelated edits used to rename these cases. The names
// are copied to fixed offsets of a page-aligned buffer instead: the low
// twelve bits of each pointer (the bits address randomization keeps) no
// longer depend on the link, and the offsets keep the case names the suite
// has listed all along.
alignas(4096) char g_name_page[4096];

const char* PinnedName(const char* name, size_t offset) {
  std::strcpy(g_name_page + offset, name);
  return g_name_page + offset;
}

class Tab6LayoutTest : public ::testing::TestWithParam<TypeExpectation> {};

TEST_P(Tab6LayoutTest, MemberAndFilteredCountsMatchPaper) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  auto type = registry->FindType(GetParam().name);
  ASSERT_TRUE(type.has_value()) << GetParam().name;
  const TypeLayout& layout = registry->layout(*type);
  EXPECT_EQ(layout.member_count(), GetParam().members);
  size_t filtered = 0;
  for (const MemberDef& def : layout.members()) {
    if (def.is_lock || def.is_atomic || def.blacklisted) {
      ++filtered;
    }
  }
  EXPECT_EQ(filtered, GetParam().filtered);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable6, Tab6LayoutTest,
    ::testing::Values(TypeExpectation{PinnedName("backing_dev_info", 0xa50), 43, 2},
                      TypeExpectation{PinnedName("block_device", 0x250), 21, 2},
                      TypeExpectation{PinnedName("buffer_head", 0x1b2), 13, 0},
                      TypeExpectation{PinnedName("cdev", 0x3a1), 6, 0},
                      TypeExpectation{PinnedName("dentry", 0x25d), 21, 1},
                      TypeExpectation{PinnedName("inode", 0x72c), 65, 5},
                      TypeExpectation{PinnedName("journal_head", 0x73c), 15, 0},
                      TypeExpectation{PinnedName("journal_t", 0xc48), 58, 11},
                      TypeExpectation{PinnedName("pipe_inode_info", 0x264), 16, 1},
                      TypeExpectation{PinnedName("super_block", 0x274), 56, 3},
                      TypeExpectation{PinnedName("transaction_t", 0x9ea), 27, 1}),
    [](const ::testing::TestParamInfo<TypeExpectation>& info) {
      return std::string(info.param.name);
    });

TEST(VfsTypesTest, ElevenTypesRegistered) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  EXPECT_EQ(registry->type_count(), 11u);
}

TEST(VfsTypesTest, ElevenInodeSubclasses) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  EXPECT_EQ(registry->SubclassesOf(ids.inode).size(), 11u);
  EXPECT_EQ(ids.all_filesystems.size(), 11u);
  EXPECT_EQ(registry->QualifiedName(ids.inode, ids.fs_ext4), "inode:ext4");
  EXPECT_EQ(registry->QualifiedName(ids.inode, ids.fs_anon_inodefs), "inode:anon_inodefs");
}

TEST(VfsTypesTest, KeyLockMembersExist) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  struct LockSpec {
    TypeId type;
    const char* member;
    LockType lock_type;
  };
  for (const auto& [type, member, lock_type] :
       std::initializer_list<LockSpec>{{ids.inode, "i_lock", LockType::kSpinlock},
                                       {ids.inode, "i_rwsem", LockType::kRwSemaphore},
                                       {ids.dentry, "d_lock", LockType::kSpinlock},
                                       {ids.journal, "j_state_lock", LockType::kRwlock},
                                       {ids.journal, "j_list_lock", LockType::kSpinlock},
                                       {ids.journal, "j_checkpoint_mutex", LockType::kMutex},
                                       {ids.pipe, "mutex", LockType::kMutex},
                                       {ids.block_device, "bd_mutex", LockType::kMutex},
                                       {ids.bdi, "wb.list_lock", LockType::kSpinlock}}) {
    const TypeLayout& layout = registry->layout(type);
    auto index = layout.FindMember(member);
    ASSERT_TRUE(index.has_value()) << member;
    EXPECT_TRUE(layout.member(*index).is_lock) << member;
    EXPECT_EQ(layout.member(*index).lock_type, lock_type) << member;
  }
}

TEST(VfsTypesTest, UnionsAreUnrolled) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  const TypeLayout& inode = registry->layout(ids.inode);
  // The i_pipe/i_bdev/i_cdev/i_link union alternatives have distinct offsets.
  auto pipe = inode.FindMember("i_pipe");
  auto bdev = inode.FindMember("i_bdev");
  auto cdev = inode.FindMember("i_cdev");
  auto link = inode.FindMember("i_link");
  ASSERT_TRUE(pipe && bdev && cdev && link);
  EXPECT_NE(inode.member(*pipe).offset, inode.member(*bdev).offset);
  EXPECT_NE(inode.member(*bdev).offset, inode.member(*cdev).offset);
  EXPECT_NE(inode.member(*cdev).offset, inode.member(*link).offset);
}

TEST(VfsTypesTest, MLookupHelperChecks) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  EXPECT_EQ(M(*registry, ids.inode, "i_state"),
            *registry->layout(ids.inode).FindMember("i_state"));
}

}  // namespace
}  // namespace lockdoc
