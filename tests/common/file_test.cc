#include "common/file.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace hsis {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(FileTest, WriteReadRoundTrip) {
  std::string path = TempPath("hsis_file_test.txt");
  ASSERT_TRUE(WriteFile(path, "line1\nline2\n").ok());
  Result<std::string> back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "line1\nline2\n");
  std::remove(path.c_str());
}

TEST(FileTest, OverwriteTruncates) {
  std::string path = TempPath("hsis_file_test2.txt");
  ASSERT_TRUE(WriteFile(path, "a much longer original content").ok());
  ASSERT_TRUE(WriteFile(path, "short").ok());
  EXPECT_EQ(*ReadFile(path), "short");
  std::remove(path.c_str());
}

TEST(FileTest, BinaryContentPreserved) {
  std::string path = TempPath("hsis_file_test3.bin");
  std::string content("\x00\x01\xff\x00zzz", 7);
  ASSERT_TRUE(WriteFile(path, content).ok());
  EXPECT_EQ(*ReadFile(path), content);
  std::remove(path.c_str());
}

TEST(FileTest, MissingFileFails) {
  EXPECT_FALSE(ReadFile("/nonexistent/dir/file.txt").ok());
  EXPECT_FALSE(WriteFile("/nonexistent/dir/file.txt", "x").ok());
}

TEST(FileTest, FileExistsReflectsTheFilesystem) {
  std::string path = TempPath("hsis_file_exists.txt");
  std::remove(path.c_str());
  EXPECT_FALSE(FileExists(path));
  ASSERT_TRUE(WriteFile(path, "x").ok());
  EXPECT_TRUE(FileExists(path));
  std::remove(path.c_str());
  EXPECT_FALSE(FileExists(path));
}

TEST(FileTest, RenameFileMovesContent) {
  std::string from = TempPath("hsis_rename_from.txt");
  std::string to = TempPath("hsis_rename_to.txt");
  std::remove(to.c_str());
  ASSERT_TRUE(WriteFile(from, "payload").ok());
  ASSERT_TRUE(RenameFile(from, to).ok());
  EXPECT_FALSE(FileExists(from));
  EXPECT_EQ(*ReadFile(to), "payload");
  std::remove(to.c_str());
}

TEST(FileTest, WriteLeavesOnlyTheFileBehind) {
  const std::string dir = TempPath("hsis_file_atomic");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(CreateDirectories(dir).ok());
  ASSERT_TRUE(WriteFile(dir + "/f.txt", "first").ok());
  ASSERT_TRUE(WriteFile(dir + "/f.txt", "second").ok());
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"f.txt"});
  EXPECT_EQ(*ReadFile(dir + "/f.txt"), "second");
  std::filesystem::remove_all(dir);
}

TEST(FileTest, ConcurrentWritersNeverTearAReader) {
  // Two writers replace the file with different whole contents; every
  // read sees one of them whole, never a mix or a truncated file.
  const std::string path = TempPath("hsis_file_race.bin");
  const std::string a(1 << 16, 'a');
  const std::string b(1 << 16, 'b');
  ASSERT_TRUE(WriteFile(path, a).ok());
  std::atomic<bool> stop{false};
  auto writer = [&](const std::string& content) {
    while (!stop.load()) EXPECT_TRUE(WriteFile(path, content).ok());
  };
  std::thread wa(writer, std::cref(a));
  std::thread wb(writer, std::cref(b));
  for (int i = 0; i < 200; ++i) {
    Result<std::string> read = ReadFile(path);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_TRUE(*read == a || *read == b) << "read " << i << " is torn";
  }
  stop.store(true);
  wa.join();
  wb.join();
  std::remove(path.c_str());
}

TEST(FileTest, WriteThroughASymlinkKeepsTheLink) {
  // A path that is not a regular file is written in place, so a rename
  // never replaces a link (or a device such as /dev/stdout).
  const std::string target = TempPath("hsis_file_link_target.txt");
  const std::string link = TempPath("hsis_file_link");
  std::remove(link.c_str());
  ASSERT_TRUE(WriteFile(target, "old").ok());
  std::filesystem::create_symlink(target, link);
  ASSERT_TRUE(WriteFile(link, "new").ok());
  EXPECT_TRUE(std::filesystem::is_symlink(link));
  EXPECT_EQ(*ReadFile(target), "new");
  std::remove(link.c_str());
  std::remove(target.c_str());
}

TEST(FileTest, RenameMissingSourceIsNotFound) {
  Status status =
      RenameFile(TempPath("hsis_rename_missing.txt"), TempPath("x.txt"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace hsis
