#include "io/file_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

namespace dex {
namespace {

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/dex_file_io_test_" + std::to_string(::getpid());
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { (void)RemoveDirRecursive(dir_); }
  std::string dir_;
};

TEST_F(FileIoTest, WriteThenReadRoundtrip) {
  const std::string path = dir_ + "/sub/file.bin";
  const std::string payload = "hello\0world", expect = payload;
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, expect);
}

TEST_F(FileIoTest, WriteCreatesParentDirectories) {
  const std::string path = dir_ + "/a/b/c/file.txt";
  ASSERT_TRUE(WriteStringToFile(path, "x").ok());
  EXPECT_TRUE(FileExists(path));
}

TEST_F(FileIoTest, ReadMissingFileFails) {
  std::string out;
  EXPECT_TRUE(ReadFileToString(dir_ + "/nope", &out).IsIOError());
}

TEST_F(FileIoTest, ReadRange) {
  const std::string path = dir_ + "/range.bin";
  ASSERT_TRUE(WriteStringToFile(path, "0123456789").ok());
  std::string out;
  ASSERT_TRUE(ReadFileRange(path, 3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
}

TEST_F(FileIoTest, ReadRangePastEndFails) {
  const std::string path = dir_ + "/short.bin";
  ASSERT_TRUE(WriteStringToFile(path, "abc").ok());
  std::string out;
  EXPECT_FALSE(ReadFileRange(path, 2, 10, &out).ok());
}

TEST_F(FileIoTest, FileSizeAndMtime) {
  const std::string path = dir_ + "/sized.bin";
  ASSERT_TRUE(WriteStringToFile(path, std::string(1234, 'x')).ok());
  ASSERT_TRUE(FileSize(path).ok());
  EXPECT_EQ(*FileSize(path), 1234u);
  ASSERT_TRUE(FileMtimeMillis(path).ok());
  EXPECT_GT(*FileMtimeMillis(path), 0);
  EXPECT_FALSE(FileSize(dir_ + "/missing").ok());
}

TEST_F(FileIoTest, ListFilesFiltersAndSorts) {
  ASSERT_TRUE(WriteStringToFile(dir_ + "/b/2.mseed", "x").ok());
  ASSERT_TRUE(WriteStringToFile(dir_ + "/a/1.mseed", "x").ok());
  ASSERT_TRUE(WriteStringToFile(dir_ + "/a/ignore.txt", "x").ok());
  auto files = ListFiles(dir_, ".mseed");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  EXPECT_EQ((*files)[0], dir_ + "/a/1.mseed");
  EXPECT_EQ((*files)[1], dir_ + "/b/2.mseed");
}

TEST_F(FileIoTest, ListFilesEmptyExtensionListsAll) {
  ASSERT_TRUE(WriteStringToFile(dir_ + "/x.bin", "x").ok());
  ASSERT_TRUE(WriteStringToFile(dir_ + "/y.txt", "y").ok());
  auto files = ListFiles(dir_, "");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 2u);
}

TEST_F(FileIoTest, ListFilesMissingDirFails) {
  EXPECT_TRUE(ListFiles(dir_ + "/ghost", ".mseed").status().IsNotFound());
}

TEST_F(FileIoTest, OverwriteTruncates) {
  const std::string path = dir_ + "/trunc.bin";
  ASSERT_TRUE(WriteStringToFile(path, "long content here").ok());
  ASSERT_TRUE(WriteStringToFile(path, "hi").ok());
  std::string out;
  ASSERT_TRUE(ReadFileToString(path, &out).ok());
  EXPECT_EQ(out, "hi");
}

TEST_F(FileIoTest, EmptyFileRoundtrip) {
  const std::string path = dir_ + "/empty.bin";
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  std::string out = "sentinel";
  ASSERT_TRUE(ReadFileToString(path, &out).ok());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace dex
