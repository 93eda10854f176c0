/**
 * @file
 * Tests for the crash-safe filesystem primitives (util/fs.hh): atomic
 * write-then-rename visibility, temp-file hygiene (also with two
 * writers of one path), the injected torn write, optional reads and
 * directory creation.
 */

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault.hh"
#include "util/fs.hh"

using namespace jcache;

namespace
{

namespace fs = std::filesystem;

class FsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("jcache_fs_test_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override
    {
        fault::reset();
        fs::remove_all(dir_);
    }

    std::string path(const std::string& name) const
    {
        return (fs::path(dir_) / name).string();
    }

    /** Temporaries of any name left in the directory. */
    std::size_t tempsLeft() const
    {
        std::size_t count = 0;
        for (const auto& entry : fs::directory_iterator(dir_))
            if (entry.path().extension() == ".tmp")
                ++count;
        return count;
    }

    std::string dir_;
};

} // namespace

TEST_F(FsTest, AtomicWriteRoundTripsAndLeavesNoTemp)
{
    std::string target = path("doc.txt");
    util::atomicWriteFile(target, "hello\nworld\n");
    auto read = util::readFileIfExists(target);
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(*read, "hello\nworld\n");
    EXPECT_EQ(tempsLeft(), 0u);
    // The temporary is created private, then given the usual mode.
    EXPECT_EQ(fs::status(target).permissions(),
              fs::perms::owner_read | fs::perms::owner_write |
                  fs::perms::group_read | fs::perms::others_read);

    // Overwrite: the newest document wins, still atomically.
    util::atomicWriteFile(target, "v2");
    EXPECT_EQ(util::readFileIfExists(target).value(), "v2");
    EXPECT_EQ(tempsLeft(), 0u);
}

TEST_F(FsTest, TwoWritersOfOnePathBothSucceed)
{
    // Each write has a temporary of its own, so two writers of one
    // path never truncate or rename each other's file: every write
    // succeeds and the survivor is one whole document.
    std::string target = path("shared.bin");
    const std::string docs[2] = {std::string(8 << 20, 'a'),
                                 std::string(8 << 20, 'b')};
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> writers;
    for (const std::string& doc : docs) {
        writers.emplace_back([&] {
            for (int i = 0; i < 30; ++i) {
                try {
                    util::atomicWriteFile(target, doc);
                } catch (const util::FsError&) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& writer : writers)
        writer.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(tempsLeft(), 0u);
    std::string read = util::readFileIfExists(target).value();
    EXPECT_TRUE(read == docs[0] || read == docs[1]);
}

TEST_F(FsTest, AtomicWriteHandlesEmptyAndBinaryPayloads)
{
    std::string binary("\x00\x01\xff\x7f", 4);
    util::atomicWriteFile(path("bin"), binary);
    EXPECT_EQ(util::readFileIfExists(path("bin")).value(), binary);

    util::atomicWriteFile(path("empty"), "");
    auto read = util::readFileIfExists(path("empty"));
    ASSERT_TRUE(read.has_value());
    EXPECT_TRUE(read->empty());
}

TEST_F(FsTest, ReadFileIfExistsReportsAbsence)
{
    EXPECT_FALSE(util::readFileIfExists(path("never-written"))
                     .has_value());
}

TEST_F(FsTest, InjectedTornWriteTruncatesVisibleFile)
{
    std::string target = path("torn.txt");
    fault::configure("test.fs.torn=always");
    util::atomicWriteFile(target, "0123456789", "test.fs.torn");
    fault::reset();

    // The tear fires under the final name — half the document is
    // visible, so readers must validate, never trust length.
    auto read = util::readFileIfExists(target);
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(*read, "01234");
    EXPECT_EQ(tempsLeft(), 0u);

    // An unarmed site writes the full document.
    util::atomicWriteFile(target, "0123456789", "test.fs.torn");
    EXPECT_EQ(util::readFileIfExists(target).value(), "0123456789");
}

TEST_F(FsTest, WriteIntoMissingDirectoryThrowsTypedError)
{
    std::string target = path("no/such/dir/file");
    EXPECT_THROW(util::atomicWriteFile(target, "x"), util::FsError);
    // The failure is pre-rename: nothing appears under the name.
    EXPECT_FALSE(fs::exists(target));
}

TEST_F(FsTest, EnsureDirectoryCreatesParentsAndRejectsFiles)
{
    std::string nested = path("a/b/c");
    util::ensureDirectory(nested);
    EXPECT_TRUE(fs::is_directory(nested));
    // Idempotent on an existing directory.
    util::ensureDirectory(nested);

    std::string file = path("plain-file");
    std::ofstream(file) << "x";
    EXPECT_THROW(util::ensureDirectory(file), util::FsError);
}
