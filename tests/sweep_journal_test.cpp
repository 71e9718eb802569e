#include "vgr/sweep/journal.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "vgr/sweep/json.hpp"

namespace vgr::sweep {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string{"vgr_journal_"} + name + "_" + std::to_string(::getpid())))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

JournalRecord sample(const std::string& shard, const std::string& payload = "{\"x\":1}") {
  JournalRecord rec;
  rec.shard = shard;
  rec.status = "done";
  rec.fidelity = "full";
  rec.attempts = 1;
  rec.cause = "none";
  rec.payload = payload;
  return rec;
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

TEST(JournalRecordCodec, RoundTripsEveryField) {
  JournalRecord rec;
  rec.shard = "loss-0.050-plain#s4+4@0123456789abcdef";
  rec.status = "quarantined";
  rec.fidelity = "degraded";
  rec.attempts = 4;
  rec.cause = "events";
  rec.payload = "{\"bins\":[1,2.5,-3e-4],\"nested\":{\"k\":\"v\"}}";

  const std::string line = encode_record(rec);
  EXPECT_EQ(line.back(), '\n');
  const auto decoded = decode_record(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shard, rec.shard);
  EXPECT_EQ(decoded->status, rec.status);
  EXPECT_EQ(decoded->fidelity, rec.fidelity);
  EXPECT_EQ(decoded->attempts, rec.attempts);
  EXPECT_EQ(decoded->cause, rec.cause);
  EXPECT_EQ(decoded->payload, rec.payload);
}

TEST(JournalRecordCodec, RejectsBitFlipsAnywhereInTheLine) {
  const std::string line = encode_record(sample("shard-a"));
  for (std::size_t i = 0; i + 1 < line.size(); i += 7) {
    std::string corrupted = line;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x20);
    if (corrupted == line) continue;
    EXPECT_FALSE(decode_record(corrupted).has_value()) << "flip at " << i;
  }
}

TEST(JournalRecordCodec, RejectsTruncationAndFraming) {
  const std::string line = encode_record(sample("shard-a"));
  EXPECT_FALSE(decode_record(line.substr(0, line.size() / 2)).has_value());
  EXPECT_FALSE(decode_record("").has_value());
  EXPECT_FALSE(decode_record("{\"crc\":\"zzzzzzzz\",\"shard\":\"x\"}").has_value());
  EXPECT_FALSE(decode_record("not a journal line at all").has_value());
}

TEST(Journal, AppendsPersistAcrossReopen) {
  const std::string path = temp_path("reopen");
  std::filesystem::remove(path);
  {
    auto j = Journal::open(path);
    ASSERT_TRUE(j.has_value());
    j->append(sample("shard-a"));
    j->append(sample("shard-b", "null"));
  }
  auto j = Journal::open(path);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->truncated_bytes(), 0u);
  ASSERT_EQ(j->records().size(), 2u);
  EXPECT_EQ(j->records()[0].shard, "shard-a");
  EXPECT_EQ(j->records()[1].payload, "null");
  EXPECT_NE(j->find("shard-b"), nullptr);
  EXPECT_EQ(j->find("shard-c"), nullptr);
  std::filesystem::remove(path);
}

TEST(Journal, TornTailIsTruncatedOnReopen) {
  const std::string path = temp_path("torn");
  std::filesystem::remove(path);
  {
    auto j = Journal::open(path);
    ASSERT_TRUE(j.has_value());
    j->append(sample("shard-a"));
    j->append(sample("shard-b"));
  }
  const std::string intact = slurp(path);
  // Simulate a crash mid-append: half a record, no trailing newline.
  const std::string torn_line = encode_record(sample("shard-c"));
  {
    std::ofstream out{path, std::ios::binary | std::ios::app};
    out << torn_line.substr(0, torn_line.size() / 2);
  }
  auto j = Journal::open(path);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->truncated_bytes(), torn_line.size() / 2);
  ASSERT_EQ(j->records().size(), 2u);
  // The file itself was repaired, and the journal still appends cleanly.
  EXPECT_EQ(slurp(path), intact);
  j->append(sample("shard-c"));
  EXPECT_EQ(j->records().size(), 3u);
  std::filesystem::remove(path);
}

TEST(Journal, CorruptMiddleRecordCutsTheSuffix) {
  const std::string path = temp_path("midcorrupt");
  std::filesystem::remove(path);
  {
    auto j = Journal::open(path);
    ASSERT_TRUE(j.has_value());
    j->append(sample("shard-a"));
    j->append(sample("shard-b"));
    j->append(sample("shard-c"));
  }
  // Flip one payload byte of the second record. Order is a correctness
  // guarantee (append-only), so everything from the corruption on is cut.
  std::string content = slurp(path);
  const std::size_t second = content.find('\n') + 24;
  content[second] = static_cast<char>(content[second] ^ 0x01);
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << content;
  }
  auto j = Journal::open(path);
  ASSERT_TRUE(j.has_value());
  ASSERT_EQ(j->records().size(), 1u);
  EXPECT_EQ(j->records()[0].shard, "shard-a");
  EXPECT_GT(j->truncated_bytes(), 0u);
  std::filesystem::remove(path);
}

TEST(Journal, ScanIsReadOnly) {
  const std::string path = temp_path("scan");
  std::filesystem::remove(path);
  {
    auto j = Journal::open(path);
    ASSERT_TRUE(j.has_value());
    j->append(sample("shard-a"));
  }
  {
    std::ofstream out{path, std::ios::binary | std::ios::app};
    out << "torn";
  }
  const auto before = std::filesystem::file_size(path);
  std::size_t torn = 0;
  const auto records = Journal::scan(path, &torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(torn, 4u);
  EXPECT_EQ(std::filesystem::file_size(path), before);  // untouched
  EXPECT_TRUE(Journal::scan("/nonexistent/definitely-missing.journal").empty());
  std::filesystem::remove(path);
}

TEST(Journal, FailedAppendIsNotRecorded) {
  const std::string path = temp_path("efbig");
  std::filesystem::remove(path);
  auto j = Journal::open(path);
  ASSERT_TRUE(j.has_value());
  // Cap this process's file size below one record, with SIGXFSZ ignored so
  // the write fails with EFBIG instead of killing the process. Both are
  // restored before anything can print.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = 16;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  const bool capped_ok = ::setrlimit(RLIMIT_FSIZE, &capped) == 0;
  const bool appended = capped_ok && j->append(sample("shard-a"));
  const bool restored = ::setrlimit(RLIMIT_FSIZE, &saved) == 0;
  std::signal(SIGXFSZ, old_handler);
  ASSERT_TRUE(capped_ok);
  ASSERT_TRUE(restored);

  EXPECT_FALSE(appended);
  EXPECT_TRUE(j->records().empty());
  EXPECT_EQ(j->find("shard-a"), nullptr);
  // The torn line was cut off: the next record reads back on reopen.
  EXPECT_TRUE(j->append(sample("shard-b")));
  j->close();
  std::size_t torn = 0;
  const auto records = Journal::scan(path, &torn);  // what a resume would read
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].shard, "shard-b");
  EXPECT_EQ(torn, 0u);
  std::filesystem::remove(path);
}

TEST(Json, NumbersRoundTripExactly) {
  std::string out;
  json_append_double(out, 0.1);
  out += ",";
  json_append_double(out, 1.0 / 3.0);
  const auto parsed = json_parse("[" + out + "]");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->array.size(), 2u);
  EXPECT_EQ(parsed->array[0].as_double(), 0.1);
  EXPECT_EQ(parsed->array[1].as_double(), 1.0 / 3.0);
}

TEST(Json, ParsesObjectsInOrderAndRejectsJunk) {
  const auto v = json_parse("{\"b\":1,\"a\":{\"nested\":[true,false,null]},\"s\":\"x\\\"y\"}");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->object.size(), 3u);
  EXPECT_EQ(v->object[0].first, "b");  // insertion order preserved
  EXPECT_EQ(v->object[1].first, "a");
  EXPECT_EQ(v->text("s"), "x\"y");
  EXPECT_EQ(v->u64("b"), 1u);
  EXPECT_FALSE(json_parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json_parse("{broken").has_value());
  EXPECT_FALSE(json_parse("").has_value());
}

}  // namespace
}  // namespace vgr::sweep
