#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vgr::sweep {

/// One completed (or quarantined) sweep shard, one seed of a point, as
/// recorded in the journal. `payload` is the shard's serialized result — an
/// opaque JSON value the journal neither interprets nor reorders, so a
/// resumed sweep merges the exact bytes the original run produced.
struct JournalRecord {
  std::string shard;     ///< stable shard key (see shard_key in ab_sweep.hpp)
  std::string status;    ///< "done" or "quarantined"
  std::string fidelity;  ///< "full"; older journals may hold "degraded"
  std::uint64_t attempts{1};  ///< executions the supervisor spent on the shard
  std::string cause;     ///< last failure cause: "none", "events", "wall", "error"
  std::string payload;   ///< JSON value text; "null" for quarantined shards
};

/// Append-only, checksummed JSONL journal of completed sweep shards.
///
/// Line format (one record per line, written atomically then fsync'd):
///
///   {"crc":"xxxxxxxx","shard":"...","status":"done","fidelity":"full",
///    "attempts":1,"cause":"none","payload":{...}}
///
/// The 8-hex `crc` is the CRC-32 (IEEE, reflected) of everything after the
/// fixed 18-byte `{"crc":"xxxxxxxx",` prefix up to and including the final
/// `}`. A crash can only tear the *final* line (appends are sequential and
/// each is flushed + fsync'd before the next begins), so recovery on reopen
/// is truncation: the file is cut at the end of the last line whose checksum
/// verifies, never rejected. `payload` is always the last field, which lets
/// the decoder lift its raw text verbatim instead of re-serializing.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens `path` for appending, creating it if absent. Existing content is
  /// validated record by record; a torn or corrupt tail is truncated away
  /// (see truncated_bytes). Returns nullopt only when the file cannot be
  /// opened or truncated at all.
  static std::optional<Journal> open(const std::string& path);

  /// Parses `path` without modifying it (the `vgr_sweep status` view):
  /// valid-prefix records, plus the trailing byte count an open() would
  /// truncate via `torn_bytes` when non-null.
  static std::vector<JournalRecord> scan(const std::string& path,
                                         std::size_t* torn_bytes = nullptr);

  /// Appends one record and flushes it to disk (fflush + fsync) before
  /// returning, so a SIGKILL after append() can never lose the shard.
  /// Returns false, with `errno` set, records() unchanged and the file cut
  /// back to its previous end, when the write, the flush or the fsync fails.
  bool append(const JournalRecord& rec);

  [[nodiscard]] const std::vector<JournalRecord>& records() const { return records_; }
  [[nodiscard]] const JournalRecord* find(std::string_view shard) const;
  /// Bytes cut from the tail while recovering at open().
  [[nodiscard]] std::size_t truncated_bytes() const { return truncated_bytes_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool is_open() const { return file_ != nullptr; }
  void close();

 private:
  std::string path_;
  std::FILE* file_{nullptr};
  std::vector<JournalRecord> records_;
  std::size_t truncated_bytes_{0};
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) — the journal line checksum.
std::uint32_t crc32(std::string_view data);

/// Serializes `rec` into one journal line, including the crc field and the
/// trailing newline.
std::string encode_record(const JournalRecord& rec);

/// Decodes one journal line (without requiring the trailing newline);
/// nullopt on malformed framing or checksum mismatch.
std::optional<JournalRecord> decode_record(std::string_view line);

}  // namespace vgr::sweep
