#include "vgr/sweep/journal.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace vgr::sweep {
namespace {

constexpr std::size_t kCrcPrefixLen = 18;  // {"crc":"xxxxxxxx",

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    table[n] = c;
  }
  return table;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Cursor over one journal line's fixed field layout (the encoder always
/// writes fields in the same order, so the decoder can demand it — any
/// deviation means corruption, and corruption means truncation upstream).
struct Cursor {
  std::string_view rest;
  bool ok{true};

  bool expect(std::string_view lit) {
    if (!ok || !rest.starts_with(lit)) {
      ok = false;
      return false;
    }
    rest.remove_prefix(lit.size());
    return true;
  }

  /// Reads a quoted string written by encode_record (keys and enum-ish
  /// fields contain no escapes by construction).
  std::string quoted() {
    if (!expect("\"")) return {};
    const std::size_t end = rest.find('"');
    if (end == std::string_view::npos) {
      ok = false;
      return {};
    }
    std::string out{rest.substr(0, end)};
    rest.remove_prefix(end + 1);
    return out;
  }

  std::uint64_t integer() {
    std::uint64_t v = 0;
    std::size_t digits = 0;
    while (digits < rest.size() && rest[digits] >= '0' && rest[digits] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(rest[digits] - '0');
      ++digits;
    }
    if (digits == 0) ok = false;
    rest.remove_prefix(digits);
    return v;
  }
};

/// Validates `content` line by line; fills `records` with the valid prefix
/// and returns the byte offset just past the last valid line.
std::size_t valid_prefix(std::string_view content, std::vector<JournalRecord>& records) {
  std::size_t offset = 0;
  while (offset < content.size()) {
    const std::size_t nl = content.find('\n', offset);
    if (nl == std::string_view::npos) break;  // torn final line (no newline)
    auto rec = decode_record(content.substr(offset, nl - offset));
    if (!rec.has_value()) break;  // checksum or framing failure
    records.push_back(std::move(*rec));
    offset = nl + 1;
  }
  return offset;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFU;
  for (const char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (c >> 8U);
  }
  return c ^ 0xFFFFFFFFU;
}

std::string encode_record(const JournalRecord& rec) {
  std::string body;
  body.reserve(rec.payload.size() + 128);
  body += "\"shard\":\"";
  body += rec.shard;
  body += "\",\"status\":\"";
  body += rec.status;
  body += "\",\"fidelity\":\"";
  body += rec.fidelity;
  body += "\",\"attempts\":";
  body += std::to_string(rec.attempts);
  body += ",\"cause\":\"";
  body += rec.cause;
  body += "\",\"payload\":";
  body += rec.payload.empty() ? "null" : rec.payload;
  body += "}";

  char crc_hex[9];
  std::snprintf(crc_hex, sizeof crc_hex, "%08x", crc32(body));
  std::string line = "{\"crc\":\"";
  line += crc_hex;
  line += "\",";
  line += body;
  line += "\n";
  return line;
}

std::optional<JournalRecord> decode_record(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  if (line.size() <= kCrcPrefixLen || !line.starts_with("{\"crc\":\"")) return std::nullopt;
  std::uint32_t stored = 0;
  for (std::size_t i = 8; i < 16; ++i) {
    const char c = line[i];
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    stored = (stored << 4U) | digit;
  }
  if (line.substr(16, 2) != "\",") return std::nullopt;
  const std::string_view body = line.substr(kCrcPrefixLen);
  if (crc32(body) != stored) return std::nullopt;

  Cursor cur{body};
  JournalRecord rec;
  cur.expect("\"shard\":");
  rec.shard = cur.quoted();
  cur.expect(",\"status\":");
  rec.status = cur.quoted();
  cur.expect(",\"fidelity\":");
  rec.fidelity = cur.quoted();
  cur.expect(",\"attempts\":");
  rec.attempts = cur.integer();
  cur.expect(",\"cause\":");
  rec.cause = cur.quoted();
  cur.expect(",\"payload\":");
  if (!cur.ok || cur.rest.empty() || cur.rest.back() != '}') return std::nullopt;
  rec.payload = std::string{cur.rest.substr(0, cur.rest.size() - 1)};
  return rec;
}

Journal::~Journal() { close(); }

Journal::Journal(Journal&& other) noexcept
    : path_{std::move(other.path_)},
      file_{other.file_},
      records_{std::move(other.records_)},
      truncated_bytes_{other.truncated_bytes_} {
  other.file_ = nullptr;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    file_ = other.file_;
    records_ = std::move(other.records_);
    truncated_bytes_ = other.truncated_bytes_;
    other.file_ = nullptr;
  }
  return *this;
}

void Journal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::optional<Journal> Journal::open(const std::string& path) {
  Journal j;
  j.path_ = path;
  const std::string content = read_file(path);
  const std::size_t keep = valid_prefix(content, j.records_);
  if (keep < content.size()) {
    // Torn or corrupt tail: recover by truncation, never by failure.
    j.truncated_bytes_ = content.size() - keep;
    std::error_code ec;
    std::filesystem::resize_file(path, keep, ec);
    if (ec) return std::nullopt;
  }
  j.file_ = std::fopen(path.c_str(), "ab");
  if (j.file_ == nullptr) return std::nullopt;
  return j;
}

std::vector<JournalRecord> Journal::scan(const std::string& path, std::size_t* torn_bytes) {
  std::vector<JournalRecord> records;
  const std::string content = read_file(path);
  const std::size_t keep = valid_prefix(content, records);
  if (torn_bytes != nullptr) *torn_bytes = content.size() - keep;
  return records;
}

bool Journal::append(const JournalRecord& rec) {
  assert(file_ != nullptr);
  assert(rec.shard.find('"') == std::string::npos &&
         rec.shard.find('\\') == std::string::npos &&
         rec.shard.find('\n') == std::string::npos && "shard keys must be plain text");
  const std::string line = encode_record(rec);
  const int fd = fileno(file_);
  struct stat before{};
  if (fstat(fd, &before) != 0) return false;
  // Durability barrier: the record must be on disk before the supervisor
  // moves on — a SIGKILL between shards must never lose a finished one. A
  // record that did not reach the disk is not journaled.
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0 || fsync(fd) != 0) {
    // Cut off what did reach the file, so the next record does not join a
    // torn line and vanish with it when the journal is reopened.
    const int err = errno;
    std::clearerr(file_);
    [[maybe_unused]] const int cut = ftruncate(fd, before.st_size);
    errno = err;
    return false;
  }
  records_.push_back(rec);
  return true;
}

const JournalRecord* Journal::find(std::string_view shard) const {
  for (const JournalRecord& rec : records_) {
    if (rec.shard == shard) return &rec;
  }
  return nullptr;
}

}  // namespace vgr::sweep
