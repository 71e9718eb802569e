#include "vgr/sweep/ab_codec.hpp"

#include <cassert>
#include <type_traits>
#include <utility>

#include "vgr/sweep/json.hpp"

namespace vgr::sweep {
namespace {

using scenario::AbResult;
using scenario::RunCounters;

/// Every scalar of an AbResult with its journal key. encode_ab and decode_ab
/// both walk this list; the per-arm counters walk scenario::for_each_counter.
template <typename Result, typename Fn>
void for_each_scalar(Result& r, Fn&& fn) {
  fn("attack_rate", r.attack_rate);
  fn("baseline_reception", r.baseline_reception);
  fn("attacked_reception", r.attacked_reception);
  fn("rec_base_hits", r.reception_base_hits);
  fn("rec_base_trials", r.reception_base_trials);
  fn("rec_atk_hits", r.reception_atk_hits);
  fn("rec_atk_trials", r.reception_atk_trials);
  fn("runs", r.runs);
  fn("timed_out_runs", r.timed_out_runs);
  fn("timed_out_events", r.timed_out_events);
  fn("timed_out_wall", r.timed_out_wall);
}

/// Writes `"key":` as the next member of the object `out` is building.
void append_key(std::string& out, const char* key) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
}

template <typename T>
void append_number(std::string& out, const char* key, T v) {
  append_key(out, key);
  if constexpr (std::is_floating_point_v<T>) {
    json_append_double(out, v);
  } else {
    out += std::to_string(v);
  }
}

void append_bin_array(std::string& out, const char* key, const sim::BinnedRate& bins,
                      bool hits) {
  append_key(out, key);
  out += '[';
  for (std::size_t i = 0; i < bins.bin_count(); ++i) {
    if (i > 0) out += ',';
    json_append_double(out, hits ? bins.bin_hits(i) : bins.bin_trials(i));
  }
  out += ']';
}

void append_counters(std::string& out, const char* key, const RunCounters& counters) {
  append_key(out, key);
  out += '{';
  scenario::for_each_counter(
      [&out](const char* name, scenario::Merge, auto v) { append_number(out, name, v); },
      counters);
  out += '}';
}

/// Reads member `key` of `obj` into `v`; false when it is missing or not a
/// number, so a payload that lacks any key encode_ab writes is rejected.
template <typename T>
bool read_number(const JsonValue& obj, const char* key, T& v) {
  const JsonValue* n = obj.find(key);
  if (n == nullptr || n->kind != JsonValue::Kind::kNumber) return false;
  if constexpr (std::is_floating_point_v<T>) {
    v = n->as_double();
  } else {
    v = n->as_u64();
  }
  return true;
}

bool read_bins(const JsonValue& root, const char* key, sim::BinnedRate& bins, bool hits) {
  const JsonValue* arr = root.find(key);
  if (arr == nullptr || arr->kind != JsonValue::Kind::kArray ||
      arr->array.size() != bins.bin_count()) {
    return false;
  }
  for (std::size_t i = 0; i < arr->array.size(); ++i) {
    const double v = arr->array[i].as_double();
    if (hits) {
      bins.set_bin(i, v, bins.bin_trials(i));
    } else {
      bins.set_bin(i, bins.bin_hits(i), v);
    }
  }
  return true;
}

bool read_counters(const JsonValue& root, const char* key, RunCounters& counters) {
  const JsonValue* obj = root.find(key);
  if (obj == nullptr || obj->kind != JsonValue::Kind::kObject) return false;
  bool ok = true;
  scenario::for_each_counter(
      [&](const char* name, scenario::Merge, auto& v) { ok = ok && read_number(*obj, name, v); },
      counters);
  return ok;
}

}  // namespace

std::string encode_ab(const AbResult& r) {
  assert(r.baseline.bin_count() == r.attacked.bin_count());
  std::string out = "{";
  append_number(out, "bin_ns", r.baseline.bin_width().count());
  append_number(out, "bins", r.baseline.bin_count());
  append_bin_array(out, "base_hits", r.baseline, true);
  append_bin_array(out, "base_trials", r.baseline, false);
  append_bin_array(out, "atk_hits", r.attacked, true);
  append_bin_array(out, "atk_trials", r.attacked, false);
  for_each_scalar(r, [&out](const char* key, auto v) { append_number(out, key, v); });
  append_counters(out, "baseline_totals", r.baseline_totals);
  append_counters(out, "attacked_totals", r.attacked_totals);
  out += '}';
  return out;
}

std::optional<AbResult> decode_ab(std::string_view payload) {
  const std::optional<JsonValue> parsed = json_parse(payload);
  if (!parsed.has_value() || parsed->kind != JsonValue::Kind::kObject) return std::nullopt;
  const JsonValue& root = *parsed;

  std::uint64_t bin_ns = 0;
  std::uint64_t bins = 0;
  if (!read_number(root, "bin_ns", bin_ns) || !read_number(root, "bins", bins)) {
    return std::nullopt;
  }
  const auto width = static_cast<std::int64_t>(bin_ns);
  if (width <= 0 || bins == 0) return std::nullopt;
  const sim::Duration bin_width = sim::Duration::nanos(width);
  const sim::Duration horizon = sim::Duration::nanos(width * static_cast<std::int64_t>(bins));

  AbResult r{sim::BinnedRate{bin_width, horizon}, sim::BinnedRate{bin_width, horizon}};
  bool ok = read_bins(root, "base_hits", r.baseline, true) &&
            read_bins(root, "base_trials", r.baseline, false) &&
            read_bins(root, "atk_hits", r.attacked, true) &&
            read_bins(root, "atk_trials", r.attacked, false) &&
            read_counters(root, "baseline_totals", r.baseline_totals) &&
            read_counters(root, "attacked_totals", r.attacked_totals);
  for_each_scalar(r, [&](const char* key, auto& v) { ok = ok && read_number(root, key, v); });
  if (!ok) return std::nullopt;
  return r;
}

std::optional<AbResult> merge_ab_payloads(const std::vector<std::string>& payloads) {
  std::optional<AbResult> merged;
  for (const std::string& payload : payloads) {
    std::optional<AbResult> shard = decode_ab(payload);
    if (!shard.has_value()) return std::nullopt;
    if (!merged.has_value()) {
      merged = std::move(shard);
      continue;
    }
    if (shard->baseline.bin_count() != merged->baseline.bin_count() ||
        shard->baseline.bin_width() != merged->baseline.bin_width()) {
      return std::nullopt;
    }
    merged->merge(*shard);
  }
  return merged;
}

}  // namespace vgr::sweep
