#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "vgr/scenario/ab_runner.hpp"

namespace vgr::sweep {

/// Serializes a merged A/B result into one JSON object — the sweep journal
/// payload. Every accumulator is carried raw (bin hits/trials, the packet-
/// weighted reception sums, every per-arm counter under its
/// scenario::for_each_counter key) and doubles are printed with %.17g, so
/// decode(encode(r)) == r.
std::string encode_ab(const scenario::AbResult& result);

/// Inverse of encode_ab; nullopt on malformed or incomplete payloads, i.e.
/// any payload that lacks a key encode_ab writes (a journal from a build
/// with fewer counters included).
std::optional<scenario::AbResult> decode_ab(std::string_view payload);

/// Reassembles one sweep point from its one-seed shard payloads, in seed
/// order, through AbResult::merge — the merge the A/B runner uses per run —
/// so they give exactly the result of one call over the point's window.
/// Shards that failed to decode or were quarantined must be dropped by the
/// caller first; an empty list, an undecodable payload or mismatched bin
/// geometry yields nullopt.
std::optional<scenario::AbResult> merge_ab_payloads(
    const std::vector<std::string>& payloads);

}  // namespace vgr::sweep
