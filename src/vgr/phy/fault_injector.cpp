#include "vgr/phy/fault_injector.hpp"

namespace vgr::phy {

FaultInjector::FrameDecision FaultInjector::on_frame() {
  FrameDecision d;
  if (!enabled_) return d;

  // Gilbert–Elliott: advance the chain first (the state transition is part
  // of the channel's evolution whether or not this frame survives), then
  // sample the state's loss probability.
  bool burst_loss = false;
  if (config_.ge_p_good_to_bad > 0.0) {
    const double p_flip = ge_bad_ ? config_.ge_p_bad_to_good : config_.ge_p_good_to_bad;
    if (rng_.bernoulli(p_flip)) ge_bad_ = !ge_bad_;
    const double loss = ge_bad_ ? config_.ge_loss_bad : config_.ge_loss_good;
    if (loss > 0.0 && rng_.bernoulli(loss)) {
      burst_loss = ge_bad_;
      d.drop = true;
    }
  }
  if (!d.drop && config_.drop_probability > 0.0 && rng_.bernoulli(config_.drop_probability)) {
    d.drop = true;
  }
  if (d.drop) {
    ++stats_.frames_dropped;
    if (burst_loss) ++stats_.frames_dropped_burst;
    return d;
  }

  if (config_.duplicate_probability > 0.0 && rng_.bernoulli(config_.duplicate_probability)) {
    d.duplicate = true;
    ++stats_.frames_duplicated;
  }
  if (config_.max_extra_delay_s > 0.0) {
    const double extra = rng_.uniform(0.0, config_.max_extra_delay_s);
    if (extra > 0.0) {
      d.extra_delay = sim::Duration::seconds(extra);
      ++stats_.frames_delayed;
    }
  }
  return d;
}

bool FaultInjector::drop_delivery() {
  if (config_.link_loss_probability <= 0.0) return false;
  if (!rng_.bernoulli(config_.link_loss_probability)) return false;
  ++stats_.deliveries_dropped;
  return true;
}

bool FaultInjector::corrupt_delivery() {
  if (config_.corrupt_probability <= 0.0) return false;
  return rng_.bernoulli(config_.corrupt_probability);
}

void FaultInjector::corrupt_bytes(net::Bytes& wire) {
  ++stats_.deliveries_corrupted;
  if (wire.empty()) return;
  const std::int64_t flips = rng_.uniform_int(1, 4);
  for (std::int64_t i = 0; i < flips; ++i) {
    const auto bit = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(wire.size()) * 8 - 1));
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

}  // namespace vgr::phy
