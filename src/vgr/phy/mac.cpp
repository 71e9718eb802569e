#include "vgr/phy/mac.hpp"

#include <algorithm>
#include <utility>

namespace vgr::phy {

Mac::Mac(sim::EventQueue& events, Medium& medium, RadioId radio, sim::CohortId cohort,
         MacConfig config, DccConfig dcc_config, sim::Rng rng)
    : events_{events},
      medium_{medium},
      radio_{radio},
      cohort_{cohort},
      config_{config},
      rng_{rng},
      dcc_{dcc_config},
      cw_{config.cw_min} {
  config_.cw_max = std::max(config_.cw_max, config_.cw_min);
  // CBR is sampled whenever the MAC is on — the DCC-off arms of the
  // congestion sweeps still report how loaded the channel was. The sampler
  // only reads the medium's busy-time accumulator; it cannot perturb any
  // transmission, so enabling it is observation, not behaviour.
  if (config_.enabled) schedule_cbr_sample();
}

void Mac::enqueue(Frame frame, MacAccessClass access_class, double range_override_m) {
  if (!config_.enabled) {
    // Passthrough: identical to the pre-MAC router-to-medium handoff.
    medium_.transmit(radio_, std::move(frame), range_override_m);
    return;
  }
  ++stats_.enqueued;
  // DCC admission: a beacon arriving while the pacing gate is closed is
  // shed immediately — by the time the gate opens its position vector would
  // be stale, and shedding beacons first is exactly how DCC trades
  // awareness freshness for data goodput under overload.
  if (access_class == MacAccessClass::kBeacon && dcc_.enabled() &&
      events_.now() < next_tx_allowed_) {
    ++stats_.dcc_gated_drops;
    return;
  }
  if (queue_.size() >= config_.queue_limit) {
    ++stats_.queue_overflow_drops;
    return;
  }
  queue_.push_back(Pending{std::move(frame), range_override_m});
  if (!serving_) {
    serving_ = true;
    sense();
  }
}

void Mac::schedule_sense(sim::TimePoint at) {
  events_.schedule_at(at, cohort_, [this] { sense(); });
}

void Mac::sense() {
  if (queue_.empty()) {
    serving_ = false;
    return;
  }
  const sim::TimePoint now = events_.now();
  if (dcc_.enabled() && now < next_tx_allowed_) {
    schedule_sense(next_tx_allowed_);
    return;
  }
  const sim::TimePoint busy = medium_.busy_until(radio_);
  if (busy <= now) {
    transmit_head();
    return;
  }
  // Channel busy. If this head already sat out a backoff, its draw landed
  // on another station's airtime: one failed contention.
  if (backed_off_) {
    ++attempts_;
    ++stats_.backoff_retries;
    if (attempts_ > retry_budget()) {
      drop_head();
      return;
    }
    // Exponential escalation only without DCC: a paced station keeps its
    // window at cw_min and lets the Toff gap do the load shedding.
    if (!dcc_.enabled()) cw_ = std::min(cw_ * 2 + 1, config_.cw_max);
  }
  backed_off_ = true;
  const auto slots = rng_.uniform_int(0, cw_);
  schedule_sense(busy + config_.aifs + config_.slot * static_cast<double>(slots));
}

void Mac::transmit_head() {
  Pending head = std::move(queue_.front());
  queue_.pop_front();
  reset_contention();
  ++stats_.transmitted;
  if (dcc_.enabled()) next_tx_allowed_ = events_.now() + dcc_.toff();
  // Frame-level fault decisions (drop/duplicate/extra delay) are drawn
  // inside this call — i.e. after queueing and contention, per the
  // documented fault-ordering contract in mac.hpp.
  medium_.transmit(radio_, std::move(head.frame), head.range_override_m);
  if (queue_.empty()) {
    serving_ = false;
    return;
  }
  // Our own airtime keeps the channel busy; the next head contends for the
  // idle instant after it like everyone else.
  schedule_sense(events_.now());
}

void Mac::drop_head() {
  queue_.pop_front();
  reset_contention();
  ++stats_.retry_exhausted_drops;
  if (queue_.empty()) {
    serving_ = false;
    return;
  }
  sense();
}

void Mac::reset_contention() {
  cw_ = config_.cw_min;
  attempts_ = 0;
  backed_off_ = false;
}

void Mac::schedule_cbr_sample() {
  events_.schedule_in(dcc_.config().sample_interval, cohort_, [this] {
    const sim::Duration busy = medium_.busy_time(radio_);
    const double cbr = (busy - busy_seen_) / dcc_.config().sample_interval;
    busy_seen_ = busy;
    dcc_.on_sample(cbr);
    ++stats_.cbr_samples;
    schedule_cbr_sample();
  });
}

}  // namespace vgr::phy
