#include "vgr/phy/dcc.hpp"

#include <algorithm>

namespace vgr::phy {

Dcc::Dcc(DccConfig config) : config_{config} {
  config_.window_samples = std::clamp<std::size_t>(config_.window_samples, 1, window_.size());
}

Dcc::State Dcc::state_for(double avg) const {
  if (avg < config_.thresholds[0]) return State::kRelaxed;
  if (avg < config_.thresholds[1]) return State::kActive1;
  if (avg < config_.thresholds[2]) return State::kActive2;
  if (avg < config_.thresholds[3]) return State::kActive3;
  return State::kRestrictive;
}

void Dcc::on_sample(double cbr) {
  // The measured busy time can slightly exceed the sampling interval when a
  // frame's airtime is accounted at transmit time but extends past the
  // sample edge; clamping keeps the ladder's input a true ratio.
  const double clamped = std::clamp(cbr, 0.0, 1.0);
  ++samples_;
  peak_ = std::max(peak_, clamped);
  window_[next_] = clamped;
  next_ = (next_ + 1) % config_.window_samples;
  filled_ = std::min(filled_ + 1, config_.window_samples);
  double sum = 0.0;
  for (std::size_t i = 0; i < filled_; ++i) sum += window_[i];
  avg_ = sum / static_cast<double>(filled_);
  const State next_state = state_for(avg_);
  if (next_state != state_) {
    state_ = next_state;
    ++state_changes_;
  }
}

const char* name(Dcc::State state) {
  switch (state) {
    case Dcc::State::kRelaxed: return "relaxed";
    case Dcc::State::kActive1: return "active1";
    case Dcc::State::kActive2: return "active2";
    case Dcc::State::kActive3: return "active3";
    case Dcc::State::kRestrictive: return "restrictive";
  }
  return "?";
}

}  // namespace vgr::phy
