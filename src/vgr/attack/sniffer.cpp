#include "vgr/attack/sniffer.hpp"

namespace vgr::attack {

Sniffer::Sniffer(sim::EventQueue& events, phy::Medium& medium, geo::Position position,
                 double attack_range_m)
    : events_{events}, medium_{medium}, static_mobility_{position} {
  attach(attack_range_m);
}

Sniffer::Sniffer(sim::EventQueue& events, phy::Medium& medium,
                 const gn::MobilityProvider& mobility, double attack_range_m)
    : events_{events}, medium_{medium}, external_mobility_{&mobility} {
  attach(attack_range_m);
}

void Sniffer::attach(double attack_range_m) {
  // The attacker's MAC is arbitrary — link-layer addresses are not
  // authenticated; a locally administered address keeps it distinct.
  own_mac_ = net::MacAddress{0x0200'4A77'ACCEULL};
  phy::Medium::NodeConfig node;
  node.mac = own_mac_;
  node.position = [this] { return position(); };
  node.tx_range_m = attack_range_m;
  // Elevated high-gain antenna: the attacker hears as far as it talks,
  // not just as far as a stock vehicle radio reaches (paper §III-A).
  node.rx_range_m = attack_range_m;
  node.promiscuous = true;  // sniff unicast forwards too
  radio_ = medium_.add_node(std::move(node),
                            [this](const phy::Frame& f, phy::RadioId) { capture(f); });
}

Sniffer::~Sniffer() { medium_.remove_node(radio_); }

void Sniffer::capture(const phy::Frame& frame) {
  if (frame.src == own_mac_) return;  // never reprocess own injections
  ++frames_captured_;
  // Track every station's advertised position from the plaintext PVs.
  const net::LongPositionVector& pv = frame.msg->packet().source_pv();
  auto& obs = observations_[pv.address];
  if (obs.heard_at <= events_.now()) {
    obs.pv = pv;
    obs.heard_at = events_.now();
  }
  on_capture(frame);
}

void Sniffer::on_capture(const phy::Frame&) {}

void Sniffer::inject(phy::Frame frame, double range_override_m) {
  frame.src = own_mac_;
  ++frames_injected_;
  medium_.transmit(radio_, std::move(frame), range_override_m);
}

bool Sniffer::inferred_out_of_coverage(net::GnAddress a, net::GnAddress b,
                                       double vehicle_range_m) const {
  const auto ia = observations_.find(a);
  const auto ib = observations_.find(b);
  if (ia == observations_.end() || ib == observations_.end()) return false;
  return geo::distance(ia->second.pv.position, ib->second.pv.position) > vehicle_range_m;
}

}  // namespace vgr::attack
