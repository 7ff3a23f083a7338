#include "net/rotor.hpp"

#include <stdexcept>

namespace xscale::net {

RotorSchedule::RotorSchedule(sim::Engine& eng, Fabric& fabric, FlowSim* fs)
    : eng_(eng), fabric_(fabric), fs_(fs) {
  const topo::Topology& t = fabric_.topology();
  if (!t.is_rotor())
    throw std::invalid_argument("RotorSchedule: fabric is not a rotor");
  n_matchings_ = t.rotor_matchings();
  slot_s_ = t.rotor_slot_s();
  active_capacity_ = t.rotor_active_capacity();
  matching_links_.reserve(static_cast<std::size_t>(n_matchings_));
  for (int m = 0; m < n_matchings_; ++m)
    matching_links_.push_back(t.rotor_matching_links(m));
  batch_.reserve(2 * matching_links_[0].size());
  changed_links_.reserve(2 * matching_links_[0].size());
}

void RotorSchedule::start() {
  if (has_event_ || n_matchings_ < 2) return;
  event_ = eng_.schedule_in(slot_s_, [this] { advance(); });
  has_event_ = true;
}

void RotorSchedule::stop() {
  if (!has_event_) return;
  eng_.cancel(event_);
  has_event_ = false;
}

void RotorSchedule::advance() {
  has_event_ = false;
  const int prev = slot_;
  slot_ = (slot_ + 1) % n_matchings_;
  ++transitions_;

  batch_.clear();
  changed_links_.clear();
  for (int l : matching_links_[static_cast<std::size_t>(prev)]) {
    batch_.emplace_back(l, 0.0);
    changed_links_.push_back(l);
  }
  for (int l : matching_links_[static_cast<std::size_t>(slot_)]) {
    batch_.emplace_back(l, active_capacity_);
    changed_links_.push_back(l);
  }
  // One batched override == one epoch bump for the whole slot; the epoch
  // moves BEFORE the simulator is woken, so its frozen-prefix metadata and
  // single-bottleneck summary see the staleness immediately.
  fabric_.set_link_capacities(batch_);
  if (fs_) fs_->notify_capacity_change(changed_links_);

  // Keep rotating only while something can still make progress: flows remain
  // active (possibly stalled, waiting for their matching to come back) or
  // other events are queued. Otherwise let the engine drain.
  const bool idle =
      (fs_ == nullptr || fs_->active_flows() == 0) && eng_.pending_events() == 0;
  if (idle) return;
  event_ = eng_.schedule_in(slot_s_, [this] { advance(); });
  has_event_ = true;
}

}  // namespace xscale::net
