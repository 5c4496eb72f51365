#include "core/schedule.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <tuple>

#include "support/assert.hpp"

namespace ais {

Schedule::Schedule(const DepGraph* g, NodeSet active, int total_units)
    : graph_(g),
      active_(std::move(active)),
      units_(static_cast<std::size_t>(total_units)),
      start_(g->num_nodes(), Time{-1}),
      unit_(g->num_nodes(), -1) {
  AIS_CHECK(total_units >= 1, "schedule needs at least one unit");
  AIS_CHECK(active_.domain_size() == g->num_nodes(),
            "active set domain mismatch");
}

void Schedule::place(NodeId id, Time start, int unit) {
  AIS_CHECK(active_.contains(id), "placing a node outside the active set");
  AIS_CHECK(!placed(id), "node already placed");
  AIS_CHECK(start >= 0, "start time must be nonnegative");
  AIS_CHECK(unit >= 0 && unit < total_units(), "unit index out of range");
  const Time end = start + graph_->node(id).exec_time;

  auto& lane = units_[static_cast<std::size_t>(unit)];
  const auto pos = std::lower_bound(
      lane.begin(), lane.end(), std::make_pair(start, NodeId{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  // Exclusivity: the previous occupant must end by `start`, the next must
  // begin at or after `end`.
  if (pos != lane.begin()) {
    const auto& prev = *(pos - 1);
    AIS_CHECK(prev.first + graph_->node(prev.second).exec_time <= start,
              "unit already busy at requested start");
  }
  if (pos != lane.end()) {
    AIS_CHECK(pos->first >= end, "unit busy before instruction would finish");
  }
  lane.insert(pos, {start, id});
  start_[id] = start;
  unit_[id] = unit;
  makespan_ = std::max(makespan_, end);
  idle_cache_valid_ = false;
}

bool Schedule::placed(NodeId id) const {
  AIS_CHECK(id < start_.size(), "node id out of range");
  return start_[id] >= 0;
}

Time Schedule::start(NodeId id) const {
  AIS_CHECK(placed(id), "node not placed");
  return start_[id];
}

Time Schedule::completion(NodeId id) const {
  return start(id) + graph_->node(id).exec_time;
}

int Schedule::unit_of(NodeId id) const {
  AIS_CHECK(placed(id), "node not placed");
  return unit_[id];
}

bool Schedule::complete() const {
  bool all = true;
  active_.bits().for_each([&](std::size_t i) {
    if (start_[i] < 0) all = false;
  });
  return all;
}

NodeId Schedule::node_at(int unit, Time time) const {
  AIS_CHECK(unit >= 0 && unit < total_units(), "unit index out of range");
  const auto& lane = units_[static_cast<std::size_t>(unit)];
  const auto pos = std::upper_bound(
      lane.begin(), lane.end(), std::make_pair(time, kInvalidNode),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (pos == lane.begin()) return kInvalidNode;
  const auto& [start, id] = *(pos - 1);
  return (start + graph_->node(id).exec_time > time) ? id : kInvalidNode;
}

const std::vector<IdleSlot>& Schedule::idle_slots() const {
  if (!idle_cache_valid_) {
    // Time-major sweep with one cursor per lane, emitting (time, unit)
    // order directly: a lane's cursor skips the occupants that completed by
    // t, and the unit is idle at t unless the occupant under the cursor has
    // started.
    idle_cache_.clear();
    const std::span<const std::int32_t> exec = graph_->exec_times();
    std::vector<std::size_t> cursor(units_.size(), 0);
    for (Time t = 0; t < makespan_; ++t) {
      for (std::size_t u = 0; u < units_.size(); ++u) {
        const auto& lane = units_[u];
        std::size_t& i = cursor[u];
        while (i < lane.size() && lane[i].first + exec[lane[i].second] <= t) {
          ++i;
        }
        if (i == lane.size() || lane[i].first > t) {
          idle_cache_.push_back(IdleSlot{static_cast<int>(u), t});
        }
      }
    }
    idle_cache_valid_ = true;
  }
  return idle_cache_;
}

std::size_t Schedule::idle_slot_index(IdleSlot slot) const {
  const auto& slots = idle_slots();
  // The list is sorted by (time, unit) — IdleSlot's default ordering is
  // (unit, time), so spell the comparator out.
  const auto pos = std::lower_bound(
      slots.begin(), slots.end(), slot,
      [](const IdleSlot& a, const IdleSlot& b) {
        return std::tie(a.time, a.unit) < std::tie(b.time, b.unit);
      });
  AIS_CHECK(pos != slots.end() && *pos == slot,
            "slot is not idle in the given schedule");
  return static_cast<std::size_t>(pos - slots.begin());
}

std::vector<Time> Schedule::idle_times(int unit) const {
  AIS_CHECK(unit >= 0 && unit < total_units(), "unit index out of range");
  const auto& lane = units_[static_cast<std::size_t>(unit)];
  std::vector<Time> idle;
  Time cursor = 0;
  for (const auto& [start, id] : lane) {
    for (Time t = cursor; t < start; ++t) idle.push_back(t);
    cursor = start + graph_->node(id).exec_time;
  }
  for (Time t = cursor; t < makespan_; ++t) idle.push_back(t);
  return idle;
}

std::vector<NodeId> Schedule::permutation() const {
  std::vector<NodeId> perm;
  active_.bits().for_each([&](std::size_t i) {
    if (start_[i] >= 0) perm.push_back(static_cast<NodeId>(i));
  });
  std::sort(perm.begin(), perm.end(), [this](NodeId a, NodeId b) {
    return std::tie(start_[a], unit_[a]) < std::tie(start_[b], unit_[b]);
  });
  return perm;
}

std::vector<std::vector<NodeId>> Schedule::u_sets() const {
  AIS_CHECK(total_units() == 1, "u-set partition is defined for one unit");
  const auto& lane = units_[0];
  std::vector<std::vector<NodeId>> sets;
  sets.emplace_back();
  Time cursor = 0;
  for (const auto& [start, id] : lane) {
    if (start > cursor) sets.emplace_back();  // an idle gap ended a u set
    sets.back().push_back(id);
    cursor = start + graph_->node(id).exec_time;
  }
  return sets;
}

NodeId Schedule::tail_node(int unit, Time t) const {
  AIS_CHECK(unit >= 0 && unit < total_units(), "unit index out of range");
  const auto& lane = units_[static_cast<std::size_t>(unit)];
  // Completion times are strictly increasing along a lane (sorted starts +
  // unit exclusivity), so the node completing at t is binary-searchable.
  const auto pos = std::partition_point(
      lane.begin(), lane.end(), [this, t](const std::pair<Time, NodeId>& e) {
        return e.first + graph_->node(e.second).exec_time < t;
      });
  if (pos != lane.end() &&
      pos->first + graph_->node(pos->second).exec_time == t) {
    return pos->second;
  }
  return kInvalidNode;
}

std::string validate_schedule(const Schedule& s, const MachineModel& machine) {
  const DepGraph& g = s.graph();
  if (!s.complete()) return "schedule does not place every active node";

  // Unit typing: a node must run on a unit belonging to its FU class.
  // Global unit indices are assigned class-major: class 0 units first.
  std::vector<int> class_of_unit;
  for (int c = 0; c < machine.num_fu_classes(); ++c) {
    for (int k = 0; k < machine.fu_count(c); ++k) class_of_unit.push_back(c);
  }
  if (static_cast<int>(class_of_unit.size()) != s.total_units()) {
    return "schedule unit count does not match machine";
  }

  std::vector<int> starts_per_cycle;
  for (const NodeId id : s.active().ids()) {
    const int unit = s.unit_of(id);
    if (class_of_unit[static_cast<std::size_t>(unit)] != g.node(id).fu_class) {
      return "node " + g.node(id).name + " runs on a unit of the wrong class";
    }
    const Time t = s.start(id);
    if (t >= static_cast<Time>(starts_per_cycle.size())) {
      starts_per_cycle.resize(static_cast<std::size_t>(t) + 1, 0);
    }
    ++starts_per_cycle[static_cast<std::size_t>(t)];
  }
  for (std::size_t t = 0; t < starts_per_cycle.size(); ++t) {
    if (starts_per_cycle[t] > machine.issue_width()) {
      return "issue width exceeded at cycle " + std::to_string(t);
    }
  }

  for (const DepEdge& e : g.edges()) {
    if (e.distance != 0) continue;
    if (!s.active().contains(e.from) || !s.active().contains(e.to)) continue;
    if (s.start(e.to) < s.completion(e.from) + e.latency) {
      return "dependence " + g.node(e.from).name + " -> " + g.node(e.to).name +
             " violated";
    }
  }
  return {};
}

std::string format_timeline(const Schedule& s, int unit) {
  std::ostringstream os;
  os << '|';
  Time t = 0;
  while (t < s.makespan()) {
    const NodeId id = s.node_at(unit, t);
    if (id == kInvalidNode) {
      os << " . |";
      ++t;
    } else {
      os << ' ' << s.graph().node(id).name << " |";
      t += s.graph().node(id).exec_time;
    }
  }
  return os.str();
}

}  // namespace ais
