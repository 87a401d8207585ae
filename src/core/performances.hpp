// Named performance values and the canonical table of the electrical ones.
//
// Performance is the payload of every evaluation: what a PerformanceModel
// returns and what SpecSet and CostFunction read.  The electrical
// performance table lists what the amplifier flow's verification testbench
// measures (gain_db, ugf, pm, power).  That one table feeds three consumers that each used to carry
// their own hard-coded list: spec filtering (which constraint specs the
// simulator can judge), the knowledge-plan input mapping (spec.* context
// keys), and run-report serialization (which measurements a
// VerificationRecord prints).
//
// Header-only on purpose: the sizing and knowledge libraries sit below
// amsyn_core in the link order but still use both, so this must be
// includable without linking core (the core/evalstatus.hpp pattern).
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace amsyn::core {

/// Named performance values of one evaluation ("gain_db", "ugf", ... plus
/// the "_infeasible"/"_status" taxonomy keys): a vector of (name, value)
/// pairs kept sorted by name.  An evaluation carries about eight entries,
/// so one contiguous allocation replaces a tree node per entry, and a
/// lookup is a binary search over string_views that builds no temporary
/// string.  It offers the subset of std::map<std::string, double> the tree
/// uses, with the same semantics: iteration in ascending name order (so
/// digests, reports and goldens see exactly the map's sequence),
/// first-insert-wins emplace, default-inserting operator[], throwing at().
/// Unlike std::map, an insertion moves later entries, so it invalidates
/// iterators and references into the payload.
class Performance {
 public:
  using value_type = std::pair<std::string, double>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

 private:
  // Shared by the const and mutable accessors (Entries is either constness
  // of the vector).
  template <typename Entries>
  static auto lowerBound(Entries& entries, std::string_view name) {
    return std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const value_type& e, std::string_view n) { return std::string_view(e.first) < n; });
  }
  template <typename Entries>
  static auto findIn(Entries& entries, std::string_view name) {
    const auto it = lowerBound(entries, name);
    return it != entries.end() && it->first == name ? it : entries.end();
  }
  template <typename Entries>
  static auto& atIn(Entries& entries, std::string_view name) {
    const auto it = findIn(entries, name);
    if (it == entries.end())
      throw std::out_of_range("Performance::at: no '" + std::string(name) + "'");
    return it->second;
  }

 public:
  Performance() = default;
  /// Like std::map's: of duplicate names, the first one wins.
  Performance(std::initializer_list<value_type> init) {
    entries_.reserve(init.size());
    for (const auto& [name, value] : init) emplace(name, value);
  }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  iterator find(std::string_view name) { return findIn(entries_, name); }
  const_iterator find(std::string_view name) const { return findIn(entries_, name); }
  std::size_t count(std::string_view name) const { return find(name) != end() ? 1 : 0; }

  double& at(std::string_view name) { return atIn(entries_, name); }
  const double& at(std::string_view name) const { return atIn(entries_, name); }

  /// The value named `name`, inserting 0.0 first when absent.
  double& operator[](std::string_view name) { return emplace(name, 0.0).first->second; }

  /// Insert (name, value) unless `name` is present; never overwrites.
  std::pair<iterator, bool> emplace(std::string_view name, double value) {
    const auto it = lowerBound(entries_, name);
    if (it != entries_.end() && it->first == name) return {it, false};
    return {entries_.emplace(it, std::string(name), value), true};
  }

  std::size_t erase(std::string_view name) {
    const auto it = find(name);
    if (it == end()) return 0;
    entries_.erase(it);
    return 1;
  }

  friend bool operator==(const Performance&, const Performance&) = default;

 private:
  std::vector<value_type> entries_;
};

struct ElectricalPerformance {
  const char* name;       ///< simulator measurement / spec performance name
  const char* planInput;  ///< knowledge-plan context key fed from the bound
  /// True when only an upper-bound (LessEqual) constraint maps onto the
  /// plan input — power budgets feed spec.power_max; a lower bound on
  /// power would be meaningless to a plan.
  bool upperBoundOnly;
};

/// Every performance the amplifier verification stage measures, with its
/// plan-input mapping.  Order is the canonical serialization order.
inline const std::vector<ElectricalPerformance>& electricalPerformanceTable() {
  static const std::vector<ElectricalPerformance> table = {
      {"gain_db", "spec.gain_db", false},
      {"ugf", "spec.ugf", false},
      {"pm", "spec.pm", false},
      {"power", "spec.power_max", true},
  };
  return table;
}

/// Names only, in table order (the common consumer shape).
inline std::vector<std::string> electricalPerformances() {
  std::vector<std::string> names;
  names.reserve(electricalPerformanceTable().size());
  for (const auto& p : electricalPerformanceTable()) names.emplace_back(p.name);
  return names;
}

/// Is `name` a simulator-judged electrical performance?
inline bool isElectricalPerformance(const std::string& name) {
  for (const auto& p : electricalPerformanceTable())
    if (name == p.name) return true;
  return false;
}

}  // namespace amsyn::core
