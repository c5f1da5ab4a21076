#ifndef DEX_COMMON_STAT_FIELDS_H_
#define DEX_COMMON_STAT_FIELDS_H_

#include <tuple>

namespace dex {

/// \brief One counter of a stats struct paired with the metric name it is
/// published under.
///
/// Each stats struct lists its counters once, in a static `Fields()` tuple
/// of these; merges, the metrics publishers and tests walk that list, so a
/// counter's metric name is spelled once, next to the counter. `name` is a
/// literal, or nullptr for a counter that is published inside another
/// struct's total.
template <typename S, typename V>
struct StatField {
  const char* name;
  V S::*member;
};

template <typename S, typename V>
StatField(const char*, V S::*) -> StatField<S, V>;

/// Calls `fn(field)` for every StatField of a `Fields()` tuple, in order.
template <typename Fields, typename Fn>
void ForEachStatField(const Fields& fields, Fn&& fn) {
  std::apply([&fn](const auto&... field) { (fn(field), ...); }, fields);
}

}  // namespace dex

#endif  // DEX_COMMON_STAT_FIELDS_H_
