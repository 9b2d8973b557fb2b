// A most-recent-first list of at most `depth` distinct values, updated with
// move-to-front: the affinity histories of Section 5.3 (a processor's last T
// tasks, a task's last P processors).

#ifndef SRC_COMMON_RECENCY_LIST_H_
#define SRC_COMMON_RECENCY_LIST_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace affsched {

template <typename T>
class RecencyList {
 public:
  // Puts `value` at the front. A remembered value moves up; a new one pushes
  // the oldest entry out once the list already holds `depth` values.
  void Record(T value, size_t depth) {
    if (depth == 0) {
      return;
    }
    auto it = std::find(items_.begin(), items_.end(), value);
    if (it == items_.end()) {
      if (items_.size() < depth) {
        items_.push_back(value);
      }
      it = items_.end() - 1;
      *it = value;
    }
    std::rotate(items_.begin(), it, it + 1);
  }

  // The most recent value, or `none` before the first Record.
  T MostRecent(T none) const { return items_.empty() ? none : items_.front(); }

  bool Contains(T value) const {
    return std::find(items_.begin(), items_.end(), value) != items_.end();
  }

  // Most recent first.
  std::span<const T> items() const { return items_; }

 private:
  std::vector<T> items_;
};

}  // namespace affsched

#endif  // SRC_COMMON_RECENCY_LIST_H_
