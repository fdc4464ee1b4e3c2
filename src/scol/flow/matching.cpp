#include "scol/flow/matching.h"

#include <limits>

namespace scol {

namespace {
constexpr int kInf = std::numeric_limits<int>::max();
}

BipartiteMatcher::BipartiteMatcher(int num_left, int num_right)
    : nl_(num_left),
      nr_(num_right),
      adj_(static_cast<std::size_t>(num_left)),
      match_l_(static_cast<std::size_t>(num_left), -1),
      match_r_(static_cast<std::size_t>(num_right), -1),
      dist_(static_cast<std::size_t>(num_left), 0) {
  SCOL_REQUIRE(num_left >= 0 && num_right >= 0);
}

void BipartiteMatcher::add_edge(int l, int r) {
  SCOL_REQUIRE(l >= 0 && l < nl_ && r >= 0 && r < nr_);
  adj_[static_cast<std::size_t>(l)].push_back(r);
}

bool BipartiteMatcher::bfs() {
  std::vector<int> queue;
  for (int l = 0; l < nl_; ++l) {
    if (match_l_[static_cast<std::size_t>(l)] < 0) {
      dist_[static_cast<std::size_t>(l)] = 0;
      queue.push_back(l);
    } else {
      dist_[static_cast<std::size_t>(l)] = kInf;
    }
  }
  bool found = false;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int l = queue[head];
    for (int r : adj_[static_cast<std::size_t>(l)]) {
      const int l2 = match_r_[static_cast<std::size_t>(r)];
      if (l2 < 0) {
        found = true;
      } else if (dist_[static_cast<std::size_t>(l2)] == kInf) {
        dist_[static_cast<std::size_t>(l2)] =
            dist_[static_cast<std::size_t>(l)] + 1;
        queue.push_back(l2);
      }
    }
  }
  return found;
}

bool BipartiteMatcher::dfs(int l) {
  for (int r : adj_[static_cast<std::size_t>(l)]) {
    const int l2 = match_r_[static_cast<std::size_t>(r)];
    if (l2 < 0 || (dist_[static_cast<std::size_t>(l2)] ==
                       dist_[static_cast<std::size_t>(l)] + 1 &&
                   dfs(l2))) {
      match_l_[static_cast<std::size_t>(l)] = r;
      match_r_[static_cast<std::size_t>(r)] = l;
      return true;
    }
  }
  dist_[static_cast<std::size_t>(l)] = kInf;
  return false;
}

int BipartiteMatcher::solve() {
  int matching = 0;
  while (bfs()) {
    for (int l = 0; l < nl_; ++l)
      if (match_l_[static_cast<std::size_t>(l)] < 0 && dfs(l)) ++matching;
  }
  return matching;
}

}  // namespace scol
