#include "scol/flow/dinic.h"

namespace scol {

Dinic::Dinic(int num_nodes) : head_(static_cast<std::size_t>(num_nodes), -1) {
  SCOL_REQUIRE(num_nodes >= 0);
}

int Dinic::add_edge(int u, int v, Cap cap) {
  SCOL_REQUIRE(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
  SCOL_REQUIRE(cap >= 0);
  const int id = static_cast<int>(arcs_.size());
  arcs_.push_back({v, cap, head_[static_cast<std::size_t>(u)]});
  head_[static_cast<std::size_t>(u)] = id;
  arcs_.push_back({u, 0, head_[static_cast<std::size_t>(v)]});
  head_[static_cast<std::size_t>(v)] = id + 1;
  return id;
}

bool Dinic::bfs(int s, int t) {
  level_.assign(head_.size(), -1);
  std::vector<int> queue{s};
  level_[static_cast<std::size_t>(s)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int v = queue[head];
    for (int e = head_[static_cast<std::size_t>(v)]; e >= 0;
         e = arcs_[static_cast<std::size_t>(e)].next) {
      const Arc& a = arcs_[static_cast<std::size_t>(e)];
      if (a.cap > 0 && level_[static_cast<std::size_t>(a.to)] < 0) {
        level_[static_cast<std::size_t>(a.to)] =
            level_[static_cast<std::size_t>(v)] + 1;
        queue.push_back(a.to);
      }
    }
  }
  return level_[static_cast<std::size_t>(t)] >= 0;
}

Dinic::Cap Dinic::dfs(int v, int t, Cap limit) {
  if (v == t || limit == 0) return limit;
  Cap pushed = 0;
  for (int& e = iter_[static_cast<std::size_t>(v)]; e >= 0;
       e = arcs_[static_cast<std::size_t>(e)].next) {
    Arc& a = arcs_[static_cast<std::size_t>(e)];
    if (a.cap > 0 && level_[static_cast<std::size_t>(a.to)] ==
                         level_[static_cast<std::size_t>(v)] + 1) {
      const Cap got = dfs(a.to, t, std::min(limit - pushed, a.cap));
      if (got > 0) {
        a.cap -= got;
        arcs_[static_cast<std::size_t>(e ^ 1)].cap += got;
        pushed += got;
        if (pushed == limit) return pushed;
      }
    }
  }
  level_[static_cast<std::size_t>(v)] = -1;  // dead end
  return pushed;
}

Dinic::Cap Dinic::max_flow(int s, int t) {
  SCOL_REQUIRE(s != t);
  Cap flow = 0;
  while (bfs(s, t)) {
    iter_ = head_;
    for (;;) {
      const Cap got = dfs(s, t, kInf);
      if (got == 0) break;
      flow += got;
    }
  }
  return flow;
}

std::vector<char> Dinic::min_cut_source_side(int s) const {
  std::vector<char> side(head_.size(), 0);
  std::vector<int> queue{s};
  side[static_cast<std::size_t>(s)] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int v = queue[head];
    for (int e = head_[static_cast<std::size_t>(v)]; e >= 0;
         e = arcs_[static_cast<std::size_t>(e)].next) {
      const Arc& a = arcs_[static_cast<std::size_t>(e)];
      if (a.cap > 0 && !side[static_cast<std::size_t>(a.to)]) {
        side[static_cast<std::size_t>(a.to)] = 1;
        queue.push_back(a.to);
      }
    }
  }
  return side;
}

}  // namespace scol
