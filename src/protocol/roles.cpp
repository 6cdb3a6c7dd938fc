#include "protocol/roles.hpp"

#include <algorithm>

namespace cyc::protocol {

std::string_view role_name(Role r) {
  switch (r) {
    case Role::kCommon: return "common";
    case Role::kLeader: return "leader";
    case Role::kPartial: return "partial";
    case Role::kReferee: return "referee";
  }
  return "unknown";
}

std::vector<net::NodeId> CommitteeInfo::all_members() const {
  std::vector<net::NodeId> out;
  out.reserve(size());
  out.push_back(leader);
  out.insert(out.end(), partial.begin(), partial.end());
  out.insert(out.end(), commons.begin(), commons.end());
  return out;
}

std::vector<net::NodeId> CommitteeInfo::key_members() const {
  std::vector<net::NodeId> out;
  out.reserve(1 + partial.size());
  out.push_back(leader);
  out.insert(out.end(), partial.begin(), partial.end());
  return out;
}

bool CommitteeInfo::contains(net::NodeId node) const {
  if (node == leader) return true;
  if (std::find(partial.begin(), partial.end(), node) != partial.end()) {
    return true;
  }
  return std::find(commons.begin(), commons.end(), node) != commons.end();
}

}  // namespace cyc::protocol
