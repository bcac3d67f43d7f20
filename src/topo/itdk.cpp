#include "topo/itdk.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace wormhole::topo {

NodeId ItdkDataset::NodeOf(netbase::Ipv4Address address) {
  const auto it = address_to_node_.find(address);
  if (it != address_to_node_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  ItdkNode node;
  node.id = id;
  node.addresses.push_back(address);
  nodes_.push_back(std::move(node));
  address_to_node_[address] = id;
  return id;
}

std::optional<NodeId> ItdkDataset::FindNode(
    netbase::Ipv4Address address) const {
  const auto it = address_to_node_.find(address);
  if (it == address_to_node_.end()) return std::nullopt;
  return it->second;
}

void ItdkDataset::AddAlias(NodeId node, netbase::Ipv4Address address) {
  const auto it = address_to_node_.find(address);
  if (it != address_to_node_.end()) {
    if (it->second != node) {
      throw std::logic_error("address already aliased to another node");
    }
    return;
  }
  nodes_.at(node).addresses.push_back(address);
  address_to_node_[address] = node;
}

void ItdkDataset::AddLink(NodeId a, NodeId b) {
  if (a == b) return;
  const auto key = std::minmax(a, b);
  if (!link_index_.insert(LinkKey(key.first, key.second)).second) return;
  links_.emplace(key.first, key.second);
  adjacency_[a].insert(b);
  adjacency_[b].insert(a);
}

void ItdkDataset::RemoveLink(NodeId a, NodeId b) {
  const auto key = std::minmax(a, b);
  if (link_index_.erase(LinkKey(key.first, key.second)) > 0) {
    links_.erase({key.first, key.second});
    adjacency_[a].erase(b);
    adjacency_[b].erase(a);
  }
}

bool ItdkDataset::HasLink(NodeId a, NodeId b) const {
  const auto key = std::minmax(a, b);
  return link_index_.contains(LinkKey(key.first, key.second));
}

void ItdkDataset::SetAs(NodeId node, AsNumber asn) {
  nodes_.at(node).asn = asn;
}

std::size_t ItdkDataset::Degree(NodeId node) const {
  const auto it = adjacency_.find(node);
  return it == adjacency_.end() ? 0 : it->second.size();
}

const std::set<NodeId>& ItdkDataset::NeighborsOf(NodeId node) const {
  static const std::set<NodeId> kEmpty;
  const auto it = adjacency_.find(node);
  return it == adjacency_.end() ? kEmpty : it->second;
}

netbase::IntDistribution ItdkDataset::DegreeDistribution() const {
  netbase::IntDistribution d;
  for (const ItdkNode& node : nodes_) {
    d.Add(static_cast<int>(Degree(node.id)));
  }
  return d;
}

netbase::IntDistribution ItdkDataset::DegreeDistribution(AsNumber asn) const {
  netbase::IntDistribution d;
  for (const ItdkNode& node : nodes_) {
    if (node.asn == asn) d.Add(static_cast<int>(Degree(node.id)));
  }
  return d;
}

std::vector<NodeId> ItdkDataset::HighDegreeNodes(std::size_t threshold) const {
  std::vector<NodeId> out;
  for (const ItdkNode& node : nodes_) {
    if (Degree(node.id) >= threshold) out.push_back(node.id);
  }
  return out;
}

double ItdkDataset::Density(const std::vector<NodeId>& nodes) const {
  const std::set<NodeId> in_set(nodes.begin(), nodes.end());
  if (in_set.size() < 2) return 0.0;
  // Each link inside the set is counted once, from its smaller end.
  std::size_t edges = 0;
  for (const NodeId a : in_set) {
    for (const NodeId b : NeighborsOf(a)) {
      if (b > a && in_set.contains(b)) ++edges;
    }
  }
  const double v = static_cast<double>(in_set.size());
  return 2.0 * static_cast<double>(edges) / (v * (v - 1.0));
}

void ItdkDataset::Write(std::ostream& os) const {
  // Format (one record per line, CAIDA-flavoured):
  //   node N<i>: addr addr ...
  //   node.AS N<i> <asn>
  //   link N<i> N<j>
  for (const ItdkNode& node : nodes_) {
    os << "node N" << node.id << ":";
    for (const auto address : node.addresses) os << ' ' << address;
    os << '\n';
  }
  for (const ItdkNode& node : nodes_) {
    if (node.asn != 0) os << "node.AS N" << node.id << ' ' << node.asn << '\n';
  }
  for (const auto& [a, b] : links_) {
    os << "link N" << a << " N" << b << '\n';
  }
}

namespace {

NodeId ParseNodeRef(const std::string& token) {
  if (token.empty() || token[0] != 'N') {
    throw std::runtime_error("bad node reference: " + token);
  }
  return static_cast<NodeId>(std::stoul(token.substr(1)));
}

}  // namespace

ItdkDataset ItdkDataset::Read(std::istream& is) {
  ItdkDataset dataset;
  std::unordered_map<NodeId, NodeId> remap;  // file id -> dataset id
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string keyword;
    ss >> keyword;
    if (keyword == "node") {
      std::string ref;
      ss >> ref;
      if (!ref.empty() && ref.back() == ':') ref.pop_back();
      const NodeId file_id = ParseNodeRef(ref);
      std::string addr_text;
      NodeId id = kNoNode;
      while (ss >> addr_text) {
        const auto address = netbase::Ipv4Address::Parse(addr_text);
        if (!address) throw std::runtime_error("bad address: " + addr_text);
        if (id == kNoNode) {
          id = dataset.NodeOf(*address);
        } else {
          dataset.AddAlias(id, *address);
        }
      }
      if (id == kNoNode) throw std::runtime_error("node with no addresses");
      remap[file_id] = id;
    } else if (keyword == "node.AS") {
      std::string ref;
      AsNumber asn = 0;
      ss >> ref >> asn;
      dataset.SetAs(remap.at(ParseNodeRef(ref)), asn);
    } else if (keyword == "link") {
      std::string ra, rb;
      ss >> ra >> rb;
      dataset.AddLink(remap.at(ParseNodeRef(ra)), remap.at(ParseNodeRef(rb)));
    } else {
      throw std::runtime_error("unknown record: " + keyword);
    }
  }
  return dataset;
}

ItdkDataset GroundTruthDataset(const Topology& topology) {
  ItdkDataset dataset;
  std::vector<NodeId> node_of_router(topology.router_count(), kNoNode);
  for (const Router& router : topology.routers()) {
    const NodeId node = dataset.NodeOf(router.loopback);
    node_of_router[router.id] = node;
    dataset.SetAs(node, router.asn);
    for (const InterfaceId iid : router.interfaces) {
      dataset.AddAlias(node, topology.interface(iid).address);
    }
  }
  for (const Link& link : topology.links()) {
    dataset.AddLink(node_of_router[topology.interface(link.a).router],
                    node_of_router[topology.interface(link.b).router]);
  }
  return dataset;
}

}  // namespace wormhole::topo
