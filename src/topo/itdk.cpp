#include "topo/itdk.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace wormhole::topo {

std::size_t ItdkDataset::FlatIndex::HomeOf(std::uint64_t key) const {
  // Fibonacci hashing: the top bits of key * 2^64/phi, as many as the
  // (power-of-two) table needs.
  const int bits = std::countr_zero(slots_.size());
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  (64 - bits));
}

std::uint64_t ItdkDataset::FlatIndex::Find(std::uint64_t key) const {
  if (slots_.empty()) return 0;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = HomeOf(key);; i = (i + 1) & mask) {
    const std::uint64_t word = slots_[i];
    if (word == 0 || word >> key_shift_ == key) return word;
  }
}

bool ItdkDataset::FlatIndex::Insert(std::uint64_t word) {
  const std::uint64_t key = word >> key_shift_;
  // Look before growing: re-adding a present key must never reallocate.
  if (Find(key) != 0) return false;
  if (2 * (size_ + 1) > slots_.size()) Grow();
  Place(word);
  return true;
}

void ItdkDataset::FlatIndex::Place(std::uint64_t word) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = HomeOf(word >> key_shift_);
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = word;
  ++size_;
}

bool ItdkDataset::FlatIndex::Erase(std::uint64_t key) {
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = HomeOf(key);
  for (;; hole = (hole + 1) & mask) {
    if (slots_[hole] == 0) return false;
    if (slots_[hole] >> key_shift_ == key) break;
  }
  // Backward shift: pull each later word of the run into the hole when the
  // hole lies on its probe path (from its home slot to where it sits).
  for (std::size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = HomeOf(slots_[j] >> key_shift_);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
  --size_;
  return true;
}

void ItdkDataset::FlatIndex::Grow() {
  std::vector<std::uint64_t> old(std::max<std::size_t>(16, 2 * slots_.size()));
  old.swap(slots_);
  size_ = 0;
  for (const std::uint64_t word : old) {
    if (word != 0) Place(word);
  }
}

NodeId ItdkDataset::NodeOf(netbase::Ipv4Address address) {
  if (const auto found = FindNode(address)) return *found;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  ItdkNode node;
  node.id = id;
  node.addresses.push_back(address);
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  address_index_.Insert(AddressWord(address, id));
  return id;
}

std::optional<NodeId> ItdkDataset::FindNode(
    netbase::Ipv4Address address) const {
  const std::uint64_t word = address_index_.Find(address.value());
  if (word == 0) return std::nullopt;
  return static_cast<NodeId>((word & 0xFFFFFFFFull) - 1);
}

void ItdkDataset::AddAlias(NodeId node, netbase::Ipv4Address address) {
  if (const auto owner = FindNode(address)) {
    if (*owner != node) {
      throw std::logic_error("address already aliased to another node");
    }
    return;
  }
  nodes_.at(node).addresses.push_back(address);
  address_index_.Insert(AddressWord(address, node));
}

void ItdkDataset::AddLink(NodeId a, NodeId b) {
  if (a == b) return;
  if (std::max(a, b) >= nodes_.size()) {
    throw std::out_of_range("link to an unknown node");
  }
  if (!link_keys_.Insert(LinkKey(a, b))) return;
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
}

void ItdkDataset::RemoveLink(NodeId a, NodeId b) {
  if (!link_keys_.Erase(LinkKey(a, b))) return;
  std::erase(adjacency_[a], b);
  std::erase(adjacency_[b], a);
}

bool ItdkDataset::HasLink(NodeId a, NodeId b) const {
  return link_keys_.Find(LinkKey(a, b)) != 0;
}

void ItdkDataset::SetAs(NodeId node, AsNumber asn) {
  nodes_.at(node).asn = asn;
}

std::vector<std::pair<NodeId, NodeId>> ItdkDataset::links() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(link_keys_.size());
  for (const std::uint64_t word : link_keys_.slots()) {
    if (word != 0) keys.push_back(word);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    out.emplace_back(static_cast<NodeId>(key >> 32),
                     static_cast<NodeId>(key & 0xFFFFFFFFull));
  }
  return out;
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
  for (const auto& [a, b] : links()) {
    os << "link N" << a << " N" << b << '\n';
  }
}

namespace {

/// The reader's one failure: a std::runtime_error naming the input line.
std::runtime_error Malformed(std::size_t line, const std::string& what) {
  return std::runtime_error("itdk line " + std::to_string(line) + ": " + what);
}

/// A decimal number filling all of `text` that fits 32 bits.
std::optional<std::uint32_t> ParseU32(const std::string& text) {
  std::uint32_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) return std::nullopt;
  return value;
}

NodeId ParseNodeRef(const std::string& token, std::size_t line) {
  const auto id =
      token.starts_with('N') ? ParseU32(token.substr(1)) : std::nullopt;
  if (!id) throw Malformed(line, "bad node reference: " + token);
  return *id;
}

}  // namespace

ItdkDataset ItdkDataset::Read(std::istream& is) {
  ItdkDataset dataset;
  std::unordered_map<NodeId, NodeId> remap;  // file id -> dataset id
  const auto declared = [&](const std::string& token, std::size_t line) {
    const auto it = remap.find(ParseNodeRef(token, line));
    if (it == remap.end()) throw Malformed(line, "undeclared node " + token);
    return it->second;
  };
  std::string text;
  std::vector<std::string> tokens;
  for (std::size_t line = 1; std::getline(is, text); ++line) {
    if (!text.empty() && text[0] == '#') continue;
    std::istringstream ss(text);
    tokens.clear();
    for (std::string token; ss >> token;) tokens.push_back(std::move(token));
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];
    if (keyword == "node") {
      if (tokens.size() < 3) throw Malformed(line, "node with no addresses");
      std::string ref = tokens[1];
      if (ref.ends_with(':')) ref.pop_back();
      const NodeId file_id = ParseNodeRef(ref, line);
      if (remap.contains(file_id)) {
        throw Malformed(line, "node " + ref + " declared twice");
      }
      NodeId id = kNoNode;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto address = netbase::Ipv4Address::Parse(tokens[i]);
        if (!address) throw Malformed(line, "bad address: " + tokens[i]);
        if (dataset.FindNode(*address)) {
          throw Malformed(line, "address " + tokens[i] + " declared twice");
        }
        if (id == kNoNode) {
          id = dataset.NodeOf(*address);
        } else {
          dataset.AddAlias(id, *address);
        }
      }
      remap.emplace(file_id, id);
    } else if (keyword == "node.AS") {
      if (tokens.size() != 3) {
        throw Malformed(line, "expected node.AS N<id> <asn>");
      }
      const auto asn = ParseU32(tokens[2]);
      if (!asn) throw Malformed(line, "bad AS number: " + tokens[2]);
      dataset.SetAs(declared(tokens[1], line), *asn);
    } else if (keyword == "link") {
      if (tokens.size() != 3) throw Malformed(line, "expected link N<id> N<id>");
      dataset.AddLink(declared(tokens[1], line), declared(tokens[2], line));
    } else {
      throw Malformed(line, "unknown record: " + keyword);
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
