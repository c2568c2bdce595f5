#include "device/network.h"

namespace netco::device {

Connection Network::connect(Node& a, Node& b, link::LinkConfig config) {
  auto link = std::make_unique<link::Link>(simulator_, config);
  link->set_labels(a.name(), b.name());
  Connection conn;
  conn.link = link.get();
  conn.a_port = a.attach_channel(&link->forward());
  conn.b_port = b.attach_channel(&link->reverse());
  link->forward().bind_sink(b, conn.b_port);
  link->reverse().bind_sink(a, conn.a_port);
  links_.push_back(std::move(link));
  return conn;
}

Node* Network::find(std::string_view name) const noexcept {
  for (const auto& node : nodes_) {
    if (node->name() == name) return node.get();
  }
  return nullptr;
}

}  // namespace netco::device
