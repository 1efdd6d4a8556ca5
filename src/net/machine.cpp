#include "net/machine.hpp"

#include <string>

namespace splap::net {

sim::Engine& Node::engine() const { return machine_.engine(); }
const CostModel& Node::cost() const { return machine_.cost(); }

Machine::Machine(Config config)
    : fabric_(engine_, config.tasks, config.fabric),
      incarnations_(static_cast<std::size_t>(config.tasks), 0) {
  SPLAP_REQUIRE(config.tasks > 0, "machine needs at least one task");
  nodes_.reserve(static_cast<std::size_t>(config.tasks));
  for (int i = 0; i < config.tasks; ++i) {
    nodes_.push_back(std::make_unique<Node>(*this, i));
    // Raw registration: delivery is one indirect call straight into the
    // adapter, not a std::function hop per packet.
    fabric_.set_deliver(
        i,
        [](void* node, Packet&& pkt) {
          static_cast<Node*>(node)->adapter().deliver(std::move(pkt));
        },
        nodes_.back().get());
    fabric_.set_overflow(
        i,
        [](void* node, const Packet& pkt) {
          static_cast<Node*>(node)->adapter().overflow(pkt);
        },
        nodes_.back().get());
  }
}

Status Machine::run_spmd(const std::function<void(Node&)>& body) {
  for (auto& node : nodes_) {
    Node* n = node.get();
    // Pinned to the node's shard so kill_node tears the task down with it.
    try {
      n->task_ = &engine_.spawn_on(n->id(), "task" + std::to_string(n->id()),
                                   [n, body](sim::Actor&) { body(*n); });
    } catch (const sim::SpawnError& e) {
      // Stack exhaustion at high node counts is an environment limit, not a
      // bug: quiesce the tasks already spawned and report it as recoverable.
      SPLAP_WARN(engine_.now(), "run_spmd: %s", e.what());
      engine_.shutdown();
      for (auto& nd : nodes_) nd->task_ = nullptr;
      return Status::kResourceExhausted;
    }
  }
  const Status st = engine_.run();
  for (auto& node : nodes_) node->task_ = nullptr;
  if (st == Status::kOk && !crash_planned_ && !allow_dead_letters_) {
    for (auto& node : nodes_) {
      SPLAP_REQUIRE(node->adapter().dead_letters() == 0,
                    "dead letters in a healthy run: a packet arrived for a "
                    "client that already shut down (protocol teardown raced "
                    "live peers)");
    }
  }
  return st;
}

void Machine::kill_node(int node, Time t) {
  SPLAP_REQUIRE(node >= 0 && node < tasks(), "bad node id");
  SPLAP_REQUIRE(t >= engine_.now(), "cannot crash a node in the virtual past");
  crash_planned_ = true;
  fabric_.add_node_fault(NodeFault{node, t, kNoTime});
  engine_.schedule_at_on(t, sim::Engine::kNoShard,
                         [this, node] { engine_.kill_shard(node); });
}

void Machine::restart_node(int node, Time t, std::function<void(Node&)> body) {
  SPLAP_REQUIRE(node >= 0 && node < tasks(), "bad node id");
  fabric_.set_node_restart(node, t);
  engine_.schedule_at_on(
      t, sim::Engine::kNoShard, [this, node, body = std::move(body)] {
        const std::int64_t life =
            ++incarnations_[static_cast<std::size_t>(node)];
        fabric_.reset_node(node);
        Node* n = nodes_[static_cast<std::size_t>(node)].get();
        n->task_ = &engine_.spawn_on(
            node,
            "task" + std::to_string(node) + ".r" + std::to_string(life),
            [n, body](sim::Actor&) { body(*n); });
      });
}

}  // namespace splap::net
