// Randomized interleaving fuzz tests for the flow protocols.
//
// The delivery schedule is the adversary: send and delivery events on a
// two-node (and three-node) system are interleaved at random, with packets
// pipelined FIFO per direction. After quiescing (drain everything, then a few
// clean alternating exchanges) the total mass must equal the initial mass
// bit-for-bit up to FP rounding — this is the harness that uncovered the
// role-adoption and stale-absorption races in the paper's original PCF
// handshake (see core/protocol.hpp).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <utility>

#include "core/reducer.hpp"

namespace pcf::core {
namespace {

struct TwoNodeHarness {
  std::unique_ptr<Reducer> a;
  std::unique_ptr<Reducer> b;
  std::deque<Packet> ab;
  std::deque<Packet> ba;

  TwoNodeHarness(Algorithm algorithm, const ReducerConfig& config) {
    a = make_reducer(algorithm, config);
    b = make_reducer(algorithm, config);
    const std::vector<NodeId> na{1}, nb{0};
    a->init(0, na, Mass::scalar(3.0, 1.0));
    b->init(1, nb, Mass::scalar(1.0, 1.0));
  }

  void op(int kind) {
    switch (kind) {
      case 0: ab.push_back(a->make_message_to(1)->packet); break;
      case 1: ba.push_back(b->make_message_to(0)->packet); break;
      case 2:
        if (!ab.empty()) {
          b->on_receive(0, ab.front());
          ab.pop_front();
        }
        break;
      case 3:
        if (!ba.empty()) {
          a->on_receive(1, ba.front());
          ba.pop_front();
        }
        break;
      case 6:
        // Adversarial duplication: the head packet is delivered twice
        // back-to-back (a retransmitting transport).
        if (!ab.empty()) {
          b->on_receive(0, ab.front());
          b->on_receive(0, ab.front());
          ab.pop_front();
        }
        break;
      case 7:
        if (!ba.empty()) {
          a->on_receive(1, ba.front());
          a->on_receive(1, ba.front());
          ba.pop_front();
        }
        break;
      // 8/9: bounded reordering — the two oldest pipelined packets swap
      // places, so the newer one overtakes on delivery.
      case 8:
        if (ab.size() >= 2) std::swap(ab[0], ab[1]);
        break;
      case 9:
        if (ba.size() >= 2) std::swap(ba[0], ba[1]);
        break;
      default: break;  // 4 = drop oldest a→b, 5 = drop oldest b→a
    }
    if (kind == 4 && !ab.empty()) ab.pop_front();
    if (kind == 5 && !ba.empty()) ba.pop_front();
  }

  void quiesce() {
    while (!ab.empty()) op(2);
    while (!ba.empty()) op(3);
    for (int r = 0; r < 10; ++r) {
      b->on_receive(0, a->make_message_to(1)->packet);
      a->on_receive(1, b->make_message_to(0)->packet);
    }
  }

  [[nodiscard]] Mass total() const { return a->local_mass() + b->local_mass(); }
};

class InterleavingFuzz : public ::testing::TestWithParam<Algorithm> {};

INSTANTIATE_TEST_SUITE_P(FlowAlgorithms, InterleavingFuzz,
                         ::testing::Values(Algorithm::kPushFlow, Algorithm::kPushCancelFlow,
                                           Algorithm::kFlowUpdating),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param)) == "push-flow"
                                      ? "pf"
                                      : (param_info.param == Algorithm::kPushCancelFlow ? "pcf" : "fu");
                         });

TEST_P(InterleavingFuzz, MassConservedUnderArbitraryLosslessInterleaving) {
  Rng rng(0xfade);
  for (int trial = 0; trial < 3000; ++trial) {
    TwoNodeHarness h(GetParam(), {});
    for (int op = 0; op < 60; ++op) h.op(static_cast<int>(rng.below(4)));
    h.quiesce();
    const Mass total = h.total();
    ASSERT_NEAR(total.s[0], 4.0, 1e-9) << "trial " << trial;
    ASSERT_NEAR(total.w, 2.0, 1e-9) << "trial " << trial;
  }
}

TEST_P(InterleavingFuzz, PcfVariantsConserveUnderInterleaving) {
  for (const auto variant : {PcfVariant::kFast, PcfVariant::kRobust}) {
    ReducerConfig config;
    config.pcf_variant = variant;
    Rng rng(0xbeef);
    for (int trial = 0; trial < 1000; ++trial) {
      TwoNodeHarness h(GetParam(), config);
      for (int op = 0; op < 60; ++op) h.op(static_cast<int>(rng.below(4)));
      h.quiesce();
      const Mass total = h.total();
      ASSERT_NEAR(total.s[0], 4.0, 1e-9) << "trial " << trial << " " << to_string(variant);
      ASSERT_NEAR(total.w, 2.0, 1e-9) << "trial " << trial << " " << to_string(variant);
    }
  }
}

TEST_P(InterleavingFuzz, MassConservedUnderInterleavingWithLoss) {
  // Ops 4/5 silently drop pipelined packets. Flow algorithms must still
  // conserve mass once the survivors re-exchange (self-healing by mirroring).
  Rng rng(0xc0ffee);
  for (int trial = 0; trial < 3000; ++trial) {
    TwoNodeHarness h(GetParam(), {});
    for (int op = 0; op < 60; ++op) h.op(static_cast<int>(rng.below(6)));
    h.quiesce();
    const Mass total = h.total();
    ASSERT_NEAR(total.s[0], 4.0, 1e-9) << "trial " << trial;
    ASSERT_NEAR(total.w, 2.0, 1e-9) << "trial " << trial;
  }
}

TEST_P(InterleavingFuzz, MassConservedUnderDuplicationAndReordering) {
  // The full adversarial-delivery op set: loss (4/5), duplication (6/7), and
  // head-of-queue reordering (8/9) on top of arbitrary interleaving. Flow
  // mirrors are idempotent and absolute, so duplicates are no-ops and a
  // reordered stale mirror is overwritten by the quiesce re-exchanges.
  Rng rng(0xd0d0);
  for (int trial = 0; trial < 3000; ++trial) {
    TwoNodeHarness h(GetParam(), {});
    for (int op = 0; op < 60; ++op) h.op(static_cast<int>(rng.below(10)));
    h.quiesce();
    const Mass total = h.total();
    ASSERT_NEAR(total.s[0], 4.0, 1e-9) << "trial " << trial;
    ASSERT_NEAR(total.w, 2.0, 1e-9) << "trial " << trial;
  }
}

TEST_P(InterleavingFuzz, PcfVariantsConserveUnderDuplicationAndReordering) {
  // Both PCF bookkeeping variants must keep their cancellation handshake
  // sound when handshake packets are duplicated or arrive out of order.
  for (const auto variant : {PcfVariant::kFast, PcfVariant::kRobust}) {
    ReducerConfig config;
    config.pcf_variant = variant;
    Rng rng(0x5eed);
    for (int trial = 0; trial < 1000; ++trial) {
      TwoNodeHarness h(GetParam(), config);
      for (int op = 0; op < 60; ++op) h.op(static_cast<int>(rng.below(10)));
      h.quiesce();
      const Mass total = h.total();
      ASSERT_NEAR(total.s[0], 4.0, 1e-9) << "trial " << trial << " " << to_string(variant);
      ASSERT_NEAR(total.w, 2.0, 1e-9) << "trial " << trial << " " << to_string(variant);
    }
  }
}

TEST(InterleavingFuzzThreeNodes, PcfConservesOnLineUnderInterleaving) {
  // Three nodes on a line: node 1 runs both roles (completer toward 0,
  // initiator toward 2) — exercises per-edge state independence.
  Rng rng(0xabc);
  for (int trial = 0; trial < 1500; ++trial) {
    std::vector<std::unique_ptr<Reducer>> nodes;
    const std::vector<NodeId> n0{1}, n1{0, 2}, n2{1};
    nodes.push_back(make_reducer(Algorithm::kPushCancelFlow, {}));
    nodes.push_back(make_reducer(Algorithm::kPushCancelFlow, {}));
    nodes.push_back(make_reducer(Algorithm::kPushCancelFlow, {}));
    nodes[0]->init(0, n0, Mass::scalar(5.0, 1.0));
    nodes[1]->init(1, n1, Mass::scalar(-1.0, 1.0));
    nodes[2]->init(2, n2, Mass::scalar(2.0, 1.0));
    // One FIFO queue per directed edge.
    std::map<std::pair<NodeId, NodeId>, std::deque<Packet>> wires;
    auto send = [&](NodeId from, NodeId to) {
      if (auto out = nodes[from]->make_message_to(to)) wires[{from, to}].push_back(out->packet);
    };
    auto deliver = [&](NodeId from, NodeId to) {
      auto& q = wires[{from, to}];
      if (!q.empty()) {
        nodes[to]->on_receive(from, q.front());
        q.pop_front();
      }
    };
    const std::vector<std::pair<NodeId, NodeId>> links{{0, 1}, {1, 0}, {1, 2}, {2, 1}};
    for (int op = 0; op < 80; ++op) {
      const auto [x, y] = links[rng.below(4)];
      if (rng.chance(0.5)) {
        send(x, y);
      } else {
        deliver(x, y);
      }
    }
    for (const auto& [x, y] : links) {
      while (!wires[{x, y}].empty()) deliver(x, y);
    }
    for (int r = 0; r < 12; ++r) {
      for (const auto& [x, y] : links) {
        send(x, y);
        deliver(x, y);
      }
    }
    Mass total = nodes[0]->local_mass();
    total += nodes[1]->local_mass();
    total += nodes[2]->local_mass();
    ASSERT_NEAR(total.s[0], 6.0, 1e-9) << "trial " << trial;
    ASSERT_NEAR(total.w, 3.0, 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace pcf::core
