// Tests for the scoped flow rebalance (see network.hpp "Scoped
// rebalancing"): a randomized differential test driving the scoped and
// global-reference modes through the same operation sequence, plus pins for
// the unified completion re-arm floor, component isolation, stale flow ids
// after slot reuse, start-order teardown, and the order of completions that
// fall in the same nanosecond.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "des/simulator.hpp"
#include "net/network.hpp"

namespace cloudburst::net {
namespace {

// --- differential harness --------------------------------------------------

// One pre-generated flow operation. Cancel targets index the issued-flow
// list, which is identical across runs because flow ids are assigned in
// call order.
struct Op {
  des::SimTime at = 0;
  bool cancel = false;
  int target = 0;  // cancel: index into the issued-flow list
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  double cap = 0.0;
};

// xorshift64* — self-contained so the op sequence never shifts under
// standard-library changes.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

std::vector<Op> make_ops(int count, int endpoints, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Op> ops;
  ops.reserve(count);
  des::SimTime t = 0;
  int started = 0;
  for (int i = 0; i < count; ++i) {
    Op op;
    t += 1 + static_cast<des::SimTime>(rng.below(2'000'000));  // <= 2 ms apart
    op.at = t;
    op.cancel = started > 4 && rng.below(10) < 3;
    if (op.cancel) {
      op.target = static_cast<int>(rng.below(started));
    } else {
      op.src = static_cast<int>(rng.below(endpoints));
      op.dst = static_cast<int>(rng.below(endpoints));  // src==dst: loopback
      op.bytes = 1'000 + rng.below(600'000);
      op.cap = rng.below(4) == 0 ? 1e5 + 1e4 * static_cast<double>(rng.below(100)) : 0.0;
      ++started;
    }
    ops.push_back(op);
  }
  return ops;
}

// Three sites, per-endpoint access links, multi-link WAN routes: flows
// constantly merge and split connected components.
struct Harness {
  des::Simulator sim;
  Network net{sim};
  std::vector<EndpointId> eps;
  std::vector<FlowId> flows;               // issue order
  std::map<int, des::SimTime> completed;   // issue index -> completion time

  explicit Harness(Network::RebalanceMode mode) {
    net.set_rebalance_mode_for_test(mode);
    const SiteId a = net.add_site("a");
    const SiteId b = net.add_site("b");
    const SiteId c = net.add_site("c");
    const LinkId wan_ab =
        net.add_link("wan-ab", 100e6, des::from_seconds(0.010));
    const LinkId wan_bc = net.add_link("wan-bc", 60e6, des::from_seconds(0.015));
    auto attach = [&](SiteId site, const char* prefix, int n, double bw) {
      for (int i = 0; i < n; ++i) {
        std::string name = prefix;
        name += std::to_string(i);
        const EndpointId ep = net.add_endpoint(name, site);
        const LinkId access = net.add_link(name + "-nic",
                                           bw * (1.0 + 0.25 * i),
                                           des::from_seconds(0.0005));
        net.set_access_path(ep, {access});
        eps.push_back(ep);
      }
    };
    attach(a, "a", 4, 200e6);
    attach(b, "b", 3, 120e6);
    attach(c, "c", 2, 80e6);
    net.set_route_symmetric(a, b, {wan_ab});
    net.set_route_symmetric(b, c, {wan_bc});
    net.set_route_symmetric(a, c, {wan_ab, wan_bc});  // two-hop path
  }

  // Runs the op sequence; after each op appends a bit-pattern hash of the
  // most recent flows' rates (exact-equality signature, localizes a
  // divergence to the first differing op).
  void drive(const std::vector<Op>& ops, std::vector<std::uint64_t>& rate_sig) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      sim.schedule_at(ops[i].at, [this, &ops, &rate_sig, i] {
        const Op& op = ops[i];
        if (op.cancel) {
          net.cancel_flow(flows[op.target]);
        } else {
          const int idx = static_cast<int>(flows.size());
          flows.push_back(net.start_flow(
              eps[op.src], eps[op.dst], op.bytes, op.cap,
              [this, idx] { completed.emplace(idx, sim.now()); }));
        }
        std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
        const std::size_t begin = flows.size() > 64 ? flows.size() - 64 : 0;
        for (std::size_t k = begin; k < flows.size(); ++k) {
          const double rate = net.flow_rate(flows[k]);
          std::uint64_t bits;
          std::memcpy(&bits, &rate, sizeof(bits));
          h = (h ^ bits) * 1099511628211ull;
        }
        rate_sig.push_back(h);
      });
    }
    sim.run();
  }
};

TEST(ScopedRebalanceDifferential, MatchesGlobalReferenceOver10kOps) {
  const std::vector<Op> ops = make_ops(10'000, 9, 0x5eed2026'08'08ull);
  Harness scoped(Network::RebalanceMode::kScoped);
  Harness reference(Network::RebalanceMode::kGlobalReference);
  std::vector<std::uint64_t> sig_scoped, sig_reference;
  scoped.drive(ops, sig_scoped);
  reference.drive(ops, sig_reference);

  ASSERT_EQ(sig_scoped.size(), sig_reference.size());
  for (std::size_t i = 0; i < sig_scoped.size(); ++i) {
    ASSERT_EQ(sig_scoped[i], sig_reference[i]) << "rate divergence at op " << i;
  }
  EXPECT_EQ(scoped.completed, reference.completed);
  EXPECT_EQ(scoped.net.active_flows(), reference.net.active_flows());
  // Identical rates imply identical re-arm decisions, so even the event
  // traffic must match.
  EXPECT_EQ(scoped.sim.executed_events(), reference.sim.executed_events());

  // The sequence must have exercised real churn, or the comparison is vacuous.
  EXPECT_GT(scoped.completed.size(), 1'000u);
  EXPECT_EQ(scoped.sim.now(), reference.sim.now());
}

// --- unified re-arm floor --------------------------------------------------

// Rebalance used to arm sub-tick completions at +0 while the finish-time
// re-estimate floored at +1 tick; both now share the >=1 tick floor. A
// loopback flow (rate 1e18 => sub-tick duration) pins it: activation at t=0,
// completion exactly one tick later.
TEST(NetworkRearmFloor, LoopbackCompletesOneTickAfterActivation) {
  des::Simulator sim;
  Network net(sim);
  const SiteId s = net.add_site("s");
  const EndpointId e = net.add_endpoint("e", s);
  des::SimTime done = -1;
  net.start_flow(e, e, 1'000'000, 0.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 1);
}

TEST(NetworkRearmFloor, MidFlightRateChangeReestimatesExactly) {
  des::Simulator sim;
  Network net(sim);
  const SiteId s = net.add_site("s");
  const LinkId shared = net.add_link("shared", 1e6, des::from_seconds(0.001));
  const EndpointId x = net.add_endpoint("x", s);
  const EndpointId z = net.add_endpoint("z", s);
  const EndpointId y = net.add_endpoint("y", s);
  net.set_access_path(x, {shared});
  net.set_access_path(z, {shared});

  des::SimTime a_done = -1, b_done = -1;
  net.start_flow(x, y, 1'000'000, 0.0, [&] { a_done = sim.now(); });
  sim.schedule(des::from_seconds(0.499),
               [&] { net.start_flow(z, y, 500'000, 0.0, [&] { b_done = sim.now(); }); });
  sim.run();
  // A: active at 1ms, alone until 0.5s (499k bytes drained), then halves to
  // 5e5 B/s. B: active at 0.5s, 500k bytes at 5e5 B/s => done at 1.5s; A's
  // last 1k bytes then drain at full rate => 1.501s. Each re-arm rounds at
  // most once, so allow a few ns.
  EXPECT_NEAR(des::to_seconds(b_done), 1.5, 5e-9);
  EXPECT_NEAR(des::to_seconds(a_done), 1.501, 5e-9);
}

// --- component isolation ---------------------------------------------------

// Churn on a disjoint link set must not perturb another component's
// completion, to the exact tick: scoped rebalance neither recomputes nor
// re-arms flows it cannot affect.
TEST(ScopedRebalance, DisjointComponentChurnDoesNotPerturbCompletion) {
  auto run_measured = [](bool with_churn) {
    des::Simulator sim;
    Network net(sim);
    const SiteId s = net.add_site("s");
    const LinkId quiet = net.add_link("quiet", 1e6, des::from_seconds(0.002));
    const LinkId busy = net.add_link("busy", 5e6, des::from_seconds(0.0001));
    const EndpointId q1 = net.add_endpoint("q1", s);
    const EndpointId q2 = net.add_endpoint("q2", s);
    const EndpointId b1 = net.add_endpoint("b1", s);
    const EndpointId b2 = net.add_endpoint("b2", s);
    net.set_access_path(q1, {quiet});
    net.set_access_path(b1, {busy});

    des::SimTime done = -1;
    net.start_flow(q1, q2, 3'000'000, 0.0, [&] { done = sim.now(); });
    if (with_churn) {
      for (int i = 0; i < 100; ++i) {
        sim.schedule(des::from_seconds(0.01 * i), [&net, b1, b2] {
          net.start_flow(b1, b2, 50'000, 0.0, nullptr);
        });
      }
    }
    sim.run();
    return done;
  };
  EXPECT_EQ(run_measured(false), run_measured(true));
}

// --- flow slab: stale ids and start order -----------------------------------

constexpr FlowId kSlotMask = 0xFFFFFFFFu;

// A finished flow's id stays unknown after its slot is reused: every call
// through it is a no-op or zero, and the flow now living in that slot keeps
// its rate, its remaining bytes and its completion time.
TEST(FlowSlab, StaleIdAfterSlotReuseIsUnknown) {
  auto run = [](bool poke_stale) {
    des::Simulator sim;
    Network net(sim);
    const SiteId s = net.add_site("s");
    const LinkId link = net.add_link("link", 1e6, des::from_seconds(0.001));
    const EndpointId x = net.add_endpoint("x", s);
    const EndpointId y = net.add_endpoint("y", s);
    net.set_access_path(x, {link});

    const FlowId first = net.start_flow(x, y, 100'000, 0.0, nullptr);
    sim.run();  // first finishes; its slot returns to the free list
    des::SimTime done = -1;
    const FlowId second = net.start_flow(x, y, 1'000'000, 0.0, [&] { done = sim.now(); });
    EXPECT_EQ(second & kSlotMask, first & kSlotMask);  // the slot was reused
    EXPECT_NE(second, first);
    sim.run_until(sim.now() + des::from_seconds(0.25));
    const double rate = net.flow_rate(second);
    const double remaining = net.flow_remaining(second);
    EXPECT_EQ(rate, 1e6);
    if (poke_stale) {
      EXPECT_EQ(net.flow_rate(first), 0.0);
      EXPECT_EQ(net.flow_remaining(first), 0.0);
      EXPECT_EQ(net.cancel_flow(first), 0.0);
      EXPECT_EQ(net.cancel_flow(first), 0.0);
      EXPECT_EQ(net.flow_rate(second), rate);
      EXPECT_EQ(net.flow_remaining(second), remaining);
      EXPECT_EQ(net.active_flows(), 1u);
    }
    sim.run();
    EXPECT_GT(done, 0);
    return done;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(FlowSlab, CancelledIdStaysUnknownAfterSlotReuse) {
  des::Simulator sim;
  Network net(sim);
  const SiteId s = net.add_site("s");
  const LinkId link = net.add_link("link", 1e6, des::from_seconds(0.001));
  const EndpointId x = net.add_endpoint("x", s);
  const EndpointId y = net.add_endpoint("y", s);
  net.set_access_path(x, {link});
  const FlowId victim = net.start_flow(x, y, 500'000, 0.0, nullptr);
  EXPECT_EQ(net.cancel_flow(victim), 500'000.0);  // latency phase: nothing moved
  bool done = false;
  const FlowId next = net.start_flow(x, y, 500'000, 0.0, [&] { done = true; });
  EXPECT_EQ(next & kSlotMask, victim & kSlotMask);
  EXPECT_EQ(net.cancel_flow(victim), 0.0);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), des::from_seconds(0.501));
}

// cancel_flows_with_endpoint tears flows down in start order, whatever slots
// they occupy. Two victims each share a link with a survivor; cancelling a
// victim re-arms its survivor, and the survivors end on the same tick, so
// the re-arm order (and therefore the teardown order) decides which
// completion fires first.
TEST(FlowSlab, EndpointTeardownFollowsStartOrder) {
  des::Simulator sim;
  Network net(sim);
  const SiteId s = net.add_site("s");
  const LinkId l1 = net.add_link("l1", 1e6, des::from_seconds(0.001));
  const LinkId l2 = net.add_link("l2", 1e6, des::from_seconds(0.001));
  const EndpointId a1 = net.add_endpoint("a1", s);
  const EndpointId a2 = net.add_endpoint("a2", s);
  const EndpointId doomed = net.add_endpoint("doomed", s);
  const EndpointId sink = net.add_endpoint("sink", s);
  net.set_access_path(a1, {l1});
  net.set_access_path(a2, {l2});

  // Free slots 0 and 1 so that the first victim lands in the higher slot.
  const FlowId d0 = net.start_flow(a1, sink, 1, 0.0, nullptr);
  const FlowId d1 = net.start_flow(a1, sink, 1, 0.0, nullptr);
  net.cancel_flow(d0);
  net.cancel_flow(d1);
  const FlowId v1 = net.start_flow(a1, doomed, 1'000'000, 0.0, nullptr);
  const FlowId v2 = net.start_flow(a2, doomed, 1'000'000, 0.0, nullptr);
  ASSERT_GT(v1 & kSlotMask, v2 & kSlotMask);  // start order != slot order

  std::vector<int> order;
  std::vector<des::SimTime> at;
  net.start_flow(a1, sink, 1'000'000, 0.0, [&] {
    order.push_back(1);
    at.push_back(sim.now());
  });
  net.start_flow(a2, sink, 1'000'000, 0.0, [&] {
    order.push_back(2);
    at.push_back(sim.now());
  });
  sim.schedule(des::from_seconds(0.5), [&] {
    EXPECT_EQ(net.cancel_flows_with_endpoint(doomed), 2u);
    EXPECT_EQ(net.flow_rate(v1), 0.0);
    EXPECT_EQ(net.flow_rate(v2), 0.0);
  });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(at[0], at[1]);  // a genuine tie, broken by re-arm order
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- same-nanosecond completions ------------------------------------------

// k equal flows that drain in the same nanosecond complete in start order.
// `shared`: all cross one 1 MB/s link, so each completion raises the rates
// of the rest and re-arms them to fire at once. Otherwise each has its own
// link and nothing re-arms. A zero-delay event scheduled from the first
// completion callback lands behind whatever is already due at that instant.
std::vector<int> same_instant_completions(bool shared, des::SimTime* finished_at) {
  constexpr int kFlows = 4;
  des::Simulator sim;
  Network net(sim);
  const SiteId s = net.add_site("s");
  const EndpointId sink = net.add_endpoint("sink", s);
  const LinkId one = net.add_link("shared", 1e6, des::from_seconds(0.001));
  std::vector<int> order;
  std::vector<des::SimTime> at;
  for (int i = 0; i < kFlows; ++i) {
    const EndpointId src = net.add_endpoint("src" + std::to_string(i), s);
    const LinkId own = shared ? one : net.add_link("own" + std::to_string(i), 25e4,
                                                   des::from_seconds(0.001));
    net.set_access_path(src, {own});
    // 250 kB at 250 kB/s either way: every flow drains exactly 1 s after
    // activation.
    net.start_flow(src, sink, 250'000, 0.0, [&, i] {
      order.push_back(i);
      at.push_back(sim.now());
      if (i == 0) sim.schedule(0, [&] { order.push_back(-1); });
    });
  }
  sim.run();
  EXPECT_EQ(order.size(), kFlows + 1u);
  for (des::SimTime t : at) EXPECT_EQ(t, des::from_seconds(1.001));
  *finished_at = sim.now();
  return order;
}

TEST(SameInstantCompletion, IndependentFlowsAllRunBeforeAZeroDelayEvent) {
  // The other completions were armed before the clock reached this instant,
  // so they precede an event scheduled at it.
  des::SimTime end = -1;
  EXPECT_EQ(same_instant_completions(false, &end), (std::vector<int>{0, 1, 2, 3, -1}));
  EXPECT_EQ(end, des::from_seconds(1.001));
}

TEST(SameInstantCompletion, SharedBottleneckReArmsInStartOrder) {
  // Flow 0's completion re-arms 1, 2, 3 to now, ahead of the zero-delay
  // event its callback schedules. Flow 1's completion then re-arms 2 and 3
  // again, which moves them behind that event.
  des::SimTime end = -1;
  EXPECT_EQ(same_instant_completions(true, &end), (std::vector<int>{0, 1, -1, 2, 3}));
  EXPECT_EQ(end, des::from_seconds(1.001));
}

}  // namespace
}  // namespace cloudburst::net
