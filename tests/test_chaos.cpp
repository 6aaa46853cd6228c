// Chaos-soak harness (sim/chaos_soak.h): the full fixed-seed soak must come
// back with zero findings and zero split-brains, a single campaign must
// replay byte-identically (streamed wtr trace and plan JSON both), also
// when its plan JSON is given back to replay(), every generated FaultPlan
// must round-trip through the JSON loader it claims to be replayable with,
// a canned plan must replay through the same checks, and the live trace
// oracle must stay sound at 8x8.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/chaos_soak.h"
#include "sim/fault_plan.h"

namespace wsn {
namespace {

/// Every segment file in `dir`, concatenated in name order: a streamed
/// campaign trace as bytes.
std::string segment_bytes(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::string bytes;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    bytes.append(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  return bytes;
}

/// Campaign `k` of `cfg`, run twice and then replayed from the first run's
/// plan JSON, each run streaming its trace to its own directory
/// (test-unique: ctest runs gtest cases as parallel processes).
struct Replay {
  sim::ChaosCampaignResult first, second, third;
  std::string first_trace, second_trace, third_trace;
};

Replay run_twice(sim::ChaosSoakConfig cfg, std::size_t k) {
  const std::string stem =
      testing::TempDir() +
      testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string campaign = "/campaign_" + std::to_string(k);
  Replay r;
  cfg.trace_out_dir = stem + ".first";
  r.first = sim::ChaosSoak(cfg).run_campaign(k);
  r.first_trace = segment_bytes(cfg.trace_out_dir + campaign);
  std::filesystem::remove_all(cfg.trace_out_dir);
  cfg.trace_out_dir = stem + ".second";
  r.second = sim::ChaosSoak(cfg).run_campaign(k);
  r.second_trace = segment_bytes(cfg.trace_out_dir + campaign);
  std::filesystem::remove_all(cfg.trace_out_dir);
  cfg.trace_out_dir = stem + ".third";
  r.third = sim::ChaosSoak(cfg).replay(
      k, sim::FaultPlan::from_json(r.first.plan_json));
  r.third_trace = segment_bytes(cfg.trace_out_dir + campaign);
  std::filesystem::remove_all(cfg.trace_out_dir);
  return r;
}

TEST(ChaosSoak, FullSoakZeroFindings) {
  const sim::ChaosSoakConfig cfg;  // fixed seed 20260805
  const std::size_t campaigns = 25;
  const sim::ChaosSoak soak(cfg);
  std::size_t failed = 0;
  for (std::size_t k = 0; k < campaigns; ++k) {
    const sim::ChaosCampaignResult res = soak.run_campaign(k);
    EXPECT_EQ(res.index, k);
    if (!res.ok()) ++failed;
    EXPECT_EQ(res.split_brains, 0u)
        << "campaign " << res.index << " (seed " << res.seed << ")";
    for (const std::string& f : res.findings) {
      ADD_FAILURE() << "campaign " << res.index << " (seed " << res.seed
                    << "): " << f << "\nplan: " << res.plan_json;
    }
  }
  EXPECT_EQ(failed, 0u);
}

TEST(ChaosSoak, SingleCampaignReplaysByteIdentically) {
  const Replay r = run_twice(sim::ChaosSoakConfig{}, 3);
  ASSERT_FALSE(r.first_trace.empty());
  EXPECT_EQ(r.first.seed, r.second.seed);
  EXPECT_EQ(r.first.plan_json, r.second.plan_json);
  EXPECT_EQ(r.first.events, r.second.events);
  // The kernel totals wsn-chaos --profile sums are reported and replay too.
  EXPECT_GT(r.first.sim_events, 0u);
  EXPECT_GT(r.first.sim_time, 0.0);
  EXPECT_EQ(r.first.sim_events, r.second.sim_events);
  EXPECT_EQ(r.first.sim_time, r.second.sim_time);
  EXPECT_EQ(r.first_trace, r.second_trace)
      << "same seed + same plan must produce a byte-identical trace";
  // Replaying the plan JSON is the same campaign.
  EXPECT_EQ(r.first.seed, r.third.seed);
  EXPECT_EQ(r.first.plan_json, r.third.plan_json);
  EXPECT_EQ(r.first.events, r.third.events);
  EXPECT_EQ(r.first.sim_events, r.third.sim_events);
  EXPECT_EQ(r.first.sim_time, r.third.sim_time);
  EXPECT_EQ(r.first_trace, r.third_trace)
      << "a replayed plan must produce the generated campaign's trace";
}

TEST(ChaosSoak, GeneratedPlansRoundTripThroughJson) {
  const sim::ChaosSoak soak{sim::ChaosSoakConfig{}};
  for (std::size_t k = 0; k < 5; ++k) {
    const auto res = soak.run_campaign(k);
    ASSERT_FALSE(res.plan_json.empty());
    sim::FaultPlan parsed;
    ASSERT_NO_THROW(parsed = sim::FaultPlan::from_json(res.plan_json))
        << "campaign " << k << " plan: " << res.plan_json;
    // Re-serializing the parsed plan reproduces the artifact exactly, so a
    // saved campaign_<k>.plan.json replays the run bit-for-bit.
    EXPECT_EQ(parsed.to_json(), res.plan_json);
  }
}

TEST(ChaosSoak, DepletionSoakZeroFindings) {
  // Energy-exhaustion mode: each campaign gives a few bound leaders finite
  // batteries on top of the generated fault plan. The oracle additionally
  // demands clean depletion invariants, a planned handoff strictly before
  // every budgeted leader's battery death, and zero split-brains.
  sim::ChaosSoakConfig cfg;
  cfg.depletion = true;
  const std::size_t campaigns = 12;  // acceptance floor is >= 10
  const sim::ChaosSoak soak(cfg);
  std::size_t failed = 0;
  std::size_t depletions = 0;
  std::size_t planned = 0;
  for (std::size_t k = 0; k < campaigns; ++k) {
    const sim::ChaosCampaignResult res = soak.run_campaign(k);
    EXPECT_EQ(res.index, k);
    if (!res.ok()) ++failed;
    depletions += res.depletions;
    planned += res.planned_handoffs;
    EXPECT_EQ(res.split_brains, 0u)
        << "campaign " << res.index << " (seed " << res.seed << ")";
    for (const std::string& f : res.findings) {
      ADD_FAILURE() << "campaign " << res.index << " (seed " << res.seed
                    << "): " << f << "\nplan: " << res.plan_json;
    }
  }
  EXPECT_EQ(failed, 0u);
  // The mode must actually exercise the fault model: batteries ran out and
  // the retiring leaders handed off first.
  EXPECT_GT(depletions, 0u);
  EXPECT_GT(planned, 0u);
}

TEST(ChaosSoak, DepletionCampaignReplaysByteIdentically) {
  sim::ChaosSoakConfig cfg;
  cfg.depletion = true;
  const Replay r = run_twice(cfg, 1);
  ASSERT_FALSE(r.first_trace.empty());
  EXPECT_EQ(r.first.plan_json, r.second.plan_json);
  EXPECT_EQ(r.first.depletions, r.second.depletions);
  EXPECT_EQ(r.first_trace, r.second_trace)
      << "battery exhaustion must stay inside the deterministic event loop";
  EXPECT_EQ(r.first.plan_json, r.third.plan_json);
  EXPECT_EQ(r.first.depletions, r.third.depletions);
  EXPECT_EQ(r.first_trace, r.third_trace)
      << "a replayed depletion plan must reproduce the campaign";
}

TEST(ChaosSoak, DetectionLatencyWithinBound) {
  const sim::ChaosSoak soak{sim::ChaosSoakConfig{}};
  const double bound = soak.detection_bound();
  std::size_t crashes = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    const auto res = soak.run_campaign(k);
    crashes += res.leader_crashes;
    if (res.leader_crashes > 0) {
      EXPECT_GE(res.max_detection_latency, 0.0);
      EXPECT_LE(res.max_detection_latency, bound)
          << "campaign " << k << " (seed " << res.seed << ")";
    }
  }
  EXPECT_GT(crashes, 0u)
      << "the first 8 campaigns should include at least one leader crash";
}

// ---- Adversarial state-corruption soak ----------------------------------

TEST(ChaosSoak, CorruptionSoakReconvergesAcrossTopologies) {
  // >= 12 corruption campaigns spanning grid, ring, and mesh: every plan
  // carries only state_corruption strikes, the detector runs with audits
  // on, and the oracle (the trace's self-stabilization invariant +
  // end-state agreement + zero split-brain + the analytic re-convergence
  // bound) must hold on all of them.
  const net::TopologyKind topologies[] = {net::TopologyKind::kGrid,
                                          net::TopologyKind::kRing,
                                          net::TopologyKind::kMesh};
  std::size_t corruptions = 0;
  for (const net::TopologyKind topo : topologies) {
    sim::ChaosSoakConfig cfg;
    cfg.corruption = true;
    cfg.topology = topo;
    const sim::ChaosSoak soak(cfg);
    const double bound = 2.5 * cfg.detector.lease_duration +
                         1.5 * cfg.detector.election_timeout +
                         sim::kSoakAuditPeriod + 10.0;
    for (std::size_t k = 0; k < 4; ++k) {
      const auto res = soak.run_campaign(k);
      EXPECT_EQ(res.topology, net::to_string(topo));
      EXPECT_GT(res.corruptions, 0u);
      corruptions += res.corruptions;
      EXPECT_EQ(res.split_brains, 0u);
      EXPECT_LE(res.max_reconverge_latency, bound)
          << res.topology << " campaign " << k << " (seed " << res.seed
          << ")";
      for (const std::string& f : res.findings) {
        ADD_FAILURE() << res.topology << " campaign " << k << " (seed "
                      << res.seed << "): " << f << "\nplan: " << res.plan_json;
      }
    }
  }
  EXPECT_GE(corruptions, 12u);
}

TEST(ChaosSoak, CorruptionCampaignReplaysByteIdentically) {
  sim::ChaosSoakConfig cfg;
  cfg.corruption = true;
  cfg.topology = net::TopologyKind::kRing;
  const Replay r = run_twice(cfg, 4);
  ASSERT_FALSE(r.first_trace.empty());
  EXPECT_EQ(r.first.plan_json, r.second.plan_json);
  EXPECT_EQ(r.first.corruptions, r.second.corruptions);
  EXPECT_EQ(r.first.max_reconverge_latency, r.second.max_reconverge_latency);
  EXPECT_EQ(r.first_trace, r.second_trace)
      << "corruption campaigns must replay byte-for-byte";
  EXPECT_EQ(r.first.plan_json, r.third.plan_json);
  EXPECT_EQ(r.first.corruptions, r.third.corruptions);
  EXPECT_EQ(r.first.max_reconverge_latency, r.third.max_reconverge_latency);
  EXPECT_EQ(r.first_trace, r.third_trace)
      << "a replayed corruption plan must reproduce the campaign";
}

TEST(ChaosSoak, CorruptionPlansCarryOnlyCorruptionEvents) {
  sim::ChaosSoakConfig cfg;
  cfg.corruption = true;
  cfg.topology = net::TopologyKind::kMesh;
  const sim::ChaosSoak soak(cfg);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto res = soak.run_campaign(k);
    const sim::FaultPlan plan = sim::FaultPlan::from_json(res.plan_json);
    ASSERT_FALSE(plan.events.empty());
    for (const sim::FaultEvent& ev : plan.events) {
      EXPECT_EQ(ev.kind, sim::FaultKind::kStateCorruption);
      EXPECT_GE(ev.at, 0.0);
    }
    EXPECT_EQ(plan.events.size(), res.corruptions);
  }
}

// ---- Self-healing membership soak ---------------------------------------

TEST(ChaosSoak, MembershipSoakHealsAcrossTopologies) {
  // >= 12 membership campaigns spanning grid, ring, and mesh: each plan
  // mixes membership-target corruption strikes (defected beliefs,
  // scrambled rosters) with whole-cell vacancy scenarios. The oracle
  // additionally demands the trace's membership invariants, zero dark
  // cells with beliefs and rosters inverse-consistent at settle, one
  // adoption per planned
  // vacancy, a proxy re-bind of every vacated cell, and both latencies
  // inside the extended stabilization bound.
  const net::TopologyKind topologies[] = {net::TopologyKind::kGrid,
                                          net::TopologyKind::kRing,
                                          net::TopologyKind::kMesh};
  std::size_t adoptions = 0;
  std::size_t binds = 0;
  for (const net::TopologyKind topo : topologies) {
    sim::ChaosSoakConfig cfg;
    cfg.membership = true;
    cfg.topology = topo;
    const sim::ChaosSoak soak(cfg);
    const double bound = 2.5 * cfg.detector.lease_duration +
                         1.5 * cfg.detector.election_timeout +
                         2.0 * sim::kSoakAuditPeriod + 10.0;
    for (std::size_t k = 0; k < 4; ++k) {
      const auto res = soak.run_campaign(k);
      EXPECT_EQ(res.topology, net::to_string(topo));
      EXPECT_GT(res.corruptions, 0u);
      EXPECT_EQ(res.split_brains, 0u);
      adoptions += res.adoptions;
      binds += res.adopt_binds;
      EXPECT_LE(res.max_adoption_latency, bound)
          << res.topology << " campaign " << k << " (seed " << res.seed
          << ")";
      EXPECT_LE(res.max_reconverge_latency, bound)
          << res.topology << " campaign " << k << " (seed " << res.seed
          << ")";
      for (const std::string& f : res.findings) {
        ADD_FAILURE() << res.topology << " campaign " << k << " (seed "
                      << res.seed << "): " << f << "\nplan: " << res.plan_json;
      }
    }
  }
  // The mode must actually exercise the fault model: orphans were adopted
  // and every vacated cell was re-bound to a proxy leader.
  EXPECT_GE(adoptions, 10u);
  EXPECT_GE(binds, adoptions);
}

TEST(ChaosSoak, MembershipCampaignReplaysByteIdentically) {
  sim::ChaosSoakConfig cfg;
  cfg.membership = true;
  cfg.topology = net::TopologyKind::kMesh;
  const Replay r = run_twice(cfg, 2);
  ASSERT_FALSE(r.first_trace.empty());
  EXPECT_EQ(r.first.plan_json, r.second.plan_json);
  EXPECT_EQ(r.first.corruptions, r.second.corruptions);
  EXPECT_EQ(r.first.adoptions, r.second.adoptions);
  EXPECT_EQ(r.first.adopt_binds, r.second.adopt_binds);
  EXPECT_EQ(r.first.max_adoption_latency, r.second.max_adoption_latency);
  EXPECT_EQ(r.first_trace, r.second_trace)
      << "membership campaigns must replay byte-for-byte";
  EXPECT_EQ(r.first.plan_json, r.third.plan_json);
  EXPECT_EQ(r.first.corruptions, r.third.corruptions);
  EXPECT_EQ(r.first.adoptions, r.third.adoptions);
  EXPECT_EQ(r.first.adopt_binds, r.third.adopt_binds);
  EXPECT_EQ(r.first.max_adoption_latency, r.third.max_adoption_latency);
  EXPECT_EQ(r.first_trace, r.third_trace)
      << "a replayed membership plan must reproduce the campaign";
}

TEST(ChaosSoak, MembershipPlansMixStrikesAndVacancies) {
  sim::ChaosSoakConfig cfg;
  cfg.membership = true;
  const sim::ChaosSoak soak(cfg);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto res = soak.run_campaign(k);
    const sim::FaultPlan plan = sim::FaultPlan::from_json(res.plan_json);
    ASSERT_FALSE(plan.events.empty());
    std::size_t strikes = 0;
    std::size_t crashes = 0;
    for (const sim::FaultEvent& ev : plan.events) {
      if (ev.kind == sim::FaultKind::kStateCorruption) {
        EXPECT_EQ(ev.target, sim::CorruptionTarget::kMembership);
        ++strikes;
      } else {
        // Vacancy scenarios are expressed as simultaneous member crashes.
        EXPECT_EQ(ev.kind, sim::FaultKind::kCrash);
        ++crashes;
      }
    }
    EXPECT_EQ(strikes, res.corruptions);
    EXPECT_GT(crashes, 0u) << "campaign " << k
                           << " staged no vacancy: " << res.plan_json;
  }
}

// ---- Given plans ----------------------------------------------------------

TEST(ChaosSoak, RegionOutagePlanReplaysAndRecovers) {
  // campaigns/region_outage.json on an 8x8, 200-node stack with stack seed
  // 1: a 3x3-cell outage from t=5 to t=175 spans round 2 (rounds start
  // every 125 units), a cell's leader crashes, and a loss burst follows.
  // The crash is tracked from the plan, and the first round after the
  // outage reaches every cell.
  sim::ChaosSoakConfig cfg;
  cfg.grid_side = 8;
  cfg.node_count = 200;
  cfg.seed = 1;
  cfg.rounds = 3;
  const sim::FaultPlan plan = sim::FaultPlan::from_json(R"({"events": [
  {"at": 5.0, "kind": "region_outage",
   "row0": 5, "col0": 5, "row1": 7, "col1": 7,
   "duration": 170.0},
  {"at": 5.0, "kind": "crash", "cell": {"row": 2, "col": 2}},
  {"at": 215.0, "kind": "loss_burst", "loss": 0.03, "duration": 60.0}
]})");
  const sim::ChaosCampaignResult res = sim::ChaosSoak(cfg).replay(0, plan);
  for (const std::string& f : res.findings) ADD_FAILURE() << f;
  EXPECT_EQ(res.leader_crashes, 1u);
  EXPECT_EQ(res.claims, 1u);
  ASSERT_EQ(res.rounds.size(), 3u);
  EXPECT_EQ(res.rounds[2].expected.size(), 64u);
  EXPECT_TRUE(res.rounds[2].complete())
      << res.rounds[2].contributors.size() << "/64 contributors";
}

TEST(ChaosSoak, PlanTargetOutsideTheStackThrowsBeforeRunning) {
  const sim::FaultPlan plan = sim::FaultPlan::from_json(R"({"events": [
  {"at": 5, "kind": "crash", "node": 99999}
]})");
  try {
    sim::ChaosSoak(sim::ChaosSoakConfig{}).replay(0, plan);
    ADD_FAILURE() << "a plan naming node 99999 was armed";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("fault plan line 2", 0), 0u)
        << e.what();
  }
}

// ---- The live oracle above the CI size ----------------------------------

TEST(ChaosSoak, EightByEightCampaignPassesFullOracle) {
  // 256 nodes: more trace events than a fixed in-memory capture of 2^19
  // would hold, so only a live oracle checks this campaign whole.
  sim::ChaosSoakConfig cfg;
  cfg.grid_side = 8;
  cfg.node_count = 256;
  const auto res = sim::ChaosSoak(cfg).run_campaign(0);
  EXPECT_GT(res.events, std::size_t{1} << 19);
  EXPECT_EQ(res.split_brains, 0u);
  for (const std::string& f : res.findings) {
    ADD_FAILURE() << f << "\nplan: " << res.plan_json;
  }
}

TEST(ChaosSoak, EightByEightMembershipCampaignReconverges) {
  sim::ChaosSoakConfig cfg;
  cfg.grid_side = 8;
  cfg.node_count = 256;
  cfg.membership = true;
  const auto res = sim::ChaosSoak(cfg).run_campaign(0);
  EXPECT_GT(res.corruptions, 0u);
  EXPECT_GT(res.max_reconverge_latency, 0.0)
      << "the fd.corrupt strikes and their churn reached the oracle";
  EXPECT_EQ(res.split_brains, 0u);
  for (const std::string& f : res.findings) {
    ADD_FAILURE() << f << "\nplan: " << res.plan_json;
  }
}

}  // namespace
}  // namespace wsn
