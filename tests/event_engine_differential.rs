//! Differential test: the event-driven [`noctest_noc::Network`] must be
//! bit-for-bit equivalent to the full-scan
//! [`noctest_noc::ReferenceNetwork`] — identical `DeliveredPacket` records
//! (ids, tags, injection/head/tail cycles, hops, flit counts, and order),
//! identical energy charges, identical per-link flit counters and
//! identical [`noctest_noc::NetworkStats`] apart from `idle_cycles` — on
//! seeded random traffic over random mesh shapes, routing algorithms,
//! latencies and buffer depths, with scheduled releases and degraded
//! meshes (seeded fault recipes routed by their detour tables) mixed in.
//! This is the live engine's only oracle wall on raw traffic.

use noctest_faults::{DetourOracle, FaultRecipe, FaultSet};
use noctest_noc::{
    DeliveredPacket, Network, NetworkStats, NocConfig, NocError, NodeId, Packet, PowerParams,
    ReferenceNetwork, RouteTable, RoutingKind,
};
use noctest_testkit::Rng;

/// A seeded random scenario: a config, an optional fault set with its
/// detour table, and packets, each injected now or released at a cycle.
struct Scenario {
    config: NocConfig,
    faults: Option<(FaultSet, RouteTable)>,
    packets: Vec<(Packet, Option<u64>)>,
}

impl Scenario {
    /// A drain budget far beyond any contention this traffic can cause,
    /// yet small enough that the full-scan reference steps through a
    /// wormhole deadlock (possible under detour tables, which are not
    /// deadlock-free) in well under a second.
    fn budget(&self) -> u64 {
        let flits: u64 = self
            .packets
            .iter()
            .map(|(p, _)| u64::from(p.total_flits()))
            .sum();
        let last_release = self.packets.iter().filter_map(|&(_, r)| r).max();
        last_release.unwrap_or(0) + 1_000 + 20 * flits * u64::from(self.config.flow_latency())
    }
}

fn scenario(rng: &mut Rng) -> Scenario {
    let width = rng.range_u16(2, 5);
    let height = rng.range_u16(1, 5);
    let routing = *rng.pick(&[RoutingKind::Xy, RoutingKind::Yx, RoutingKind::WestFirst]);
    let config = NocConfig::builder(width, height)
        .routing(routing)
        .routing_latency(rng.range_u32(0, 6))
        .flow_latency(rng.range_u32(1, 4))
        .buffer_depth(rng.range_u32(1, 6))
        .power(PowerParams {
            energy_per_flit_hop: 1.0,
            energy_per_route: 2.0,
            // Non-zero so leakage accounting is exercised too.
            leakage_per_router_cycle: 0.125,
        })
        .build()
        .expect("valid random config");

    // Half the scenarios run on a degraded mesh. Only alive endpoint
    // pairs the detour oracle can reach carry traffic, as in replay.
    let mesh = config.mesh().clone();
    let faults = rng.flip().then(|| {
        let recipe = *rng.pick(&[
            FaultRecipe::UniformLinks { percent: 10 },
            FaultRecipe::UniformLinks { percent: 25 },
            FaultRecipe::RouterCluster { routers: 1 },
            FaultRecipe::RouterCluster { routers: 2 },
            FaultRecipe::ColumnCut,
        ]);
        let set = recipe.generate(&mesh, rng.next_u64());
        let oracle = DetourOracle::new(&mesh, &set);
        (set, oracle)
    });
    // Releases span from "all now" to gaps far wider than a packet's
    // transit, so quiet spans between sessions occur.
    let horizon = *rng.pick(&[0u64, 300, 20_000]);
    let nodes = mesh.len() as u64;
    let mut packets = Vec::new();
    for i in 0..rng.range_usize(1, 60) {
        let src = NodeId::new(rng.below(nodes) as u32);
        let dst = NodeId::new(rng.below(nodes) as u32);
        let packet = Packet::new(src, dst, rng.range_u32(1, 12)).with_tag(i as u64);
        let release = rng.flip().then(|| rng.range_u64(0, horizon));
        if faults
            .as_ref()
            .is_none_or(|(_, oracle)| oracle.reachable(src, dst))
        {
            packets.push((packet, release));
        }
    }
    Scenario {
        config,
        faults: faults.map(|(set, oracle)| (set, oracle.route_table())),
        packets,
    }
}

/// Both engines built from one scenario, faults applied and traffic
/// queued.
fn build(s: &Scenario) -> (Network, ReferenceNetwork) {
    let mut event = Network::new(s.config.clone()).unwrap();
    let mut reference = ReferenceNetwork::new(s.config.clone()).unwrap();
    if let Some((set, table)) = &s.faults {
        for router in set.routers() {
            event.kill_router(router).unwrap();
            reference.kill_router(router).unwrap();
        }
        for link in set.links() {
            event.kill_link(link).unwrap();
            reference.kill_link(link).unwrap();
        }
        event.set_route_table(table.clone()).unwrap();
        reference.set_route_table(table.clone()).unwrap();
    }
    for (p, release) in &s.packets {
        if let Some(at) = *release {
            event.inject_at(p.clone(), at).unwrap();
            reference.inject_at(p.clone(), at).unwrap();
        } else {
            event.inject(p.clone()).unwrap();
            reference.inject(p.clone()).unwrap();
        }
    }
    (event, reference)
}

/// Runs both engines under one budget and asserts identical outcomes,
/// energy ledgers, link counters, clocks and statistics; returns the
/// event engine's result.
fn run_both(
    s: &Scenario,
    budget: u64,
    context: &str,
) -> (Network, Result<Vec<DeliveredPacket>, NocError>) {
    let (mut event, mut reference) = build(s);
    let from_event = event.run_until_idle(budget);
    let from_reference = reference.run_until_idle(budget);
    assert_eq!(from_event, from_reference, "{context}: deliveries");
    assert_eq!(event.energy(), reference.energy(), "{context}: energy");
    assert_eq!(
        event.link_flits(),
        *reference.link_flits(),
        "{context}: links"
    );
    assert_eq!(event.now(), reference.now(), "{context}: clock");
    // `idle_cycles` is the one field allowed to differ. The event engine
    // jumps every span with no flit buffered, paced injections pending or
    // not; the reference jumps only when its injection queues are empty
    // too and steps the rest. Three of the 48 seeds differ: on seed
    // 8049401663548809241 the event engine counts 174 idle cycles and the
    // reference 155, with every other field equal.
    let masked = |stats: &NetworkStats| NetworkStats {
        idle_cycles: 0,
        ..stats.clone()
    };
    assert_eq!(
        masked(event.stats()),
        masked(reference.stats()),
        "{context}: stats"
    );
    (event, from_event)
}

#[test]
fn event_engine_matches_reference_on_random_traffic() {
    let (mut degraded, mut scheduled, mut drained) = (0, 0, 0);
    for (index, seed) in noctest_testkit::seeds(48).enumerate() {
        let mut rng = Rng::new(seed);
        let s = scenario(&mut rng);
        degraded += usize::from(s.faults.is_some());
        scheduled += usize::from(s.packets.iter().any(|(_, r)| r.is_some()));
        let (event, result) = run_both(&s, s.budget(), &format!("seed {seed}"));
        match result {
            Ok(_) => drained += 1,
            // A detour-table deadlock jams both engines identically.
            Err(NocError::Timeout { .. }) => assert!(s.faults.is_some(), "seed {seed} jammed"),
            Err(e) => panic!("seed {seed}: {e}"),
        }

        // One tight-budget case: cut the first scenario off halfway
        // through its drain; both engines must time out identically.
        if index == 0 {
            let tight = event.now() / 2;
            let (_, result) = run_both(&s, tight, &format!("seed {seed}, tight budget"));
            assert!(
                matches!(result, Err(NocError::Timeout { budget, .. }) if budget == tight),
                "seed {seed}: tight budget {tight} must time out, got {result:?}"
            );
        }
    }
    assert!(drained >= 40, "only {drained} scenarios drained");
    assert!(degraded >= 12, "only {degraded} degraded scenarios");
    assert!(scheduled >= 12, "only {scheduled} scenarios with releases");
}

#[test]
fn event_engine_matches_reference_step_by_step() {
    // Lockstep stepping (no fast-forward possible from `step`): after every
    // cycle the observable outputs agree, including mid-run.
    for seed in noctest_testkit::seeds(8) {
        let mut rng = Rng::new(seed);
        let (mut event, mut reference) = build(&scenario(&mut rng));
        for cycle in 0..2_000 {
            event.step();
            reference.step();
            assert_eq!(
                event.delivered(),
                reference.delivered(),
                "seed {seed}: delivered sets diverge at cycle {cycle}"
            );
            assert_eq!(
                event.in_flight(),
                reference.in_flight(),
                "seed {seed}: in-flight counts diverge at cycle {cycle}"
            );
        }
    }
}
