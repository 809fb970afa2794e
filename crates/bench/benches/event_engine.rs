//! Event-driven vs. cycle-stepped simulation throughput.
//!
//! The event-driven `Network` and the full-scan cycle-stepped
//! `ReferenceNetwork` are semantically bit-identical (the
//! `event_engine_differential` test proves it); this bench measures what
//! the worklist core buys:
//!
//! * **sparse** traffic — a single test-stream-like flow crossing an
//!   otherwise idle mesh, the planner's replay regime, where idle routers
//!   dominate the full scan; expected speedup grows with mesh size and
//!   must be at least 2x on 8x8;
//! * **saturated** traffic — all-pairs streams keeping every router busy,
//!   where the worklist covers the whole mesh and the engines should be
//!   within noise of each other;
//! * **scheduled** injection — sessions released far apart via
//!   `inject_at`, where the event core additionally fast-forwards the
//!   idle spans (no reference counterpart: the case times the event
//!   core's fast-forward alone).

use noctest_bench::harness::Runner;
use noctest_noc::{Network, NocConfig, NodeId, Packet, ReferenceNetwork};

fn sparse_packets(config: &NocConfig) -> Vec<Packet> {
    let mesh = config.mesh();
    let src = NodeId::new(0);
    let dst = mesh.node_at(mesh.width() - 1, mesh.height() - 1).unwrap();
    (0..100).map(|_| Packet::new(src, dst, 8)).collect()
}

fn saturated_packets(config: &NocConfig) -> Vec<Packet> {
    let mesh = config.mesh();
    let mut packets = Vec::new();
    for s in mesh.nodes() {
        for d in mesh.nodes() {
            if s != d {
                packets.push(Packet::new(s, d, 4));
            }
        }
    }
    packets
}

fn speedup(runner: &Runner, fast: &str, slow: &str) -> f64 {
    let median = |label: &str| {
        runner
            .results()
            .iter()
            .find(|m| m.label == label)
            .expect("case was measured")
            .median_ns
    };
    median(slow) / median(fast)
}

fn main() {
    let mut runner = Runner::new(5);

    println!("# sparse: one corner-to-corner stream, idle mesh elsewhere");
    for (w, h) in [(8u16, 8u16), (16, 16)] {
        let config = NocConfig::builder(w, h).build().expect("valid config");
        let packets = sparse_packets(&config);
        runner.case(format!("sparse/{w}x{h}/event"), || {
            let mut net = Network::new(config.clone()).expect("network builds");
            for p in &packets {
                net.inject(p.clone()).expect("injects");
            }
            net.run_until_idle(10_000_000).expect("drains").len()
        });
        runner.case(format!("sparse/{w}x{h}/reference"), || {
            let mut net = ReferenceNetwork::new(config.clone()).expect("network builds");
            for p in &packets {
                net.inject(p.clone()).expect("injects");
            }
            net.run_until_idle(10_000_000).expect("drains").len()
        });
        let ratio = speedup(
            &runner,
            &format!("sparse/{w}x{h}/event"),
            &format!("sparse/{w}x{h}/reference"),
        );
        println!("sparse/{w}x{h}: event engine is {ratio:.1}x the reference");
        assert!(
            ratio >= 2.0,
            "sparse traffic must be at least 2x faster event-driven, got {ratio:.2}x"
        );
    }

    println!("# saturated: all-pairs streams, every router busy");
    let config = NocConfig::builder(4, 4).build().expect("valid config");
    let packets = saturated_packets(&config);
    runner.case("saturated/4x4/event", || {
        let mut net = Network::new(config.clone()).expect("network builds");
        for p in &packets {
            net.inject(p.clone()).expect("injects");
        }
        net.run_until_idle(10_000_000).expect("drains").len()
    });
    runner.case("saturated/4x4/reference", || {
        let mut net = ReferenceNetwork::new(config.clone()).expect("network builds");
        for p in &packets {
            net.inject(p.clone()).expect("injects");
        }
        net.run_until_idle(10_000_000).expect("drains").len()
    });
    let ratio = speedup(&runner, "saturated/4x4/event", "saturated/4x4/reference");
    println!("saturated/4x4: event engine is {ratio:.2}x the reference");

    println!("# scheduled: 20 sessions released 100k cycles apart (event only)");
    let config = NocConfig::builder(8, 8).build().expect("valid config");
    let mesh = config.mesh().clone();
    let dst = mesh.node_at(7, 7).unwrap();
    runner.case("scheduled/8x8/event_inject_at", || {
        let mut net = Network::new(config.clone()).expect("network builds");
        for session in 0..20u64 {
            for _ in 0..10 {
                net.inject_at(Packet::new(NodeId::new(0), dst, 8), session * 100_000)
                    .expect("schedules");
            }
        }
        let delivered = net.run_until_idle(100_000_000).expect("drains").len();
        assert!(net.stats().idle_cycles > 1_000_000, "gaps were skipped");
        delivered
    });

    println!("\ncsv:\n{}", runner.csv());
}
