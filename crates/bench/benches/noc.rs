//! Benches for the cycle-level NoC simulator: simulation throughput under
//! random traffic, the characterisation pass, and a planned-stream replay
//! (the costs behind `validate_model`).

use noctest_bench::{build_system, harness::Runner, SystemId};
use noctest_core::{replay_schedule, BudgetSpec, InterfaceId, Schedule, ScheduledTest};
use noctest_noc::{characterize, Network, NocConfig, TrafficPattern, TrafficSpec};

fn main() {
    let mut runner = Runner::new(5);

    println!("# random traffic: inject + drain on growing meshes");
    for (w, h) in [(4u16, 4u16), (5, 6), (8, 8)] {
        let config = NocConfig::builder(w, h).build().expect("valid config");
        let spec = TrafficSpec {
            pattern: TrafficPattern::UniformRandom,
            packets: 200,
            payload_flits: (1, 16),
            seed: 7,
        };
        let packets = spec.generate(config.mesh());
        runner.case(format!("noc_random_traffic/{w}x{h}"), || {
            let mut net = Network::new(config.clone()).expect("network builds");
            for p in &packets {
                net.inject(p.clone()).expect("injects");
            }
            net.run_until_idle(10_000_000).expect("drains").len()
        });
    }

    println!("# characterisation pass (what the planner consumes)");
    let config = NocConfig::builder(4, 4).build().expect("valid config");
    let spec = TrafficSpec {
        packets: 128,
        ..TrafficSpec::default()
    };
    runner.case("noc_characterize/4x4", || {
        characterize(&config, &spec).expect("characterises")
    });

    println!("# stimulus-stream replay through the planner's paths");
    let sys =
        build_system(SystemId::D695, "leon", 2, BudgetSpec::Unlimited).expect("system builds");
    let big = sys
        .cuts()
        .iter()
        .max_by_key(|c| c.volume_bits())
        .expect("cores exist")
        .id;
    // One session alone: a one-entry schedule released at cycle 0.
    let solo = Schedule::new(vec![ScheduledTest {
        cut: big,
        interface: InterfaceId(0),
        start: 0,
        end: sys.session_cycles(InterfaceId(0), big),
    }]);
    runner.case("stream_replay/d695_biggest_core_16pat", || {
        replay_schedule(&sys, &solo, 16).expect("replays")
    });
}
