//! Ablation studies for the design choices called out in `DESIGN.md`,
//! every one of them a `PlanRequest` matrix run by a `Campaign`:
//!
//! 1. **Scheduler**: the paper's greedy (first-available-interface) vs. the
//!    lookahead "smart" policy vs. the external-only serial baseline.
//! 2. **Generation model**: the paper's flat 10-cycles-per-pattern vs. the
//!    ISS-calibrated per-word software cost.
//! 3. **Flit width**: 8 / 16 / 32-bit channels.
//! 4. **Routing algorithm**: XY (paper) vs. YX vs. West-First.
//! 5. **Priority policy**: distance (paper) vs. volume-descending vs.
//!    declaration order.
//! 6. **Test application** (the paper's future work): BIST (software
//!    LFSR) vs. decompression of stored deterministic patterns, across
//!    care-bit densities.
//! 7. **Wrapper shift bound**: the transport-only model vs. bounding each
//!    core's pattern rate by its longest wrapper scan chain.
//! 8. **Optimality gap**: greedy and smart vs. the exact branch-and-bound
//!    scheduler on down-scaled systems (the exact search is exponential).
//!
//! Each table reports makespans for the full-reuse configuration of every
//! system (6 or 8 processors, no power limit) unless stated.

use noctest_bench::SystemId;
use noctest_core::plan::{
    ApplicationSpec, Campaign, CoreRequest, PlanRequest, RequestMatrix, SocSource,
};
use noctest_core::{BudgetSpec, GenerationModel, PriorityPolicy};
use noctest_cpu::{decompress, Isa};
use noctest_noc::RoutingKind;

/// Full-reuse base request for a system (no power limit, greedy).
fn full_reuse(id: SystemId) -> PlanRequest {
    id.request("leon", id.processors(), BudgetSpec::Unlimited)
}

fn makespan(campaign: &Campaign, request: &PlanRequest) -> u64 {
    campaign
        .run(request)
        .unwrap_or_else(|e| panic!("{} fails: {e}", request.name))
        .makespan
}

fn main() {
    let campaign = Campaign::new();

    println!("== ablation 1: scheduler (no power limit) ==");
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12}",
        "system", "procs", "serial", "greedy", "smart"
    );
    for id in SystemId::ALL {
        for reused in id.sweep() {
            let matrix = RequestMatrix::new(id.request("leon", reused, BudgetSpec::Unlimited))
                .vary_scheduler(&["serial", "greedy", "smart"])
                .build();
            let times: Vec<u64> = campaign
                .run_all(&matrix)
                .into_iter()
                .map(|r| r.expect("schedules").makespan)
                .collect();
            println!(
                "{:>8} {reused:>6} {:>12} {:>12} {:>12}",
                id.name(),
                times[0],
                times[1],
                times[2]
            );
        }
    }

    println!();
    println!("== ablation 2: generation model (full reuse, greedy) ==");
    println!(
        "{:>8} {:>16} {:>16} {:>8}",
        "system", "paper-flat-10cy", "iss-calibrated", "ratio"
    );
    for id in SystemId::ALL {
        let matrix = RequestMatrix::new(full_reuse(id))
            .vary_with(
                &[GenerationModel::PaperFlat, GenerationModel::Calibrated],
                |r, &model| r.timing.generation = Some(model),
            )
            .build();
        let times: Vec<u64> = matrix.iter().map(|r| makespan(&campaign, r)).collect();
        println!(
            "{:>8} {:>16} {:>16} {:>8.2}",
            id.name(),
            times[0],
            times[1],
            times[1] as f64 / times[0] as f64
        );
    }

    println!();
    println!("== ablation 3: flit width (full reuse, greedy) ==");
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "system", "8-bit", "16-bit", "32-bit"
    );
    for id in SystemId::ALL {
        let matrix = RequestMatrix::new(full_reuse(id))
            .vary_with(&[8u32, 16, 32], |r, &bits| {
                r.timing.flit_width_bits = Some(bits);
            })
            .build();
        let mut row = format!("{:>8}", id.name());
        for request in &matrix {
            row += &format!(" {:>10}", makespan(&campaign, request));
        }
        println!("{row}");
    }

    println!();
    println!("== ablation 4: routing algorithm (full reuse, greedy) ==");
    println!(
        "{:>8} {:>10} {:>10} {:>12}",
        "system", "xy", "yx", "west-first"
    );
    for id in SystemId::ALL {
        let matrix = RequestMatrix::new(full_reuse(id))
            .vary_with(
                &[RoutingKind::Xy, RoutingKind::Yx, RoutingKind::WestFirst],
                |r, &routing| r.mesh.routing = routing,
            )
            .build();
        let mut row = format!("{:>8}", id.name());
        for request in &matrix {
            row += &format!(" {:>10}", makespan(&campaign, request));
        }
        println!("{row}");
    }

    println!();
    println!("== ablation 5: priority policy (full reuse, greedy) ==");
    println!(
        "{:>8} {:>10} {:>12} {:>10}",
        "system", "distance", "volume-desc", "index"
    );
    for id in SystemId::ALL {
        let matrix = RequestMatrix::new(full_reuse(id))
            .vary_with(
                &[
                    PriorityPolicy::Distance,
                    PriorityPolicy::VolumeDescending,
                    PriorityPolicy::Index,
                ],
                |r, &priority| r.priority = priority,
            )
            .build();
        let mut row = format!("{:>8}", id.name());
        for request in &matrix {
            row += &format!(" {:>10}", makespan(&campaign, request));
        }
        println!("{row}");
    }

    println!();
    println!("== ablation 6: test application, BIST vs decompression (full reuse, greedy) ==");
    println!("(paper: \"in the near future we will also support decompression\")");
    println!(
        "{:>8} {:>10} {:>16} {:>16} {:>16}",
        "system", "bist", "decomp d=0.02", "decomp d=0.10", "decomp d=0.50"
    );
    for id in SystemId::ALL {
        let matrix = RequestMatrix::new(full_reuse(id))
            .vary_with(&[0.0f64, 0.02, 0.10, 0.50], |r, &density| {
                let spec = r.processors.as_mut().expect("base has processors");
                spec.application = if density == 0.0 {
                    ApplicationSpec::Bist
                } else {
                    ApplicationSpec::Decompression {
                        care_density: density,
                    }
                };
            })
            .build();
        let mut row = format!("{:>8}", id.name());
        for (i, request) in matrix.iter().enumerate() {
            let w = if i == 0 { 10 } else { 16 };
            row += &format!(" {:>w$}", makespan(&campaign, request));
        }
        println!("{row}");
    }
    // The raw kernel characterisation behind the table.
    println!("  decompressor characterisation (MIPS-I, 4096-word cubes):");
    for density in [0.02, 0.10, 0.50] {
        let data = decompress::synthetic_test_words(4096, density, 0x5EED);
        let stream = decompress::compress(&data);
        let run = decompress::run_decompress(Isa::MipsI, &stream).expect("kernel runs");
        println!(
            "    care density {density:>4}: ratio {:>5.2}x, {:>5.2} cy/word",
            run.compression_ratio(),
            run.cycles_per_word()
        );
    }

    println!();
    println!("== ablation 7: wrapper shift bound (full reuse, greedy) ==");
    println!(
        "{:>8} {:>16} {:>16} {:>8}",
        "system", "transport-only", "wrapper-bounded", "delta"
    );
    for id in SystemId::ALL {
        let matrix = RequestMatrix::new(full_reuse(id))
            .vary_with(&[false, true], |r, &bound| {
                r.timing.wrapper_shift = Some(bound);
            })
            .build();
        let times: Vec<u64> = matrix.iter().map(|r| makespan(&campaign, r)).collect();
        println!(
            "{:>8} {:>16} {:>16} {:>7.2}%",
            id.name(),
            times[0],
            times[1],
            100.0 * (times[1] as f64 / times[0] as f64 - 1.0)
        );
    }

    println!();
    println!("== ablation 8: optimality gap (down-scaled systems, exact B&B) ==");
    println!(
        "{:>16} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "system", "optimal", "greedy", "smart", "g-gap", "s-gap"
    );
    // The exact search is exponential; evaluate on miniature systems that
    // keep the structure (mixed core sizes, 2 reusable processors).
    for (label, sizes) in [
        ("mini-uniform", vec![(1600u32, 1600u32, 40u32); 6]),
        (
            "mini-longtail",
            vec![
                (4800, 4800, 120),
                (2400, 2400, 80),
                (1200, 1200, 60),
                (600, 600, 40),
                (300, 300, 30),
                (150, 150, 20),
            ],
        ),
    ] {
        let mut base = PlanRequest::benchmark(label, 3, 3).with_processors("leon", 2, 2);
        base.soc = SocSource::Cores {
            name: label.to_owned(),
            cores: sizes
                .iter()
                .enumerate()
                .map(|(i, &(bits_in, bits_out, patterns))| CoreRequest {
                    name: format!("c{i}"),
                    bits_in,
                    bits_out,
                    patterns,
                    power: 100.0 + 50.0 * i as f64,
                })
                .collect(),
        };
        let matrix = RequestMatrix::new(base)
            .vary_scheduler(&["optimal", "greedy", "smart"])
            .build();
        let times: Vec<u64> = matrix.iter().map(|r| makespan(&campaign, r)).collect();
        let (optimal, greedy, smart) = (times[0], times[1], times[2]);
        println!(
            "{label:>16} {optimal:>10} {greedy:>10} {smart:>10} {:>8.1}% {:>8.1}%",
            100.0 * (greedy as f64 / optimal as f64 - 1.0),
            100.0 * (smart as f64 / optimal as f64 - 1.0)
        );
    }
}
