//! Reproduces the paper's Section-2 characterisation tables:
//!
//! 1. **NoC characterisation** — routing latency and flow-control latency
//!    recovered by flying isolated packets through the cycle-level
//!    simulator and fitting the analytic latency model, plus the mean
//!    per-router packet power from random traffic ("packets of random size
//!    and random payload").
//! 2. **Processor characterisation** — cycles per generated pattern word
//!    (the paper assumes a flat 10 cycles per pattern) and cycles per
//!    checked response word, measured by running the software-BIST kernels
//!    on the MIPS-I and SPARC V8 instruction-set simulators.

use noctest_bench::SystemId;
use noctest_cpu::{bist, characterize as cpu_char, decompress, Isa};
use noctest_noc::{characterize as noc_char, NocConfig, TrafficSpec};

fn main() {
    println!("== NoC characterisation (paper section 2, step 1) ==");
    println!("config: 16-bit flits, routing latency 10, flow latency 2, XY routing");
    for id in SystemId::ALL {
        let (w, h) = id.mesh();
        let config = NocConfig::builder(w, h).build().expect("valid config");
        let spec = TrafficSpec {
            packets: 400,
            ..TrafficSpec::default()
        };
        match noc_char::characterize(&config, &spec) {
            Ok(ch) => println!(
                "  {:>7} ({w}x{h}): {:.2} cy/hop, {:.2} cy/flit, fixed {:.1} cy, \
                 {:.2} energy/packet/router, mean power {:.2}",
                id.name(),
                ch.cycles_per_hop,
                ch.cycles_per_flit,
                ch.fixed_overhead,
                ch.mean_packet_energy_per_router,
                ch.mean_power
            ),
            Err(e) => println!("  {:>7}: characterisation failed: {e}", id.name()),
        }
    }

    println!();
    println!("== Processor characterisation (paper section 2, step 2) ==");
    println!("paper's assumption: 10 clock cycles to generate a test pattern");
    let processors = [
        ("plasma (MIPS-I)", Isa::MipsI),
        ("leon (SPARC V8)", Isa::SparcV8),
    ];
    for (name, isa) in processors {
        let gen = cpu_char::measure(isa, 4096).expect("ISS run succeeds");
        let sink = cpu_char::measure_sink(isa, 4096).expect("ISS run succeeds");
        println!(
            "  {name:<17}: generate {:.2} cy/word ({:.2} cy per 16-bit flit), \
             check {sink:.2} cy/word, kernel {} bytes",
            gen.cycles_per_word,
            gen.cycles_per_flit(16),
            gen.code_bytes
        );
    }

    println!();
    println!("== Decompression application (paper's future work) ==");
    for (name, isa) in processors {
        for density in [0.02, 0.10, 0.50] {
            let data = decompress::synthetic_test_words(4096, density, 0x5EED);
            let stream = decompress::compress(&data);
            let run = decompress::run_decompress(isa, &stream).expect("kernel runs");
            println!(
                "  {name:<17} care density {density:>4}: ratio {:>5.2}x, \
                 {:>5.2} cy/word, stream {} words",
                run.compression_ratio(),
                run.cycles_per_word(),
                run.stream_words
            );
        }
    }

    println!();
    println!("== BIST kernel correctness spot check ==");
    let n = 16;
    let host = bist::reference_sequence(bist::DEFAULT_SEED, n as usize);
    let agree = processors.iter().all(|&(_, isa)| {
        bist::run_bist(isa, bist::DEFAULT_SEED, n)
            .expect("kernel runs")
            .words
            == host
    });
    println!("  first {n} LFSR words agree across host / MIPS ISS / SPARC ISS: {agree}");
}
