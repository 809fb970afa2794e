//! Property-style tests: the two ISS agree with the host LFSR reference
//! for any seed, and assembled programs decode cleanly (seeded,
//! dependency-free generators from `noctest-testkit`).

use noctest_cpu::bist::{reference_sequence, run_bist};
use noctest_cpu::{mips, sparc, Isa, Memory};
use noctest_testkit::Rng;

/// The MIPS-simulated BIST kernel reproduces the host LFSR bit-exactly
/// for arbitrary seeds and lengths.
#[test]
fn mips_bist_matches_reference() {
    for seed in noctest_testkit::seeds(48) {
        let mut rng = Rng::new(seed);
        let lfsr_seed = rng.next_u32();
        let n = rng.range_u32(1, 199);
        let run = run_bist(Isa::MipsI, lfsr_seed, n).unwrap();
        assert_eq!(
            run.words,
            reference_sequence(lfsr_seed, n as usize),
            "seed {seed}"
        );
    }
}

/// Same for the SPARC kernel.
#[test]
fn sparc_bist_matches_reference() {
    for seed in noctest_testkit::seeds(48) {
        let mut rng = Rng::new(seed);
        let lfsr_seed = rng.next_u32();
        let n = rng.range_u32(1, 199);
        let run = run_bist(Isa::SparcV8, lfsr_seed, n).unwrap();
        assert_eq!(
            run.words,
            reference_sequence(lfsr_seed, n as usize),
            "seed {seed}"
        );
    }
}

/// Cycle counts are deterministic: the same run twice costs the same.
#[test]
fn bist_cycles_deterministic() {
    for seed in noctest_testkit::seeds(24) {
        let mut rng = Rng::new(seed);
        let lfsr_seed = rng.next_u32();
        let n = rng.range_u32(1, 99);
        let a = run_bist(Isa::MipsI, lfsr_seed, n).unwrap();
        let b = run_bist(Isa::MipsI, lfsr_seed, n).unwrap();
        assert_eq!(a.cycles, b.cycles, "seed {seed}");
    }
}

/// Every instruction emitted by the MIPS assembler decodes back
/// (the assembler never produces encodings outside the subset).
#[test]
fn mips_assembler_output_decodes() {
    for seed in noctest_testkit::seeds(48) {
        let mut rng = Rng::new(seed);
        let shift = rng.range_u32(0, 30);
        let imm = rng.range_u32(0, 199) as i32 - 100;
        let src = format!(
            "addiu $t0, $zero, {imm}\n\
             sll $t1, $t0, {shift}\n\
             sra $t2, $t1, {shift}\n\
             subu $t3, $t2, $t0\n\
             break\n"
        );
        let words = mips::assemble(&src).unwrap();
        for (i, w) in words.iter().enumerate() {
            assert!(
                mips::decode(*w, (i * 4) as u32).is_ok(),
                "seed {seed}: word {i} fails to decode"
            );
        }
    }
}

/// Same for the SPARC assembler.
#[test]
fn sparc_assembler_output_decodes() {
    for seed in noctest_testkit::seeds(48) {
        let mut rng = Rng::new(seed);
        let shift = rng.range_u32(0, 30);
        let imm = rng.range_u32(0, 199) as i32 - 100;
        let src = format!(
            "mov {imm}, %g1\n\
             sll %g1, {shift}, %g2\n\
             sra %g2, {shift}, %g3\n\
             subcc %g3, %g1, %g4\n\
             ta 0\n"
        );
        let words = sparc::assemble(&src).unwrap();
        for (i, w) in words.iter().enumerate() {
            assert!(
                sparc::decode(*w, (i * 4) as u32).is_ok(),
                "seed {seed}: word {i} fails to decode"
            );
        }
    }
}

/// Shift-left then logical-shift-right of a small non-negative value is
/// the identity on both simulated ISAs (cross-ISA semantic check).
#[test]
fn shift_roundtrip_cross_isa() {
    for seed in noctest_testkit::seeds(48) {
        let mut rng = Rng::new(seed);
        let v = rng.range_u32(0, 0xFFFE);
        let shift = rng.range_u32(0, 15);

        // MIPS
        let src = format!(
            "lui $t0, {hi}\nori $t0, $t0, {lo}\n\
             sll $t1, $t0, {shift}\nsrl $t2, $t1, {shift}\nbreak\n",
            hi = v >> 16,
            lo = v & 0xFFFF,
        );
        let image = mips::assemble(&src).unwrap();
        let mut mem = Memory::new(4096);
        mem.load_image(0, &image).unwrap();
        let mut cpu = mips::Mips::new(mem, 0);
        cpu.run(1000).unwrap();
        assert_eq!(cpu.reg(10), v, "seed {seed} (mips)");

        // SPARC
        let src = format!(
            "sethi %hi({v}), %g1\nor %g1, %lo({v}), %g1\n\
             sll %g1, {shift}, %g2\nsrl %g2, {shift}, %g3\nta 0\n"
        );
        let image = sparc::assemble(&src).unwrap();
        let mut mem = Memory::new(4096);
        mem.load_image(0, &image).unwrap();
        let mut cpu = sparc::Sparc::new(mem, 0);
        cpu.run(1000).unwrap();
        assert_eq!(cpu.reg(3), v, "seed {seed} (sparc)");
    }
}
