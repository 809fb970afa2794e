//! The software-BIST kernel: a 32-bit Galois LFSR emitting pattern words.
//!
//! The paper models the reused processor "as a test pattern generator
//! emulating a pseudo-random BIST logic". The kernel below is that
//! emulation: each iteration advances a maximal-length 32-bit LFSR
//! (taps x^32 + x^22 + x^2 + x^1 + 1, Galois form `0x8020_0003`) and
//! stores the new state to the memory-mapped network-interface port, from
//! which the NoC wrapper would serialise it into flits towards the core
//! under test.
//!
//! The same kernel is written in both assembly dialects; [`run_bist`] runs
//! it on the simulator of the [`Isa`] it is given, and the tests check the
//! emitted words against [`reference_sequence`], proving the processor
//! models, assemblers and memory system agree bit-for-bit with the host
//! reference. [`run_check`] does the same for the response checker.

use crate::error::ExecError;
use crate::harness::{Kernel, Program};
use crate::mem::Memory;
use crate::profile::Isa;

/// Galois feedback mask for the maximal-length polynomial
/// x^32 + x^22 + x^2 + x + 1.
pub const LFSR_TAPS: u32 = 0x8020_0003;

/// Default seed used by the characterisation harnesses.
pub const DEFAULT_SEED: u32 = 0xACE1_u32;

/// Advances the LFSR by one step (host reference implementation).
///
/// ```
/// use noctest_cpu::bist::{lfsr_next, LFSR_TAPS};
/// assert_eq!(lfsr_next(2), 1);
/// assert_eq!(lfsr_next(1), LFSR_TAPS);
/// ```
#[must_use]
pub fn lfsr_next(state: u32) -> u32 {
    let lsb = state & 1;
    let shifted = state >> 1;
    if lsb != 0 {
        shifted ^ LFSR_TAPS
    } else {
        shifted
    }
}

/// The first `n` LFSR outputs from `seed` (the word stream a correct BIST
/// kernel must emit).
#[must_use]
pub fn reference_sequence(seed: u32, n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    let mut s = seed;
    for _ in 0..n {
        s = lfsr_next(s);
        out.push(s);
    }
    out
}

/// MIPS-I source of the BIST kernel.
///
/// Calling convention: `$a0` = TX port address, `$a1` = word count,
/// `$s0` = LFSR seed. Ends with `break`.
pub const MIPS_BIST: &str = "\
# Software BIST kernel (MIPS-I / Plasma).
# $a0 = TX port, $a1 = number of words, $s0 = LFSR state.
        lui   $t1, 0x8020          # Galois taps 0x80200003
        ori   $t1, $t1, 0x0003
loop:   andi  $t0, $s0, 1          # lsb
        srl   $s0, $s0, 1
        beq   $t0, $zero, noxor
        nop
        xor   $s0, $s0, $t1
noxor:  sw    $s0, 0($a0)          # emit pattern word to the NoC wrapper
        addiu $a1, $a1, -1
        bne   $a1, $zero, loop
        nop
        break
";

/// SPARC V8 source of the BIST kernel.
///
/// Calling convention: `%o0` = TX port address, `%o1` = word count,
/// `%g1` = LFSR seed. Ends with `ta 0`.
pub const SPARC_BIST: &str = "\
! Software BIST kernel (SPARC V8 / Leon).
! %o0 = TX port, %o1 = number of words, %g1 = LFSR state.
        sethi %hi(0x80200003), %g2
        or    %g2, %lo(0x80200003), %g2
loop:   andcc %g1, 1, %g0          ! test lsb
        be    noxor
        srl   %g1, 1, %g1          ! shift in the delay slot
        xor   %g1, %g2, %g1
noxor:  st    %g1, [%o0]           ! emit pattern word to the NoC wrapper
        subcc %o1, 1, %o1
        bne   loop
        nop
        ta    0
";

/// MIPS-I source of the response-check kernel: receives response words
/// from the RX port, recomputes the expected LFSR stream in software, and
/// counts mismatches (the "sink" half of the BIST application).
///
/// Calling convention: `$a2` = RX port address, `$a1` = word count,
/// `$s0` = LFSR seed; mismatch count in `$v0`. Ends with `break`.
pub const MIPS_CHECK: &str = "\
# Software response checker (MIPS-I / Plasma).
# $a2 = RX port, $a1 = number of words, $s0 = LFSR state, $v0 = mismatches.
        lui   $t1, 0x8020
        ori   $t1, $t1, 0x0003
loop:   andi  $t0, $s0, 1
        srl   $s0, $s0, 1
        beq   $t0, $zero, noxor
        nop
        xor   $s0, $s0, $t1
noxor:  lw    $t2, 0($a2)          # receive response word from the NoC
        beq   $t2, $s0, matched
        nop
        addiu $v0, $v0, 1          # signature mismatch
matched: addiu $a1, $a1, -1
        bne   $a1, $zero, loop
        nop
        break
";

/// SPARC V8 source of the response-check kernel.
///
/// Calling convention: `%o2` = RX port address, `%o1` = word count,
/// `%g1` = LFSR seed; mismatch count in `%o3`. Ends with `ta 0`.
pub const SPARC_CHECK: &str = "\
! Software response checker (SPARC V8 / Leon).
! %o2 = RX port, %o1 = number of words, %g1 = LFSR state, %o3 = mismatches.
        sethi %hi(0x80200003), %g2
        or    %g2, %lo(0x80200003), %g2
loop:   andcc %g1, 1, %g0
        be    noxor
        srl   %g1, 1, %g1
        xor   %g1, %g2, %g1
noxor:  ld    [%o2], %g3           ! receive response word from the NoC
        subcc %g3, %g1, %g0
        be    matched
        nop
        add   %o3, 1, %o3          ! signature mismatch
matched: subcc %o1, 1, %o1
        bne   loop
        nop
        ta    0
";

/// Result of one BIST kernel execution on an ISS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BistRun {
    /// Pattern words emitted to the TX port, in order.
    pub words: Vec<u32>,
    /// Total cycles consumed (including the two-instruction preamble).
    pub cycles: u64,
}

impl BistRun {
    /// Mean cycles per emitted pattern word.
    ///
    /// # Panics
    ///
    /// Panics if the run emitted no words.
    #[must_use]
    pub fn cycles_per_word(&self) -> f64 {
        assert!(!self.words.is_empty(), "BIST run emitted no words");
        self.cycles as f64 / self.words.len() as f64
    }
}

/// The BIST kernel's calling convention in both dialects: TX port, word
/// count, seed.
const BIST: Kernel = Kernel {
    mips: Program {
        source: MIPS_BIST,
        inputs: &[4, 5, 16], // $a0, $a1, $s0
        result: None,
    },
    sparc: Program {
        source: SPARC_BIST,
        inputs: &[8, 9, 1], // %o0, %o1, %g1
        result: None,
    },
};

/// The response checker's calling convention in both dialects: RX port,
/// word count, seed; mismatch count out.
const CHECK: Kernel = Kernel {
    mips: Program {
        source: MIPS_CHECK,
        inputs: &[6, 5, 16], // $a2, $a1, $s0
        result: Some(2),     // $v0
    },
    sparc: Program {
        source: SPARC_CHECK,
        inputs: &[10, 9, 1], // %o2, %o1, %g1
        result: Some(11),    // %o3
    },
};

/// Cycle budget for a BIST or check run of `n` words.
fn budget(n: u32) -> u64 {
    40 * u64::from(n) + 1000
}

/// Assembles and runs the BIST kernel on `isa`'s simulator for `n` words
/// from `seed`.
///
/// # Errors
///
/// Propagates ISS faults; the kernel itself is statically correct, so an
/// error indicates a budget that is too small for `n`.
pub fn run_bist(isa: Isa, seed: u32, n: u32) -> Result<BistRun, ExecError> {
    run_bist_with_code_size(isa, seed, n).map(|(run, _)| run)
}

/// [`run_bist`] plus the kernel's code size in bytes.
pub(crate) fn run_bist_with_code_size(
    isa: Isa,
    seed: u32,
    n: u32,
) -> Result<(BistRun, u32), ExecError> {
    let run = BIST.run(
        isa,
        Memory::new(4096),
        &[Memory::TX_PORT, n, seed],
        budget(n),
    )?;
    let bist = BistRun {
        words: run.words,
        cycles: run.cycles,
    };
    Ok((bist, run.code_bytes))
}

/// Result of one response-check kernel execution on an ISS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRun {
    /// Response words consumed.
    pub words: u32,
    /// Mismatches the kernel counted.
    pub mismatches: u32,
    /// Total cycles consumed.
    pub cycles: u64,
}

impl CheckRun {
    /// Mean cycles per checked response word.
    ///
    /// # Panics
    ///
    /// Panics if the run checked no words.
    #[must_use]
    pub fn cycles_per_word(&self) -> f64 {
        assert!(self.words > 0, "check run consumed no words");
        self.cycles as f64 / f64::from(self.words)
    }
}

/// Runs the response checker on `isa`'s simulator against a response
/// stream that equals the reference LFSR sequence except at the word
/// indices in `corrupt`.
///
/// # Errors
///
/// Propagates ISS faults; see [`run_bist`].
pub fn run_check(isa: Isa, seed: u32, n: u32, corrupt: &[usize]) -> Result<CheckRun, ExecError> {
    let mut mem = Memory::new(4096);
    mem.feed_rx(corrupted_stream(seed, n, corrupt));
    let run = CHECK.run(isa, mem, &[Memory::RX_PORT, n, seed], budget(n))?;
    Ok(CheckRun {
        words: n,
        mismatches: run.result,
        cycles: run.cycles,
    })
}

fn corrupted_stream(seed: u32, n: u32, corrupt: &[usize]) -> Vec<u32> {
    let mut stream = reference_sequence(seed, n as usize);
    for &i in corrupt {
        if let Some(w) = stream.get_mut(i) {
            *w ^= 1;
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_is_maximal_length_on_prefix() {
        // A maximal 32-bit LFSR cannot revisit a state within any short
        // prefix; check 10^5 steps stay distinct from the seed.
        let mut s = DEFAULT_SEED;
        for _ in 0..100_000 {
            s = lfsr_next(s);
            assert_ne!(s, DEFAULT_SEED);
            assert_ne!(s, 0, "LFSR collapsed to zero");
        }
    }

    #[test]
    fn mips_kernel_matches_reference() {
        let run = run_bist(Isa::MipsI, DEFAULT_SEED, 64).unwrap();
        assert_eq!(run.words, reference_sequence(DEFAULT_SEED, 64));
    }

    #[test]
    fn sparc_kernel_matches_reference() {
        let run = run_bist(Isa::SparcV8, DEFAULT_SEED, 64).unwrap();
        assert_eq!(run.words, reference_sequence(DEFAULT_SEED, 64));
    }

    #[test]
    fn kernels_agree_across_isas() {
        let a = run_bist(Isa::MipsI, 0xDEAD_BEEF, 32).unwrap();
        let b = run_bist(Isa::SparcV8, 0xDEAD_BEEF, 32).unwrap();
        assert_eq!(a.words, b.words);
    }

    #[test]
    fn cycles_per_word_near_papers_assumption() {
        // The paper assumes 10 cycles per generated pattern; both kernels
        // must land in single-digit-to-low-teens territory.
        let mips = run_bist(Isa::MipsI, DEFAULT_SEED, 512).unwrap();
        let sparc = run_bist(Isa::SparcV8, DEFAULT_SEED, 512).unwrap();
        let m = mips.cycles_per_word();
        let s = sparc.cycles_per_word();
        assert!((6.0..14.0).contains(&m), "MIPS cycles/word = {m}");
        assert!((6.0..14.0).contains(&s), "SPARC cycles/word = {s}");
    }

    #[test]
    fn word_count_is_exact() {
        for n in [1u32, 2, 7, 100] {
            assert_eq!(run_bist(Isa::MipsI, 1, n).unwrap().words.len() as u32, n);
            assert_eq!(run_bist(Isa::SparcV8, 1, n).unwrap().words.len() as u32, n);
        }
    }

    #[test]
    #[should_panic(expected = "no words")]
    fn cycles_per_word_requires_output() {
        let run = BistRun {
            words: vec![],
            cycles: 10,
        };
        let _ = run.cycles_per_word();
    }

    #[test]
    fn clean_stream_checks_without_mismatches() {
        let m = run_check(Isa::MipsI, DEFAULT_SEED, 128, &[]).unwrap();
        assert_eq!(m.mismatches, 0);
        let s = run_check(Isa::SparcV8, DEFAULT_SEED, 128, &[]).unwrap();
        assert_eq!(s.mismatches, 0);
    }

    #[test]
    fn corrupted_words_are_detected_exactly() {
        let corrupt = [3usize, 17, 90];
        let m = run_check(Isa::MipsI, DEFAULT_SEED, 128, &corrupt).unwrap();
        assert_eq!(m.mismatches, 3);
        let s = run_check(Isa::SparcV8, DEFAULT_SEED, 128, &corrupt).unwrap();
        assert_eq!(s.mismatches, 3);
    }

    #[test]
    fn checking_costs_more_than_generating() {
        // The sink recomputes the LFSR *and* loads/compares the response,
        // so it must be slower per word than the generator.
        let gen = run_bist(Isa::MipsI, DEFAULT_SEED, 512)
            .unwrap()
            .cycles_per_word();
        let chk = run_check(Isa::MipsI, DEFAULT_SEED, 512, &[])
            .unwrap()
            .cycles_per_word();
        assert!(chk > gen, "check {chk} must exceed generate {gen}");
        let gen_s = run_bist(Isa::SparcV8, DEFAULT_SEED, 512)
            .unwrap()
            .cycles_per_word();
        let chk_s = run_check(Isa::SparcV8, DEFAULT_SEED, 512, &[])
            .unwrap()
            .cycles_per_word();
        assert!(chk_s > gen_s);
    }
}
