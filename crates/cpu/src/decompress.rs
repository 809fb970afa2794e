//! Test-data decompression — the paper's stated future work.
//!
//! Section 2: a reused processor "can run a test program that reads the
//! compressed test data from a memory, decompresses it and sends it to the
//! core under test (CUT), or it can work as a test pattern generator
//! emulating a pseudo-random BIST logic. ... Currently, we are modeling
//! the BIST application, but in the near future we will also support
//! decompression."
//!
//! This module implements that second application end to end:
//!
//! * a word-oriented **run-length code** suited to scan test data (test
//!   cubes have low care-bit density, so filled vectors contain long runs
//!   of identical words): [`compress`] / [`decompress_host`];
//! * **decompression kernels** in MIPS-I and SPARC V8 assembly that read
//!   the compressed stream from memory and emit expanded pattern words to
//!   the network-interface TX port, run by [`run_decompress`] on the
//!   simulator of either [`Isa`];
//! * a synthetic **test-cube generator** ([`synthetic_test_words`]) with a
//!   configurable care-bit density, so the compression ratio and the
//!   decompression throughput can be characterised as a function of the
//!   test set's structure.
//!
//! ## Stream format
//!
//! A sequence of 32-bit tokens. A token with the top bit set encodes a
//! *run*: the low 24 bits hold the repeat count `n >= 1` and the next word
//! is emitted `n` times. A token with the top bit clear encodes a
//! *literal block*: the low 24 bits hold the count `n >= 1` and the next
//! `n` words are emitted verbatim. The stream ends with a zero token.

use crate::error::ExecError;
use crate::harness::{Kernel, Program};
use crate::mem::Memory;
use crate::profile::Isa;

/// Top bit marking a run token.
pub const RUN_FLAG: u32 = 0x8000_0000;
/// Maximum count encodable in one token.
pub const MAX_COUNT: u32 = 0x00FF_FFFF;

/// Compresses a word stream with the run-length code described in the
/// [module docs](self). Always terminates the stream with a zero token.
///
/// ```
/// use noctest_cpu::decompress::{compress, decompress_host};
/// let data = vec![7, 7, 7, 7, 9, 1, 2, 3];
/// let stream = compress(&data);
/// assert_eq!(decompress_host(&stream), data);
/// assert!(stream.len() < data.len() + 2);
/// ```
#[must_use]
pub fn compress(words: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < words.len() {
        // Measure the run starting here.
        let mut run = 1;
        while i + run < words.len() && words[i + run] == words[i] && (run as u32) < MAX_COUNT {
            run += 1;
        }
        if run >= 3 {
            out.push(RUN_FLAG | run as u32);
            out.push(words[i]);
            i += run;
        } else {
            // Collect a literal block up to the next run of >= 3.
            let start = i;
            let mut end = i + run;
            while end < words.len() && (end - start) < MAX_COUNT as usize {
                let mut next_run = 1;
                while end + next_run < words.len() && words[end + next_run] == words[end] {
                    next_run += 1;
                    if next_run >= 3 {
                        break;
                    }
                }
                if next_run >= 3 {
                    break;
                }
                end += next_run;
            }
            out.push((end - start) as u32);
            out.extend_from_slice(&words[start..end]);
            i = end;
        }
    }
    out.push(0);
    out
}

/// Reference decompressor (the behaviour the kernels must match).
///
/// # Panics
///
/// Panics on a malformed stream (token without its payload); [`compress`]
/// never produces one.
#[must_use]
pub fn decompress_host(stream: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        let token = stream[i];
        i += 1;
        if token == 0 {
            break;
        }
        let count = (token & MAX_COUNT) as usize;
        if token & RUN_FLAG != 0 {
            let value = stream[i];
            i += 1;
            out.extend(std::iter::repeat_n(value, count));
        } else {
            out.extend_from_slice(&stream[i..i + count]);
            i += count;
        }
    }
    out
}

/// MIPS-I decompression kernel.
///
/// Calling convention: `$a0` = TX port, `$a1` = compressed stream base
/// address. Ends with `break` on the zero token.
pub const MIPS_DECOMPRESS: &str = "\
# Test-data decompression kernel (MIPS-I / Plasma).
# $a0 = TX port, $a1 = compressed stream pointer.
next:   lw    $t0, 0($a1)          # token
        addiu $a1, $a1, 4
        beq   $t0, $zero, done
        nop
        lui   $t3, 0x8000          # run flag
        and   $t4, $t0, $t3
        lui   $t5, 0x00FF          # count mask 0x00FFFFFF
        ori   $t5, $t5, 0xFFFF
        and   $t2, $t0, $t5        # count
        beq   $t4, $zero, literal
        nop
run:    lw    $t1, 0($a1)          # run value
        addiu $a1, $a1, 4
runlp:  sw    $t1, 0($a0)          # emit
        addiu $t2, $t2, -1
        bne   $t2, $zero, runlp
        nop
        j     next
        nop
literal: lw   $t1, 0($a1)          # literal word
        addiu $a1, $a1, 4
        sw    $t1, 0($a0)          # emit
        addiu $t2, $t2, -1
        bne   $t2, $zero, literal
        nop
        j     next
        nop
done:   break
";

/// SPARC V8 decompression kernel.
///
/// Calling convention: `%o0` = TX port, `%o1` = compressed stream base
/// address. Ends with `ta 0` on the zero token.
pub const SPARC_DECOMPRESS: &str = "\
! Test-data decompression kernel (SPARC V8 / Leon).
! %o0 = TX port, %o1 = compressed stream pointer.
        sethi %hi(0x80000000), %g4 ! run flag
        sethi %hi(0x00FFFFFF), %g5 ! count mask
        or    %g5, %lo(0x00FFFFFF), %g5
next:   ld    [%o1], %g1           ! token
        add   %o1, 4, %o1
        subcc %g1, 0, %g0
        be    done
        nop
        and   %g1, %g5, %g2        ! count
        andcc %g1, %g4, %g0
        be    literal
        nop
run:    ld    [%o1], %g3           ! run value
        add   %o1, 4, %o1
runlp:  st    %g3, [%o0]           ! emit
        subcc %g2, 1, %g2
        bne   runlp
        nop
        ba    next
        nop
literal: ld   [%o1], %g3           ! literal word
        add   %o1, 4, %o1
        st    %g3, [%o0]           ! emit
        subcc %g2, 1, %g2
        bne   literal
        nop
        ba    next
        nop
done:   ta    0
";

/// Result of one decompression-kernel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompressRun {
    /// Words emitted to the TX port.
    pub words: Vec<u32>,
    /// Total cycles consumed.
    pub cycles: u64,
    /// Size of the compressed stream in words (terminator included).
    pub stream_words: usize,
}

impl DecompressRun {
    /// Mean cycles per *emitted* (decompressed) word.
    ///
    /// # Panics
    ///
    /// Panics if the run emitted nothing.
    #[must_use]
    pub fn cycles_per_word(&self) -> f64 {
        assert!(!self.words.is_empty(), "decompression emitted no words");
        self.cycles as f64 / self.words.len() as f64
    }

    /// Compression ratio achieved (original / compressed size).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.stream_words == 0 {
            return 0.0;
        }
        self.words.len() as f64 / self.stream_words as f64
    }
}

const STREAM_BASE: u32 = 0x1000;

/// The decompressor's calling convention in both dialects: TX port,
/// stream base address.
const DECOMPRESS: Kernel = Kernel {
    mips: Program {
        source: MIPS_DECOMPRESS,
        inputs: &[4, 5], // $a0, $a1
        result: None,
    },
    sparc: Program {
        source: SPARC_DECOMPRESS,
        inputs: &[8, 9], // %o0, %o1
        result: None,
    },
};

/// Runs the decompression kernel on `isa`'s simulator over `stream`.
///
/// # Errors
///
/// Propagates ISS faults (stream too large for memory, or a kernel bug).
pub fn run_decompress(isa: Isa, stream: &[u32]) -> Result<DecompressRun, ExecError> {
    let mut mem = Memory::new(STREAM_BASE + stream.len() as u32 * 4 + 64);
    mem.load_image(STREAM_BASE, stream)?;
    let budget = 200 * stream.len() as u64 * 32 + 10_000;
    let run = DECOMPRESS.run(isa, mem, &[Memory::TX_PORT, STREAM_BASE], budget)?;
    Ok(DecompressRun {
        words: run.words,
        cycles: run.cycles,
        stream_words: stream.len(),
    })
}

/// Generates `n` synthetic test-pattern words with the given care *word*
/// density: the fraction of 32-bit words that carry specified (random)
/// scan values; the rest are zero-filled, the standard 0-fill applied to
/// unspecified cube bits. Real scan cubes cluster their care bits in a
/// few cells per pattern, so at realistic densities (1–10 %) the filled
/// stream is dominated by runs of zero words — exactly the structure the
/// run-length code exploits. Deterministic in `seed`.
#[must_use]
pub fn synthetic_test_words(n: usize, care_density: f64, seed: u32) -> Vec<u32> {
    assert!(
        (0.0..=1.0).contains(&care_density),
        "care density is a fraction"
    );
    // Simple xorshift for determinism without external dependencies.
    let mut state = seed | 1;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    let threshold = (care_density * f64::from(u32::MAX)) as u32;
    (0..n)
        .map(|_| if rand() <= threshold { rand() } else { 0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_roundtrip_basics() {
        for data in [
            vec![],
            vec![5],
            vec![5, 5, 5, 5, 5],
            vec![1, 2, 3, 4],
            vec![0, 0, 0, 9, 9, 9, 9, 1, 2, 0, 0, 0, 0, 0],
        ] {
            let stream = compress(&data);
            assert_eq!(decompress_host(&stream), data, "data {data:?}");
            assert_eq!(*stream.last().unwrap(), 0, "terminator");
        }
    }

    #[test]
    fn runs_compress_well() {
        let data = vec![0xFFFF_FFFF; 1000];
        let stream = compress(&data);
        assert!(stream.len() <= 3, "1000-word run must fit 3 words");
    }

    #[test]
    fn incompressible_data_costs_little() {
        let data: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let stream = compress(&data);
        // One token per literal block plus terminator: minimal overhead.
        assert!(stream.len() <= data.len() + 8);
    }

    #[test]
    fn mips_kernel_matches_host() {
        let data = synthetic_test_words(256, 0.05, 0xBEEF);
        let stream = compress(&data);
        let run = run_decompress(Isa::MipsI, &stream).unwrap();
        assert_eq!(run.words, data);
    }

    #[test]
    fn sparc_kernel_matches_host() {
        let data = synthetic_test_words(256, 0.05, 0xBEEF);
        let stream = compress(&data);
        let run = run_decompress(Isa::SparcV8, &stream).unwrap();
        assert_eq!(run.words, data);
    }

    #[test]
    fn kernels_agree_on_literal_heavy_data() {
        let data = synthetic_test_words(128, 0.9, 3);
        let stream = compress(&data);
        let m = run_decompress(Isa::MipsI, &stream).unwrap();
        let s = run_decompress(Isa::SparcV8, &stream).unwrap();
        assert_eq!(m.words, s.words);
        assert_eq!(m.words, data);
    }

    #[test]
    fn sparse_cubes_decompress_faster_than_bist_generates() {
        // At 5% care density the data is run-dominated; the decompression
        // inner loop (store + count + branch) beats the ~9.5-cycle LFSR.
        let data = synthetic_test_words(2048, 0.05, 0x1234);
        let stream = compress(&data);
        let run = run_decompress(Isa::MipsI, &stream).unwrap();
        assert!(
            run.compression_ratio() > 2.0,
            "ratio {}",
            run.compression_ratio()
        );
        assert!(
            run.cycles_per_word() < 9.0,
            "decompression {} cy/word should beat the LFSR",
            run.cycles_per_word()
        );
    }

    #[test]
    fn dense_cubes_decompress_slower() {
        let sparse = {
            let s = compress(&synthetic_test_words(2048, 0.03, 9));
            run_decompress(Isa::MipsI, &s).unwrap().cycles_per_word()
        };
        let dense = {
            let s = compress(&synthetic_test_words(2048, 0.8, 9));
            run_decompress(Isa::MipsI, &s).unwrap().cycles_per_word()
        };
        assert!(dense > sparse, "dense {dense} vs sparse {sparse}");
    }

    #[test]
    fn care_density_controls_compressibility() {
        let low = compress(&synthetic_test_words(1024, 0.02, 7)).len();
        let high = compress(&synthetic_test_words(1024, 0.9, 7)).len();
        assert!(low * 2 < high, "low-density stream {low} vs {high}");
    }

    #[test]
    #[should_panic(expected = "care density")]
    fn care_density_validated() {
        let _ = synthetic_test_words(10, 1.5, 1);
    }
}
