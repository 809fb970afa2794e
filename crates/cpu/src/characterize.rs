//! Processor characterisation — the second step of the paper's flow.
//!
//! "The second step comprises the characterization of the processors reused
//! for test. ... The test application has to be characterized in terms of
//! time, memory requirements and power to each processor in the system
//! reused for test. This step is necessary because the processors may have
//! different instruction-sets, times to run the test application and power
//! consumptions."
//!
//! [`measure`] runs the BIST kernel of [`crate::bist`] on the requested ISS
//! and reduces the run to the numbers the planner consumes.

use crate::bist;
use crate::error::ExecError;
use crate::profile::Isa;

/// Measured generation characteristics of one processor's BIST application.
#[derive(Debug, Clone, PartialEq)]
pub struct GenCharacterization {
    /// The instruction set the measurement ran on.
    pub isa: Isa,
    /// Mean cycles to generate and hand one 32-bit pattern word to the
    /// network interface.
    pub cycles_per_word: f64,
    /// Cycles for the whole measured run (preamble included).
    pub total_cycles: u64,
    /// Words generated in the measured run.
    pub words: usize,
    /// Static code footprint of the kernel in bytes.
    pub code_bytes: u32,
}

impl GenCharacterization {
    /// Mean cycles to produce one *flit* of `flit_bits` bits, assuming the
    /// network interface slices each 32-bit word into flits. Generation
    /// and transmission overlap at word granularity, so narrower flits
    /// do not speed up the software generator.
    #[must_use]
    pub fn cycles_per_flit(&self, flit_bits: u32) -> f64 {
        let flits_per_word = (32.0 / f64::from(flit_bits.max(1))).max(1.0);
        self.cycles_per_word / flits_per_word
    }
}

/// Measures the *sink* half: cycles per response word for the
/// receive-and-compare kernel of [`crate::bist`].
///
/// # Errors
///
/// Propagates ISS faults (which would indicate a kernel/simulator bug).
///
/// # Panics
///
/// Panics if `words` is 0: a rate over no words is undefined.
pub fn measure_sink(isa: Isa, words: u32) -> Result<f64, ExecError> {
    Ok(bist::run_check(isa, bist::DEFAULT_SEED, words, &[])?.cycles_per_word())
}

/// Runs the BIST kernel for `words` words on `isa` and characterises it.
///
/// # Errors
///
/// Propagates ISS faults (which would indicate a kernel/simulator bug).
pub fn measure(isa: Isa, words: u32) -> Result<GenCharacterization, ExecError> {
    let (run, code_bytes) = bist::run_bist_with_code_size(isa, bist::DEFAULT_SEED, words)?;
    Ok(GenCharacterization {
        isa,
        cycles_per_word: run.cycles_per_word(),
        total_cycles: run.cycles,
        words: run.words.len(),
        code_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_both_isas() {
        let m = measure(Isa::MipsI, 256).unwrap();
        let s = measure(Isa::SparcV8, 256).unwrap();
        assert_eq!(m.words, 256);
        assert_eq!(s.words, 256);
        assert!(m.cycles_per_word > 1.0);
        assert!(s.cycles_per_word > 1.0);
        assert!(m.code_bytes > 0 && m.code_bytes < 256);
        assert!(s.code_bytes > 0 && s.code_bytes < 256);
    }

    #[test]
    fn per_flit_cost_accounts_for_word_slicing() {
        let ch = GenCharacterization {
            isa: Isa::MipsI,
            cycles_per_word: 10.0,
            total_cycles: 1000,
            words: 100,
            code_bytes: 48,
        };
        assert!((ch.cycles_per_flit(16) - 5.0).abs() < 1e-12);
        assert!((ch.cycles_per_flit(32) - 10.0).abs() < 1e-12);
        // Flits wider than a word still cost a full word.
        assert!((ch.cycles_per_flit(64) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sink_is_slower_than_source() {
        for isa in [Isa::MipsI, Isa::SparcV8] {
            let src = measure(isa, 512).unwrap().cycles_per_word;
            let snk = measure_sink(isa, 512).unwrap();
            assert!(snk > src, "{isa:?}: sink {snk} vs source {src}");
            assert!(snk < 20.0, "{isa:?}: sink {snk} implausibly slow");
        }
    }

    #[test]
    fn characterisation_is_stable_in_steady_state() {
        // The per-word cost converges as the preamble amortises.
        let short = measure(Isa::MipsI, 64).unwrap();
        let long = measure(Isa::MipsI, 2048).unwrap();
        assert!(long.cycles_per_word <= short.cycles_per_word);
        assert!((long.cycles_per_word - short.cycles_per_word).abs() < 1.0);
    }
}
