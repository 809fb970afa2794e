//! Processor profiles consumed by the test planner.
//!
//! A profile bundles everything the paper's tool needs to know about a
//! reused processor:
//!
//! * **generation overhead** — the paper assumes "the processor takes 10
//!   clock cycles to generate a test pattern, while the external tester
//!   takes zero"; [`ProcessorProfile::calibrated`] replaces the assumption
//!   with the value measured on the instruction-set simulator;
//! * **self-test size** — "the designer should provide the tool with the
//!   number of test patterns necessary to test each processor. A processor
//!   is reused for test just after it has been successfully tested";
//!   the processor is modelled as one more scan-testable core;
//! * **power** — while under test and while running the BIST application;
//! * **memory** — the BIST application footprint.
//!
//! The Leon (SPARC V8) self-test is larger than the Plasma (MIPS-I) one,
//! reflecting the paper's remark that "complex processors require a large
//! number of patterns to be tested, and may be reused for test few times".
//! The absolute self-test/power numbers are documented synthetic values
//! (DESIGN.md substitution #4).

use crate::characterize::{measure, GenCharacterization};
use crate::decompress;
use crate::error::ExecError;

/// Which test application a reused processor runs as a pattern source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SourceMode {
    /// Software LFSR emulating pseudo-random BIST logic (the application
    /// the paper models).
    #[default]
    Bist,
    /// Read compressed deterministic patterns from memory, decompress and
    /// send them — the paper's stated future work, implemented in
    /// [`crate::decompress`].
    Decompression,
}

/// Instruction-set architecture of a reusable processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Isa {
    /// MIPS-I (the Plasma core).
    MipsI,
    /// SPARC V8 (the Leon core).
    SparcV8,
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Isa::MipsI => f.write_str("MIPS-I"),
            Isa::SparcV8 => f.write_str("SPARC V8"),
        }
    }
}

/// Test-related characterisation of one processor model.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorProfile {
    /// Human-readable core name ("leon", "plasma").
    pub name: String,
    /// Instruction set.
    pub isa: Isa,
    /// Cycles the BIST application spends producing one test *pattern*
    /// before the NoC can start carrying it (the paper's flat 10-cycle
    /// assumption).
    pub gen_cycles_per_pattern: u32,
    /// Measured cycles per generated 32-bit pattern word (None until
    /// [`ProcessorProfile::calibrated`] runs the ISS).
    pub gen_cycles_per_word: Option<f64>,
    /// Measured cycles per *checked* response word — the sink half of the
    /// BIST application (receive, recompute, compare). None until
    /// [`ProcessorProfile::calibrated`].
    pub sink_cycles_per_word: Option<f64>,
    /// Which application generates stimulus (BIST or decompression).
    pub source_mode: SourceMode,
    /// Measured cycles per *decompressed* stimulus word at the calibration
    /// care density. None until [`ProcessorProfile::calibrated_decompression`].
    pub decomp_cycles_per_word: Option<f64>,
    /// Compression ratio measured at the calibration care density.
    pub decomp_ratio: Option<f64>,
    /// Patterns needed to test the processor itself.
    pub self_test_patterns: u32,
    /// Scan bits per self-test pattern (processor modelled as a scan core).
    pub self_test_scan_bits: u32,
    /// Functional input bits observed per self-test pattern.
    pub self_test_inputs: u32,
    /// Functional output bits produced per self-test pattern.
    pub self_test_outputs: u32,
    /// Test-mode power while the processor is *under* test.
    pub test_power: f64,
    /// Power while the processor *runs the BIST application*.
    pub bist_power: f64,
    /// BIST application memory footprint in bytes.
    pub memory_bytes: u32,
}

impl ProcessorProfile {
    /// The Leon (SPARC V8) profile with the paper's default assumptions.
    #[must_use]
    pub fn leon() -> Self {
        ProcessorProfile {
            name: "leon".to_owned(),
            isa: Isa::SparcV8,
            gen_cycles_per_pattern: 10,
            gen_cycles_per_word: None,
            sink_cycles_per_word: None,
            source_mode: SourceMode::Bist,
            decomp_cycles_per_word: None,
            decomp_ratio: None,
            self_test_patterns: 96,
            self_test_scan_bits: 800,
            self_test_inputs: 60,
            self_test_outputs: 60,
            test_power: 400.0,
            bist_power: 180.0,
            memory_bytes: 4096,
        }
    }

    /// The Plasma (MIPS-I) profile with the paper's default assumptions.
    #[must_use]
    pub fn plasma() -> Self {
        ProcessorProfile {
            name: "plasma".to_owned(),
            isa: Isa::MipsI,
            gen_cycles_per_pattern: 10,
            gen_cycles_per_word: None,
            sink_cycles_per_word: None,
            source_mode: SourceMode::Bist,
            decomp_cycles_per_word: None,
            decomp_ratio: None,
            self_test_patterns: 48,
            self_test_scan_bits: 256,
            self_test_inputs: 40,
            self_test_outputs: 40,
            test_power: 250.0,
            bist_power: 120.0,
            memory_bytes: 4096,
        }
    }

    /// Looks a profile up by name (`"leon"` / `"plasma"`).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "leon" => Some(Self::leon()),
            "plasma" => Some(Self::plasma()),
            _ => None,
        }
    }

    /// Runs the BIST kernel on the matching instruction-set simulator and
    /// fills [`ProcessorProfile::gen_cycles_per_word`] (and the memory
    /// footprint) with measured values.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults (a kernel/simulator bug, not bad input).
    pub fn calibrated(mut self) -> Result<Self, ExecError> {
        let ch: GenCharacterization = measure(self.isa, 1024)?;
        self.gen_cycles_per_word = Some(ch.cycles_per_word);
        self.sink_cycles_per_word = Some(crate::characterize::measure_sink(self.isa, 1024)?);
        // Program text + a page for stack/data, rounded up.
        self.memory_bytes = (ch.code_bytes + 1024).next_power_of_two();
        Ok(self)
    }

    /// Measures the decompression application on the ISS over synthetic
    /// test cubes of the given care density, fills
    /// [`ProcessorProfile::decomp_cycles_per_word`] /
    /// [`ProcessorProfile::decomp_ratio`], and switches the profile's
    /// [`SourceMode`] to decompression.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    ///
    /// # Panics
    ///
    /// Panics if `care_density` is outside `[0, 1]`.
    pub fn calibrated_decompression(mut self, care_density: f64) -> Result<Self, ExecError> {
        let data = decompress::synthetic_test_words(4096, care_density, 0x5EED);
        let stream = decompress::compress(&data);
        let run = decompress::run_decompress(self.isa, &stream)?;
        self.decomp_cycles_per_word = Some(run.cycles_per_word());
        self.decomp_ratio = Some(run.compression_ratio());
        self.source_mode = SourceMode::Decompression;
        Ok(self)
    }

    /// The effective stimulus-generation cost per word for the profile's
    /// configured [`SourceMode`], if calibrated.
    #[must_use]
    pub fn source_cycles_per_word(&self) -> Option<f64> {
        match self.source_mode {
            SourceMode::Bist => self.gen_cycles_per_word,
            SourceMode::Decompression => self.decomp_cycles_per_word,
        }
    }

    /// Bits of self-test stimulus per pattern (scan load + inputs).
    #[must_use]
    pub fn self_test_bits_in(&self) -> u32 {
        self.self_test_scan_bits + self.self_test_inputs
    }

    /// Bits of self-test response per pattern (scan unload + outputs).
    #[must_use]
    pub fn self_test_bits_out(&self) -> u32 {
        self.self_test_scan_bits + self.self_test_outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leon_self_test_is_heavier_than_plasma() {
        let leon = ProcessorProfile::leon();
        let plasma = ProcessorProfile::plasma();
        let leon_volume = u64::from(leon.self_test_patterns) * u64::from(leon.self_test_bits_in());
        let plasma_volume =
            u64::from(plasma.self_test_patterns) * u64::from(plasma.self_test_bits_in());
        assert!(leon_volume > plasma_volume);
        assert!(leon.test_power > plasma.test_power);
    }

    #[test]
    fn default_overhead_matches_paper() {
        assert_eq!(ProcessorProfile::leon().gen_cycles_per_pattern, 10);
        assert_eq!(ProcessorProfile::plasma().gen_cycles_per_pattern, 10);
    }

    #[test]
    fn calibration_fills_measured_numbers() {
        let p = ProcessorProfile::plasma().calibrated().unwrap();
        let w = p.gen_cycles_per_word.unwrap();
        assert!((6.0..14.0).contains(&w), "cycles/word {w}");
        assert!(p.memory_bytes >= 1024);
        let l = ProcessorProfile::leon().calibrated().unwrap();
        assert!(l.gen_cycles_per_word.is_some());
    }

    #[test]
    fn by_name_roundtrip() {
        assert_eq!(ProcessorProfile::by_name("leon").unwrap().isa, Isa::SparcV8);
        assert_eq!(ProcessorProfile::by_name("plasma").unwrap().isa, Isa::MipsI);
        assert!(ProcessorProfile::by_name("arm").is_none());
    }

    #[test]
    fn decompression_calibration_switches_mode() {
        let p = ProcessorProfile::plasma()
            .calibrated()
            .unwrap()
            .calibrated_decompression(0.05)
            .unwrap();
        assert_eq!(p.source_mode, SourceMode::Decompression);
        let d = p.decomp_cycles_per_word.unwrap();
        assert!(d > 1.0 && d < 15.0, "decomp cycles/word {d}");
        assert!(p.decomp_ratio.unwrap() > 1.5);
        // Sparse cubes make the decompressor faster than the LFSR source.
        assert!(p.source_cycles_per_word().unwrap() < p.gen_cycles_per_word.unwrap());
    }

    #[test]
    fn source_mode_selects_word_cost() {
        let bist = ProcessorProfile::leon().calibrated().unwrap();
        assert_eq!(bist.source_cycles_per_word(), bist.gen_cycles_per_word);
        let mut decomp = bist.clone();
        decomp.source_mode = SourceMode::Decompression;
        // Not calibrated for decompression: cost unknown.
        assert_eq!(decomp.source_cycles_per_word(), None);
    }

    /// 64-bit FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: &[u32]) -> u64 {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Every kernel image, calibrated profile and checker run is pinned
    /// bit for bit, so a change to the assemblers, the harness or the
    /// simulators that moves any of them fails here.
    #[test]
    fn kernel_images_and_calibrations_are_pinned() {
        use crate::{bist, mips, sparc};
        let images = [
            (mips::assemble(bist::MIPS_BIST), 12, 0x65e4_ffa4_f2cf_8843),
            (mips::assemble(bist::MIPS_CHECK), 15, 0x66ed_844a_e33f_6df2),
            (
                mips::assemble(decompress::MIPS_DECOMPRESS),
                28,
                0x842a_1216_00c2_6e71,
            ),
            (sparc::assemble(bist::SPARC_BIST), 11, 0xd9b4_bd37_b000_269e),
            (
                sparc::assemble(bist::SPARC_CHECK),
                15,
                0x34c1_e82a_d562_d138,
            ),
            (
                sparc::assemble(decompress::SPARC_DECOMPRESS),
                29,
                0xacd4_8131_370c_34e4,
            ),
        ];
        for (image, len, hash) in images {
            let image = image.unwrap();
            assert_eq!((image.len(), fnv1a(&image)), (len, hash));
        }
        for (profile, decomp_bits) in [
            (ProcessorProfile::plasma(), 0x401a_5e40_0000_0000_u64),
            (ProcessorProfile::leon(), 0x401d_a4c0_0000_0000),
        ] {
            let p = profile.calibrated().unwrap();
            assert_eq!(p.gen_cycles_per_word, Some(9.525_390_625));
            assert_eq!(p.sink_cycles_per_word, Some(11.525_390_625));
            assert_eq!(p.memory_bytes, 2048);
            let p = p.calibrated_decompression(0.05).unwrap();
            assert_eq!(
                p.decomp_cycles_per_word.map(f64::to_bits),
                Some(decomp_bits)
            );
            assert_eq!(
                p.decomp_ratio.map(f64::to_bits),
                Some(0x4014_5a50_c670_938f)
            );
        }
        for isa in [Isa::MipsI, Isa::SparcV8] {
            let run = bist::run_check(isa, bist::DEFAULT_SEED, 128, &[3, 77]).unwrap();
            assert_eq!((run.mismatches, run.cycles), (2, 1482), "{isa}");
        }
    }

    #[test]
    fn isa_display() {
        assert_eq!(Isa::MipsI.to_string(), "MIPS-I");
        assert_eq!(Isa::SparcV8.to_string(), "SPARC V8");
    }
}
