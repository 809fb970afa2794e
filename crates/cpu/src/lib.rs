//! # noctest-cpu — embedded-processor substrate for software-based test
//!
//! The DATE'05 paper reuses two open processor cores as test sources/sinks:
//! **Plasma** (MIPS-I compatible, opencores.org) and **Leon** (SPARC V8
//! compatible, Gaisler). Section 2 requires each reused processor to be
//! *characterised*: "the BIST application consumes time to generate the
//! BIST pattern and to send it to the CUT ... The test application has to be
//! characterized in terms of time, memory requirements and power to each
//! processor in the system reused for test."
//!
//! Rather than assuming the paper's "10 clock cycles to generate a test
//! pattern", this crate *derives* the figure from first principles:
//!
//! * [`mips`] — an instruction-set simulator for the MIPS-I subset the
//!   Plasma core implements (branch delay slots included), plus its
//!   assembler dialect;
//! * [`sparc`] — an ISS for a SPARC V8 subset (register windows, condition
//!   codes, delayed control transfer with annul bits), plus its assembler
//!   dialect. Both assemblers share one two-pass front end (comments,
//!   labels, `.word`, numbers, line-numbered [`mips::asm::AsmError`]s);
//!   each dialect adds only its registers, operand forms and encoder;
//! * [`bist`] — the software-BIST kernel (a 32-bit Galois LFSR emitting
//!   pattern words to a memory-mapped network-interface port) and the
//!   response checker, both in both assembly dialects, with a host
//!   reference implementation;
//! * [`decompress`] — the test-data decompression application (the
//!   paper's future work): a run-length code and its kernel;
//! * [`characterize`] — measures cycles-per-pattern-word on each ISS;
//! * [`profile`] — [`ProcessorProfile`]s for Leon and Plasma consumed by
//!   the test planner (generation overhead, self-test size, power, memory).
//!
//! The three applications run through three runners that take the
//! processor's [`Isa`] as a value: [`bist::run_bist`], [`bist::run_check`]
//! and [`decompress::run_decompress`]. Underneath, one harness describes
//! each kernel once (its source per ISA, its input registers and its
//! result register), assembles it, loads it, runs the matching simulator
//! and collects the emitted words, the result, the cycles and the code
//! size.
//!
//! ## Quickstart
//!
//! ```
//! use noctest_cpu::{bist, Isa};
//!
//! // Run the BIST kernel on the Plasma (MIPS-I) simulator: 8 words.
//! let run = bist::run_bist(Isa::MipsI, 0xACE1_u32, 8)?;
//! assert_eq!(run.words, bist::reference_sequence(0xACE1, 8));
//! assert!(run.cycles_per_word() > 5.0 && run.cycles_per_word() < 20.0);
//!
//! // The same kernel on the Leon (SPARC V8) simulator emits the same words.
//! let leon = bist::run_bist(Isa::SparcV8, 0xACE1_u32, 8)?;
//! assert_eq!(leon.words, run.words);
//! # Ok::<(), noctest_cpu::ExecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
pub mod bist;
pub mod characterize;
pub mod decompress;
pub mod error;
mod harness;
pub mod mem;
pub mod mips;
pub mod profile;
pub mod sparc;

pub use characterize::GenCharacterization;
pub use error::ExecError;
pub use mem::Memory;
pub use profile::{Isa, ProcessorProfile, SourceMode};
