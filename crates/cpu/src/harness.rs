//! The one harness every on-chip application runs through.
//!
//! A [`Kernel`] describes an application once, as data: its source in
//! each assembly dialect, the registers its inputs go to and the
//! register holding its result. [`Kernel::run`] assembles the source for
//! the requested [`Isa`], loads it at address 0 of the caller's memory,
//! sets the inputs, runs the matching simulator and collects what the
//! kernel emitted, its result, its cycle count and its code size.

use crate::error::ExecError;
use crate::mem::Memory;
use crate::mips::{self, Mips};
use crate::profile::Isa;
use crate::sparc::{self, Sparc};

/// One application in both dialects.
pub(crate) struct Kernel {
    /// The MIPS-I (Plasma) program.
    pub mips: Program,
    /// The SPARC V8 (Leon) program.
    pub sparc: Program,
}

/// One dialect's program and calling convention.
pub(crate) struct Program {
    /// Assembly source; it must assemble and end in a halt.
    pub source: &'static str,
    /// Registers receiving the run's inputs, in argument order.
    pub inputs: &'static [u8],
    /// Register holding the result when the program halts, if any.
    pub result: Option<u8>,
}

/// What one kernel run produced.
pub(crate) struct Run {
    /// Words stored to the TX port, in order.
    pub words: Vec<u32>,
    /// The result register at the halt (0 for kernels without one).
    pub result: u32,
    /// Total cycles consumed.
    pub cycles: u64,
    /// Size of the assembled program in bytes.
    pub code_bytes: u32,
}

impl Kernel {
    /// Runs the kernel on `isa` over `mem`, with `args` in its input
    /// registers and at most `budget` cycles.
    pub(crate) fn run(
        &self,
        isa: Isa,
        mut mem: Memory,
        args: &[u32],
        budget: u64,
    ) -> Result<Run, ExecError> {
        let (program, assemble): (_, fn(&str) -> _) = match isa {
            Isa::MipsI => (&self.mips, mips::assemble),
            Isa::SparcV8 => (&self.sparc, sparc::assemble),
        };
        debug_assert_eq!(program.inputs.len(), args.len());
        let image = assemble(program.source).expect("embedded kernel assembles");
        mem.load_image(0, &image)?;
        let inputs = program.inputs.iter().copied().zip(args.iter().copied());
        let (result, cycles, words) = match isa {
            Isa::MipsI => {
                let mut cpu = Mips::new(mem, 0);
                inputs.for_each(|(r, v)| cpu.set_reg(r, v));
                cpu.run(budget)?;
                let result = program.result.map_or(0, |r| cpu.reg(r));
                (result, cpu.cycles(), cpu.memory_mut().take_tx())
            }
            Isa::SparcV8 => {
                let mut cpu = Sparc::new(mem, 0);
                inputs.for_each(|(r, v)| cpu.set_reg(r, v));
                cpu.run(budget)?;
                let result = program.result.map_or(0, |r| cpu.reg(r));
                (result, cpu.cycles(), cpu.memory_mut().take_tx())
            }
        };
        Ok(Run {
            words,
            result,
            cycles,
            code_bytes: image.len() as u32 * 4,
        })
    }
}
