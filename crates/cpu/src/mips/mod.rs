//! MIPS-I instruction-set simulator (Plasma-like) with branch delay slots.

pub mod asm;
pub mod decode;

pub use asm::assemble;
pub use decode::{decode, Instr};

use crate::error::ExecError;
use crate::mem::Memory;

/// Per-class cycle costs, defaulted to the Plasma core's simple
/// non-pipelined timing (most instructions single-cycle, memory double).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleModel {
    /// ALU / shift / branch / jump instructions.
    pub alu: u64,
    /// Loads.
    pub load: u64,
    /// Stores.
    pub store: u64,
    /// `mult`/`multu` (iterative multiplier).
    pub mul: u64,
    /// `div`/`divu`.
    pub div: u64,
}

impl Default for CycleModel {
    fn default() -> Self {
        CycleModel {
            alu: 1,
            load: 2,
            store: 2,
            mul: 17,
            div: 33,
        }
    }
}

/// The simulator: 32 general registers, HI/LO, delayed branches.
#[derive(Debug, Clone)]
pub struct Mips {
    regs: [u32; 32],
    hi: u32,
    lo: u32,
    pc: u32,
    next_pc: u32,
    mem: Memory,
    cycles: u64,
    halted: bool,
    model: CycleModel,
}

impl Mips {
    /// Creates a CPU with its program counter at `entry`.
    #[must_use]
    pub fn new(mem: Memory, entry: u32) -> Self {
        Mips {
            regs: [0; 32],
            hi: 0,
            lo: 0,
            pc: entry,
            next_pc: entry.wrapping_add(4),
            mem,
            cycles: 0,
            halted: false,
            model: CycleModel::default(),
        }
    }

    /// Reads a register (register 0 is always zero).
    #[must_use]
    pub fn reg(&self, r: u8) -> u32 {
        self.regs[r as usize]
    }

    /// Writes a register (writes to register 0 are discarded).
    pub fn set_reg(&mut self, r: u8, v: u32) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Elapsed cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// `true` once the program executed `break`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The memory (e.g. to drain the TX port).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Executes one instruction (the delay-slot instruction of a taken
    /// branch counts as its own step).
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] raised by fetch, decode or the operation itself.
    pub fn step(&mut self) -> Result<(), ExecError> {
        if self.halted {
            return Ok(());
        }
        let fetch_pc = self.pc;
        let word = self.mem.load_word(fetch_pc)?;
        let instr = decode(word, fetch_pc)?;
        // Advance the pc pair before executing so branches can overwrite
        // `next_pc` (giving the canonical one-instruction delay slot).
        self.pc = self.next_pc;
        self.next_pc = self.pc.wrapping_add(4);
        self.execute(instr, fetch_pc)
    }

    /// Runs until `break` or the cycle budget expires.
    ///
    /// # Errors
    ///
    /// [`ExecError::CycleBudgetExhausted`] or any fault from [`Mips::step`].
    pub fn run(&mut self, max_cycles: u64) -> Result<(), ExecError> {
        while !self.halted {
            if self.cycles >= max_cycles {
                return Err(ExecError::CycleBudgetExhausted { budget: max_cycles });
            }
            self.step()?;
        }
        Ok(())
    }

    fn branch_target(fetch_pc: u32, offset: i16) -> u32 {
        fetch_pc
            .wrapping_add(4)
            .wrapping_add((i32::from(offset) << 2) as u32)
    }

    #[allow(clippy::too_many_lines)] // one arm per instruction; splitting hurts readability
    fn execute(&mut self, instr: Instr, fetch_pc: u32) -> Result<(), ExecError> {
        use Instr::*;
        let m = self.model;
        self.cycles += match instr {
            Lb { .. } | Lh { .. } | Lw { .. } | Lbu { .. } | Lhu { .. } => m.load,
            Sb { .. } | Sh { .. } | Sw { .. } => m.store,
            Mult { .. } | Multu { .. } => m.mul,
            Div { .. } | Divu { .. } => m.div,
            _ => m.alu,
        };
        match instr {
            Sll { rd, rt, sa } => self.set_reg(rd, self.reg(rt) << sa),
            Srl { rd, rt, sa } => self.set_reg(rd, self.reg(rt) >> sa),
            Sra { rd, rt, sa } => self.set_reg(rd, ((self.reg(rt) as i32) >> sa) as u32),
            Sllv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) << (self.reg(rs) & 31)),
            Srlv { rd, rt, rs } => self.set_reg(rd, self.reg(rt) >> (self.reg(rs) & 31)),
            Srav { rd, rt, rs } => {
                self.set_reg(rd, ((self.reg(rt) as i32) >> (self.reg(rs) & 31)) as u32);
            }
            Jr { rs } => self.next_pc = self.reg(rs),
            Jalr { rd, rs } => {
                let target = self.reg(rs);
                self.set_reg(rd, fetch_pc.wrapping_add(8));
                self.next_pc = target;
            }
            Break => self.halted = true,
            Mfhi { rd } => self.set_reg(rd, self.hi),
            Mthi { rs } => self.hi = self.reg(rs),
            Mflo { rd } => self.set_reg(rd, self.lo),
            Mtlo { rs } => self.lo = self.reg(rs),
            Mult { rs, rt } => {
                let prod =
                    i64::from(self.reg(rs) as i32).wrapping_mul(i64::from(self.reg(rt) as i32));
                self.hi = (prod >> 32) as u32;
                self.lo = prod as u32;
            }
            Multu { rs, rt } => {
                let prod = u64::from(self.reg(rs)) * u64::from(self.reg(rt));
                self.hi = (prod >> 32) as u32;
                self.lo = prod as u32;
            }
            Div { rs, rt } => {
                let d = self.reg(rt) as i32;
                if d == 0 {
                    return Err(ExecError::DivisionByZero { pc: fetch_pc });
                }
                let n = self.reg(rs) as i32;
                self.lo = n.wrapping_div(d) as u32;
                self.hi = n.wrapping_rem(d) as u32;
            }
            Divu { rs, rt } => {
                let d = self.reg(rt);
                if d == 0 {
                    return Err(ExecError::DivisionByZero { pc: fetch_pc });
                }
                let n = self.reg(rs);
                self.lo = n / d;
                self.hi = n % d;
            }
            Addu { rd, rs, rt } => self.set_reg(rd, self.reg(rs).wrapping_add(self.reg(rt))),
            Subu { rd, rs, rt } => self.set_reg(rd, self.reg(rs).wrapping_sub(self.reg(rt))),
            And { rd, rs, rt } => self.set_reg(rd, self.reg(rs) & self.reg(rt)),
            Or { rd, rs, rt } => self.set_reg(rd, self.reg(rs) | self.reg(rt)),
            Xor { rd, rs, rt } => self.set_reg(rd, self.reg(rs) ^ self.reg(rt)),
            Nor { rd, rs, rt } => self.set_reg(rd, !(self.reg(rs) | self.reg(rt))),
            Slt { rd, rs, rt } => {
                self.set_reg(rd, u32::from((self.reg(rs) as i32) < (self.reg(rt) as i32)));
            }
            Sltu { rd, rs, rt } => self.set_reg(rd, u32::from(self.reg(rs) < self.reg(rt))),
            Beq { rs, rt, offset } => {
                if self.reg(rs) == self.reg(rt) {
                    self.next_pc = Self::branch_target(fetch_pc, offset);
                }
            }
            Bne { rs, rt, offset } => {
                if self.reg(rs) != self.reg(rt) {
                    self.next_pc = Self::branch_target(fetch_pc, offset);
                }
            }
            Blez { rs, offset } => {
                if (self.reg(rs) as i32) <= 0 {
                    self.next_pc = Self::branch_target(fetch_pc, offset);
                }
            }
            Bgtz { rs, offset } => {
                if (self.reg(rs) as i32) > 0 {
                    self.next_pc = Self::branch_target(fetch_pc, offset);
                }
            }
            Bltz { rs, offset } => {
                if (self.reg(rs) as i32) < 0 {
                    self.next_pc = Self::branch_target(fetch_pc, offset);
                }
            }
            Bgez { rs, offset } => {
                if (self.reg(rs) as i32) >= 0 {
                    self.next_pc = Self::branch_target(fetch_pc, offset);
                }
            }
            Addiu { rt, rs, imm } => {
                self.set_reg(rt, self.reg(rs).wrapping_add(imm as i32 as u32));
            }
            Slti { rt, rs, imm } => {
                self.set_reg(rt, u32::from((self.reg(rs) as i32) < i32::from(imm)));
            }
            Sltiu { rt, rs, imm } => {
                self.set_reg(rt, u32::from(self.reg(rs) < (imm as i32 as u32)));
            }
            Andi { rt, rs, imm } => self.set_reg(rt, self.reg(rs) & u32::from(imm)),
            Ori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) | u32::from(imm)),
            Xori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) ^ u32::from(imm)),
            Lui { rt, imm } => self.set_reg(rt, u32::from(imm) << 16),
            Lb { rt, rs, offset } => {
                let addr = self.reg(rs).wrapping_add(offset as i32 as u32);
                let v = self.mem.load_byte(addr)? as i8;
                self.set_reg(rt, v as i32 as u32);
            }
            Lh { rt, rs, offset } => {
                let addr = self.reg(rs).wrapping_add(offset as i32 as u32);
                let v = self.mem.load_half(addr)? as i16;
                self.set_reg(rt, v as i32 as u32);
            }
            Lw { rt, rs, offset } => {
                let addr = self.reg(rs).wrapping_add(offset as i32 as u32);
                let v = self.mem.load_word(addr)?;
                self.set_reg(rt, v);
            }
            Lbu { rt, rs, offset } => {
                let addr = self.reg(rs).wrapping_add(offset as i32 as u32);
                let v = self.mem.load_byte(addr)?;
                self.set_reg(rt, u32::from(v));
            }
            Lhu { rt, rs, offset } => {
                let addr = self.reg(rs).wrapping_add(offset as i32 as u32);
                let v = self.mem.load_half(addr)?;
                self.set_reg(rt, u32::from(v));
            }
            Sb { rt, rs, offset } => {
                let addr = self.reg(rs).wrapping_add(offset as i32 as u32);
                self.mem.store_byte(addr, self.reg(rt) as u8)?;
            }
            Sh { rt, rs, offset } => {
                let addr = self.reg(rs).wrapping_add(offset as i32 as u32);
                self.mem.store_half(addr, self.reg(rt) as u16)?;
            }
            Sw { rt, rs, offset } => {
                let addr = self.reg(rs).wrapping_add(offset as i32 as u32);
                self.mem.store_word(addr, self.reg(rt))?;
            }
            J { target } => {
                self.next_pc = (fetch_pc.wrapping_add(4) & 0xF000_0000) | (target << 2);
            }
            Jal { target } => {
                self.set_reg(31, fetch_pc.wrapping_add(8));
                self.next_pc = (fetch_pc.wrapping_add(4) & 0xF000_0000) | (target << 2);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_asm(src: &str) -> Mips {
        let image = assemble(src).expect("test program assembles");
        let mut mem = Memory::new(64 * 1024);
        mem.load_image(0, &image).unwrap();
        let mut cpu = Mips::new(mem, 0);
        cpu.run(1_000_000).expect("test program halts");
        cpu
    }

    #[test]
    fn arithmetic_and_halt() {
        let cpu = run_asm(
            "addiu $t0, $zero, 5\n\
             addiu $t1, $zero, 7\n\
             addu  $t2, $t0, $t1\n\
             break\n",
        );
        assert_eq!(cpu.reg(10), 12);
        assert!(cpu.is_halted());
    }

    #[test]
    fn register_zero_is_immutable() {
        let cpu = run_asm("addiu $zero, $zero, 99\nbreak\n");
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn branch_delay_slot_executes() {
        // The addiu in the delay slot must execute even though the branch
        // is taken.
        let cpu = run_asm(
            "addiu $t0, $zero, 1\n\
             beq   $zero, $zero, done\n\
             addiu $t0, $t0, 10\n\
             addiu $t0, $t0, 100\n\
             done: break\n",
        );
        assert_eq!(cpu.reg(8), 11);
    }

    #[test]
    fn jal_links_past_delay_slot() {
        let cpu = run_asm(
            "jal sub\n\
             addiu $t0, $zero, 1\n\
             break\n\
             sub: jr $ra\n\
             nop\n",
        );
        // jal at 0: $ra = 8 (the break), delay slot at 4 runs.
        assert_eq!(cpu.reg(8), 1);
        assert!(cpu.is_halted());
    }

    #[test]
    fn loop_counts_cycles() {
        let cpu = run_asm(
            "addiu $t0, $zero, 10\n\
             loop: addiu $t0, $t0, -1\n\
             bne $t0, $zero, loop\n\
             nop\n\
             break\n",
        );
        assert_eq!(cpu.reg(8), 0);
        // 1 (init) + 10 * (addiu + bne + nop) + break = 32 cycles.
        assert_eq!(cpu.cycles(), 32);
    }

    #[test]
    fn memory_ops_roundtrip() {
        let cpu = run_asm(
            "addiu $t0, $zero, 0x100\n\
             addiu $t1, $zero, -2\n\
             sw $t1, 4($t0)\n\
             lw $t2, 4($t0)\n\
             lb $t3, 4($t0)\n\
             lbu $t4, 4($t0)\n\
             break\n",
        );
        assert_eq!(cpu.reg(10), 0xFFFF_FFFE);
        assert_eq!(cpu.reg(11), 0xFFFF_FFFF); // sign-extended 0xFF
        assert_eq!(cpu.reg(12), 0xFF);
    }

    #[test]
    fn hi_lo_multiply() {
        let cpu = run_asm(
            "lui $t0, 0x8000\n\
             addiu $t1, $zero, 2\n\
             multu $t0, $t1\n\
             mfhi $t2\n\
             mflo $t3\n\
             break\n",
        );
        assert_eq!(cpu.reg(10), 1);
        assert_eq!(cpu.reg(11), 0);
    }

    #[test]
    fn division_by_zero_faults() {
        let image = assemble("div $zero, $zero\nbreak\n").unwrap();
        let mut mem = Memory::new(1024);
        mem.load_image(0, &image).unwrap();
        let mut cpu = Mips::new(mem, 0);
        assert!(matches!(
            cpu.run(100),
            Err(ExecError::DivisionByZero { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_detected() {
        let image = assemble("loop: j loop\nnop\n").unwrap();
        let mut mem = Memory::new(1024);
        mem.load_image(0, &image).unwrap();
        let mut cpu = Mips::new(mem, 0);
        assert_eq!(
            cpu.run(50),
            Err(ExecError::CycleBudgetExhausted { budget: 50 })
        );
    }

    #[test]
    fn slt_family() {
        let cpu = run_asm(
            "addiu $t0, $zero, -1\n\
             addiu $t1, $zero, 1\n\
             slt  $t2, $t0, $t1\n\
             sltu $t3, $t0, $t1\n\
             slti $t4, $t0, 0\n\
             sltiu $t5, $t1, 2\n\
             break\n",
        );
        assert_eq!(cpu.reg(10), 1); // -1 < 1 signed
        assert_eq!(cpu.reg(11), 0); // 0xFFFFFFFF > 1 unsigned
        assert_eq!(cpu.reg(12), 1);
        assert_eq!(cpu.reg(13), 1);
    }

    #[test]
    fn jalr_links_and_jumps() {
        let cpu = run_asm(
            "addiu $t0, $zero, 20\n\
             jalr $t0\n\
             nop\n\
             addiu $t1, $zero, 1\n\
             break\n\
             addiu $t2, $zero, 2\n\
             jr $ra\n\
             nop\n",
        );
        // jalr at 4: $ra = 12; target 20 sets $t2 then returns to break? No:
        // jr $ra returns to 12, which sets $t1, then break at 16.
        assert_eq!(cpu.reg(10), 2);
        assert_eq!(cpu.reg(9), 1);
        assert_eq!(cpu.reg(31), 12);
    }

    #[test]
    fn halfword_roundtrip_and_sign() {
        let cpu = run_asm(
            "addiu $t0, $zero, 0x200\n\
             addiu $t1, $zero, -3\n\
             sh $t1, 2($t0)\n\
             lh $t2, 2($t0)\n\
             lhu $t3, 2($t0)\n\
             break\n",
        );
        assert_eq!(cpu.reg(10) as i32, -3);
        assert_eq!(cpu.reg(11), 0xFFFD);
    }

    #[test]
    fn xori_and_nor() {
        let cpu = run_asm(
            "addiu $t0, $zero, 0xFF\n\
             xori $t1, $t0, 0x0F\n\
             nor $t2, $t0, $zero\n\
             break\n",
        );
        assert_eq!(cpu.reg(9), 0xF0);
        assert_eq!(cpu.reg(10), !0xFFu32);
    }

    #[test]
    fn variable_shifts() {
        let cpu = run_asm(
            "addiu $t0, $zero, 3\n\
             addiu $t1, $zero, -32\n\
             sllv $t2, $t1, $t0\n\
             srlv $t3, $t2, $t0\n\
             srav $t4, $t1, $t0\n\
             break\n",
        );
        assert_eq!(cpu.reg(10), (-32i32 << 3) as u32);
        assert_eq!(cpu.reg(11), ((-32i32 << 3) as u32) >> 3);
        assert_eq!(cpu.reg(12) as i32, -4);
    }

    #[test]
    fn shifts() {
        let cpu = run_asm(
            "addiu $t0, $zero, -8\n\
             sra $t1, $t0, 1\n\
             srl $t2, $t0, 1\n\
             sll $t3, $t0, 1\n\
             break\n",
        );
        assert_eq!(cpu.reg(9) as i32, -4);
        assert_eq!(cpu.reg(10), 0x7FFF_FFFC);
        assert_eq!(cpu.reg(11) as i32, -16);
    }
}
