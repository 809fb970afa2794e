//! SPARC V8 instruction-set simulator (Leon-like): register windows,
//! integer condition codes, delayed control transfer with annul bits.

pub mod asm;
pub mod decode;

pub use asm::assemble;
pub use decode::{decode, AluOp, Cond, Instr, Operand2};

use crate::error::ExecError;
use crate::mem::Memory;

/// Number of register windows (Leon's default configuration).
pub const NWINDOWS: usize = 8;

/// Per-class cycle costs, defaulted to Leon-2-like timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleModel {
    /// ALU / sethi / save / restore.
    pub alu: u64,
    /// Loads (data cache hit).
    pub load: u64,
    /// Stores.
    pub store: u64,
    /// Taken/untaken branches, call, jmpl.
    pub branch: u64,
    /// `umul`/`smul`.
    pub mul: u64,
}

impl Default for CycleModel {
    fn default() -> Self {
        CycleModel {
            alu: 1,
            load: 2,
            store: 3,
            branch: 1,
            mul: 5,
        }
    }
}

/// Integer condition codes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Icc {
    /// Negative.
    pub n: bool,
    /// Zero.
    pub z: bool,
    /// Overflow.
    pub v: bool,
    /// Carry.
    pub c: bool,
}

/// The simulator.
#[derive(Debug, Clone)]
pub struct Sparc {
    globals: [u32; 8],
    /// Windowed registers: a circular file of `NWINDOWS * 16` (8 local +
    /// 8 in per window; the out registers alias the next window's ins).
    windowed: [u32; NWINDOWS * 16],
    cwp: usize,
    /// `save` depth from the starting window, to detect over/underflow.
    depth: usize,
    icc: Icc,
    y: u32,
    pc: u32,
    npc: u32,
    /// Pending annul of the instruction at `pc` (set by annulling branches).
    annul_next: bool,
    mem: Memory,
    cycles: u64,
    halted: bool,
    model: CycleModel,
}

impl Sparc {
    /// Creates a CPU with its program counter at `entry`.
    #[must_use]
    pub fn new(mem: Memory, entry: u32) -> Self {
        Sparc {
            globals: [0; 8],
            windowed: [0; NWINDOWS * 16],
            cwp: 0,
            depth: 0,
            icc: Icc::default(),
            y: 0,
            pc: entry,
            npc: entry.wrapping_add(4),
            annul_next: false,
            mem,
            cycles: 0,
            halted: false,
            model: CycleModel::default(),
        }
    }

    fn windowed_index(&self, reg: u8) -> usize {
        // reg 8..=15 out, 16..=23 local, 24..=31 in.
        // Window w's outs alias window (w+1)'s ins: place window w at base
        // w*16, with outs at [base..base+8], locals at [base+8..base+16],
        // ins at [(base+16) % len .. +8].
        let base = self.cwp * 16;
        let len = self.windowed.len();
        match reg {
            8..=15 => (base + (reg as usize - 8)) % len,
            16..=23 => (base + 8 + (reg as usize - 16)) % len,
            24..=31 => (base + 16 + (reg as usize - 24)) % len,
            _ => unreachable!("windowed_index called for a global"),
        }
    }

    /// Reads register `r` (0 = always zero; 1..=7 globals; 8..=31
    /// windowed).
    #[must_use]
    pub fn reg(&self, r: u8) -> u32 {
        match r {
            0 => 0,
            1..=7 => self.globals[r as usize],
            _ => self.windowed[self.windowed_index(r)],
        }
    }

    /// Writes register `r` (writes to %g0 are discarded).
    pub fn set_reg(&mut self, r: u8, v: u32) {
        match r {
            0 => {}
            1..=7 => self.globals[r as usize] = v,
            _ => {
                let idx = self.windowed_index(r);
                self.windowed[idx] = v;
            }
        }
    }

    /// Elapsed cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// `true` once the program executed `ta` (trap always).
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Current window pointer (for tests).
    #[must_use]
    pub fn cwp(&self) -> usize {
        self.cwp
    }

    /// Condition codes (for tests).
    #[must_use]
    pub fn icc(&self) -> Icc {
        self.icc
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

    fn cond_holds(&self, cond: Cond) -> bool {
        let Icc { n, z, v, c } = self.icc;
        match cond {
            Cond::Never => false,
            Cond::Always => true,
            Cond::Equal => z,
            Cond::NotEqual => !z,
            Cond::Greater => !(z || (n != v)),
            Cond::LessOrEqual => z || (n != v),
            Cond::GreaterOrEqual => n == v,
            Cond::Less => n != v,
            Cond::GreaterUnsigned => !(c || z),
            Cond::LessOrEqualUnsigned => c || z,
            Cond::CarryClear => !c,
            Cond::CarrySet => c,
            Cond::Positive => !n,
            Cond::Negative => n,
            Cond::OverflowClear => !v,
            Cond::OverflowSet => v,
        }
    }

    fn operand2(&self, op2: Operand2) -> u32 {
        match op2 {
            Operand2::Reg(r) => self.reg(r),
            Operand2::Imm(i) => i as u32,
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] raised by fetch, decode or the operation,
    /// including register-window overflow/underflow.
    pub fn step(&mut self) -> Result<(), ExecError> {
        if self.halted {
            return Ok(());
        }
        let fetch_pc = self.pc;
        if self.annul_next {
            // The annulled delay-slot instruction consumes fetch but not
            // execute; Leon charges one cycle.
            self.annul_next = false;
            self.cycles += 1;
            self.pc = self.npc;
            self.npc = self.npc.wrapping_add(4);
            return Ok(());
        }
        let word = self.mem.load_word(fetch_pc)?;
        let instr = decode(word, fetch_pc)?;
        self.pc = self.npc;
        self.npc = self.npc.wrapping_add(4);
        self.execute(instr, fetch_pc)
    }

    /// Runs until `ta` or the cycle budget expires.
    ///
    /// # Errors
    ///
    /// [`ExecError::CycleBudgetExhausted`] or any fault from
    /// [`Sparc::step`].
    pub fn run(&mut self, max_cycles: u64) -> Result<(), ExecError> {
        while !self.halted {
            if self.cycles >= max_cycles {
                return Err(ExecError::CycleBudgetExhausted { budget: max_cycles });
            }
            self.step()?;
        }
        Ok(())
    }

    fn alu_compute(&mut self, op: AluOp, a: u32, b: u32) -> u32 {
        match op {
            AluOp::Add | AluOp::AddCc => {
                let (r, carry) = a.overflowing_add(b);
                if op == AluOp::AddCc {
                    let v = ((a ^ !b) & (a ^ r)) >> 31 != 0;
                    self.set_icc(r, v, carry);
                }
                r
            }
            AluOp::Sub | AluOp::SubCc => {
                let (r, borrow) = a.overflowing_sub(b);
                if op == AluOp::SubCc {
                    let v = ((a ^ b) & (a ^ r)) >> 31 != 0;
                    self.set_icc(r, v, borrow);
                }
                r
            }
            AluOp::And | AluOp::AndCc => {
                let r = a & b;
                if op == AluOp::AndCc {
                    self.set_icc(r, false, false);
                }
                r
            }
            AluOp::Or | AluOp::OrCc => {
                let r = a | b;
                if op == AluOp::OrCc {
                    self.set_icc(r, false, false);
                }
                r
            }
            AluOp::Xor | AluOp::XorCc => {
                let r = a ^ b;
                if op == AluOp::XorCc {
                    self.set_icc(r, false, false);
                }
                r
            }
            AluOp::AndN => a & !b,
            AluOp::OrN => a | !b,
            AluOp::XNor => !(a ^ b),
            AluOp::Sll => a << (b & 31),
            AluOp::Srl => a >> (b & 31),
            AluOp::Sra => ((a as i32) >> (b & 31)) as u32,
            AluOp::UMul => {
                let prod = u64::from(a) * u64::from(b);
                self.y = (prod >> 32) as u32;
                prod as u32
            }
            AluOp::SMul => {
                let prod = i64::from(a as i32).wrapping_mul(i64::from(b as i32));
                self.y = (prod >> 32) as u32;
                prod as u32
            }
        }
    }

    fn set_icc(&mut self, result: u32, v: bool, c: bool) {
        self.icc = Icc {
            n: (result as i32) < 0,
            z: result == 0,
            v,
            c,
        };
    }

    fn execute(&mut self, instr: Instr, fetch_pc: u32) -> Result<(), ExecError> {
        let m = self.model;
        self.cycles += match instr {
            Instr::Load { .. } => m.load,
            Instr::Store { .. } => m.store,
            Instr::Branch { .. } | Instr::Call { .. } | Instr::Jmpl { .. } => m.branch,
            Instr::Alu {
                op: AluOp::UMul | AluOp::SMul,
                ..
            } => m.mul,
            _ => m.alu,
        };
        match instr {
            Instr::SetHi { rd, imm22 } => self.set_reg(rd, imm22 << 10),
            Instr::Branch {
                cond,
                annul,
                disp22,
            } => {
                let taken = self.cond_holds(cond);
                if taken {
                    self.npc = fetch_pc.wrapping_add((disp22 << 2) as u32);
                    // `ba,a` annuls its delay slot even though taken.
                    if annul && cond == Cond::Always {
                        self.annul_next = true;
                    }
                } else if annul {
                    self.annul_next = true;
                }
            }
            Instr::Call { disp30 } => {
                // %o7 (r15) receives the call's own address.
                self.set_reg(15, fetch_pc);
                self.npc = fetch_pc.wrapping_add((disp30 << 2) as u32);
            }
            Instr::Alu { op, rd, rs1, op2 } => {
                let a = self.reg(rs1);
                let b = self.operand2(op2);
                let r = self.alu_compute(op, a, b);
                self.set_reg(rd, r);
            }
            Instr::Jmpl { rd, rs1, op2 } => {
                let target = self.reg(rs1).wrapping_add(self.operand2(op2));
                self.set_reg(rd, fetch_pc);
                self.npc = target;
            }
            Instr::Save { rd, rs1, op2 } => {
                if self.depth + 1 >= NWINDOWS {
                    return Err(ExecError::WindowOverflow { cwp: self.cwp });
                }
                let a = self.reg(rs1);
                let b = self.operand2(op2);
                let r = a.wrapping_add(b);
                // SPARC `save` decrements CWP: with the mapping in
                // `windowed_index`, window w's ins alias window (w+1)'s
                // outs, so the caller's outs become the callee's ins.
                self.cwp = (self.cwp + NWINDOWS - 1) % NWINDOWS;
                self.depth += 1;
                // rd is written in the *new* window.
                self.set_reg(rd, r);
            }
            Instr::Restore { rd, rs1, op2 } => {
                if self.depth == 0 {
                    return Err(ExecError::WindowUnderflow { cwp: self.cwp });
                }
                let a = self.reg(rs1);
                let b = self.operand2(op2);
                let r = a.wrapping_add(b);
                self.cwp = (self.cwp + 1) % NWINDOWS;
                self.depth -= 1;
                self.set_reg(rd, r);
            }
            Instr::Load {
                rd,
                rs1,
                op2,
                width,
                signed,
            } => {
                let addr = self.reg(rs1).wrapping_add(self.operand2(op2));
                let v = match (width, signed) {
                    (4, _) => self.mem.load_word(addr)?,
                    (2, false) => u32::from(self.mem.load_half(addr)?),
                    (2, true) => self.mem.load_half(addr)? as i16 as i32 as u32,
                    (1, false) => u32::from(self.mem.load_byte(addr)?),
                    (1, true) => self.mem.load_byte(addr)? as i8 as i32 as u32,
                    _ => unreachable!("decoder only emits widths 1/2/4"),
                };
                self.set_reg(rd, v);
            }
            Instr::Store {
                rd,
                rs1,
                op2,
                width,
            } => {
                let addr = self.reg(rs1).wrapping_add(self.operand2(op2));
                let v = self.reg(rd);
                match width {
                    4 => self.mem.store_word(addr, v)?,
                    2 => self.mem.store_half(addr, v as u16)?,
                    1 => self.mem.store_byte(addr, v as u8)?,
                    _ => unreachable!("decoder only emits widths 1/2/4"),
                }
            }
            Instr::Trap { .. } => self.halted = true,
            Instr::RdY { rd } => self.set_reg(rd, self.y),
            Instr::WrY { rs1, op2 } => self.y = self.reg(rs1) ^ self.operand2(op2),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_asm(src: &str) -> Sparc {
        let image = assemble(src).expect("test program assembles");
        let mut mem = Memory::new(64 * 1024);
        mem.load_image(0, &image).unwrap();
        let mut cpu = Sparc::new(mem, 0);
        cpu.run(1_000_000).expect("test program halts");
        cpu
    }

    #[test]
    fn sethi_or_builds_constant() {
        let cpu = run_asm(
            "sethi %hi(0x80200003), %g2\n\
             or %g2, %lo(0x80200003), %g2\n\
             ta 0\n",
        );
        assert_eq!(cpu.reg(2), 0x8020_0003);
    }

    #[test]
    fn g0_reads_zero() {
        let cpu = run_asm("or %g0, 55, %g0\nta 0\n");
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn condition_codes_drive_branches() {
        let cpu = run_asm(
            "or %g0, 3, %g1\n\
             subcc %g1, 3, %g0\n\
             be equal\n\
             nop\n\
             or %g0, 111, %g3\n\
             ta 0\n\
             equal: or %g0, 222, %g3\n\
             ta 0\n",
        );
        assert_eq!(cpu.reg(3), 222);
    }

    #[test]
    fn delay_slot_executes_on_taken_branch() {
        let cpu = run_asm(
            "ba done\n\
             or %g0, 7, %g4\n\
             or %g0, 9, %g4\n\
             done: ta 0\n",
        );
        assert_eq!(cpu.reg(4), 7);
    }

    #[test]
    fn ba_annul_squashes_delay_slot() {
        let cpu = run_asm(
            "ba,a done\n\
             or %g0, 7, %g4\n\
             done: ta 0\n",
        );
        assert_eq!(cpu.reg(4), 0);
    }

    #[test]
    fn untaken_annulled_branch_squashes_delay_slot() {
        let cpu = run_asm(
            "subcc %g0, %g0, %g0\n\
             bne,a away\n\
             or %g0, 7, %g4\n\
             ta 0\n\
             away: or %g0, 9, %g4\n\
             ta 0\n",
        );
        // bne on Z=1 is untaken; the annul bit kills the or.
        assert_eq!(cpu.reg(4), 0);
    }

    #[test]
    fn untaken_plain_branch_executes_delay_slot() {
        let cpu = run_asm(
            "subcc %g0, %g0, %g0\n\
             bne away\n\
             or %g0, 7, %g4\n\
             ta 0\n\
             away: or %g0, 9, %g4\n\
             ta 0\n",
        );
        assert_eq!(cpu.reg(4), 7);
    }

    #[test]
    fn save_restore_window_shift() {
        let cpu = run_asm(
            "or %g0, 42, %o0\n\
             save %g0, 0, %g0\n\
             or %i0, %g0, %l0\n\
             restore %g0, 0, %g0\n\
             ta 0\n",
        );
        // After save, the old %o0 is visible as %i0.
        assert_eq!(cpu.reg(8), 42); // back in the original window: %o0
        assert_eq!(cpu.cwp(), 0);
    }

    #[test]
    fn window_underflow_detected() {
        let image = assemble("restore %g0, 0, %g0\nta 0\n").unwrap();
        let mut mem = Memory::new(1024);
        mem.load_image(0, &image).unwrap();
        let mut cpu = Sparc::new(mem, 0);
        assert!(matches!(
            cpu.run(100),
            Err(ExecError::WindowUnderflow { .. })
        ));
    }

    #[test]
    fn window_overflow_detected() {
        let mut src = String::new();
        for _ in 0..NWINDOWS {
            src.push_str("save %g0, 0, %g0\n");
        }
        src.push_str("ta 0\n");
        let image = assemble(&src).unwrap();
        let mut mem = Memory::new(4096);
        mem.load_image(0, &image).unwrap();
        let mut cpu = Sparc::new(mem, 0);
        assert!(matches!(
            cpu.run(1000),
            Err(ExecError::WindowOverflow { .. })
        ));
    }

    #[test]
    fn call_links_o7_and_ret_returns() {
        let cpu = run_asm(
            "call sub\n\
             nop\n\
             or %g0, 5, %g5\n\
             ta 0\n\
             sub: jmpl %o7+8, %g0\n\
             nop\n",
        );
        assert_eq!(cpu.reg(5), 5);
        assert!(cpu.is_halted());
    }

    #[test]
    fn memory_roundtrip() {
        let cpu = run_asm(
            "or %g0, 0x100, %g1\n\
             or %g0, 0xAB, %g2\n\
             st %g2, [%g1]\n\
             ld [%g1], %g3\n\
             stb %g2, [%g1+7]\n\
             ldub [%g1+7], %g4\n\
             ta 0\n",
        );
        assert_eq!(cpu.reg(3), 0xAB);
        assert_eq!(cpu.reg(4), 0xAB);
    }

    #[test]
    fn umul_sets_y() {
        let cpu = run_asm(
            "sethi %hi(0x80000000), %g1\n\
             or %g0, 4, %g2\n\
             umul %g1, %g2, %g3\n\
             rd %y, %g4\n\
             ta 0\n",
        );
        assert_eq!(cpu.reg(3), 0);
        assert_eq!(cpu.reg(4), 2);
    }

    #[test]
    fn bitwise_negated_ops() {
        let cpu = run_asm(
            "mov 0xF0, %g1\n\
             mov 0x0F, %g2\n\
             andn %g1, %g2, %g3\n\
             orn  %g0, %g2, %g4\n\
             xnor %g1, %g1, %g5\n\
             ta 0\n",
        );
        assert_eq!(cpu.reg(3), 0xF0);
        assert_eq!(cpu.reg(4), !0x0Fu32);
        assert_eq!(cpu.reg(5), u32::MAX);
    }

    #[test]
    fn wr_y_then_rd_y() {
        let cpu = run_asm(
            "mov 0x55, %g1\n\
             wr %g1, 0, %y\n\
             rd %y, %g2\n\
             ta 0\n",
        );
        assert_eq!(cpu.reg(2), 0x55);
    }

    #[test]
    fn signed_halfword_and_byte_loads() {
        let cpu = run_asm(
            "mov 0x100, %g1\n\
             mov -1, %g2\n\
             sth %g2, [%g1]\n\
             ldsh [%g1], %g3\n\
             lduh [%g1], %g4\n\
             stb %g2, [%g1+4]\n\
             ldsb [%g1+4], %g5\n\
             ta 0\n",
        );
        assert_eq!(cpu.reg(3), u32::MAX); // sign extended
        assert_eq!(cpu.reg(4), 0xFFFF);
        assert_eq!(cpu.reg(5), u32::MAX);
    }

    #[test]
    fn unsigned_branches() {
        let cpu = run_asm(
            "mov -1, %g1\n\
             cmp %g1, 1\n\
             bgu big\n\
             nop\n\
             mov 7, %g3\n\
             ta 0\n\
             big: mov 9, %g3\n\
             ta 0\n",
        );
        // 0xFFFFFFFF > 1 unsigned: bgu taken.
        assert_eq!(cpu.reg(3), 9);
    }

    #[test]
    fn subcc_sets_flags() {
        let cpu = run_asm(
            "or %g0, 1, %g1\n\
             subcc %g1, 2, %g2\n\
             ta 0\n",
        );
        assert!(cpu.icc().n);
        assert!(!cpu.icc().z);
        assert!(cpu.icc().c); // borrow
        assert_eq!(cpu.reg(2), u32::MAX);
    }
}
