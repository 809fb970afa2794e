//! A small two-pass MIPS-I assembler.
//!
//! Supports the instruction subset of [`mod@super::decode`], labels, `#`
//! comments, the `.word` directive, decimal/hex immediates and the usual
//! register names. Pseudo-instructions: `nop`, `move`, `li`, `b`. Line
//! cleaning, labels, `.word` and numbers come from the front end shared
//! with the SPARC assembler; this module holds the registers, operand
//! forms and encoder.
//!
//! ```
//! let program = noctest_cpu::mips::assemble(
//!     "li $t0, 0x8020\n\
//!      loop: addiu $t0, $t0, -1\n\
//!      bne $t0, $zero, loop\n\
//!      nop\n\
//!      break\n",
//! )?;
//! assert!(!program.is_empty());
//! # Ok::<(), noctest_cpu::mips::asm::AsmError>(())
//! ```

use crate::asm::{self, err, need, parse_i64, Dialect, Labels};
pub use crate::error::AsmError;

/// Assembles MIPS-I source into instruction words (base address 0).
///
/// # Errors
///
/// Returns [`AsmError`] with a line number for syntax errors, unknown
/// mnemonics/registers, out-of-range immediates, bad `.word` values and
/// undefined or redefined labels.
pub fn assemble(src: &str) -> Result<Vec<u32>, AsmError> {
    asm::assemble(&MIPS, src)
}

const MIPS: Dialect = Dialect {
    comment: &['#'],
    is_label: |label| !label.contains(char::is_whitespace),
    split_args: |text| {
        text.split(',')
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .collect()
    },
    encode,
};

fn reg(name: &str, line: usize) -> Result<u8, AsmError> {
    const NAMES: [&str; 32] = [
        "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
        "t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "t8", "t9", "k0", "k1", "gp", "sp",
        "fp", "ra",
    ];
    let n = name
        .strip_prefix('$')
        .ok_or_else(|| err(line, format!("expected register, found `{name}`")))?;
    if let Ok(num) = n.parse::<u8>() {
        if num < 32 {
            return Ok(num);
        }
    }
    NAMES
        .iter()
        .position(|&x| x == n)
        .map(|i| i as u8)
        .ok_or_else(|| err(line, format!("unknown register `{name}`")))
}

fn imm16(tok: &str, line: usize) -> Result<u16, AsmError> {
    let v = parse_i64(tok).ok_or_else(|| err(line, format!("bad immediate `{tok}`")))?;
    if (-32768..=65535).contains(&v) {
        Ok(v as u16)
    } else {
        Err(err(line, format!("immediate `{tok}` out of 16-bit range")))
    }
}

/// Parses `offset(base)` memory operands.
fn mem_operand(tok: &str, line: usize) -> Result<(u16, u8), AsmError> {
    let open = tok
        .find('(')
        .ok_or_else(|| err(line, format!("expected offset(base), found `{tok}`")))?;
    let close = tok
        .rfind(')')
        .ok_or_else(|| err(line, format!("missing `)` in `{tok}`")))?;
    let off_str = tok[..open].trim();
    let offset = if off_str.is_empty() {
        0
    } else {
        imm16(off_str, line)?
    };
    let base = reg(tok[open + 1..close].trim(), line)?;
    Ok((offset, base))
}

fn branch_offset(target: &str, pc: u32, line: usize, labels: &Labels) -> Result<u16, AsmError> {
    let dest = asm::target(target, line, labels)?;
    let diff = (i64::from(dest) - i64::from(pc) - 4) / 4;
    if (-32768..=32767).contains(&diff) {
        Ok((diff as i16) as u16)
    } else {
        Err(err(line, format!("branch target `{target}` out of range")))
    }
}

fn r_type(funct: u32, rs: u8, rt: u8, rd: u8, sa: u8) -> u32 {
    (u32::from(rs) << 21)
        | (u32::from(rt) << 16)
        | (u32::from(rd) << 11)
        | (u32::from(sa) << 6)
        | funct
}

fn i_type(op: u32, rs: u8, rt: u8, imm: u16) -> u32 {
    (op << 26) | (u32::from(rs) << 21) | (u32::from(rt) << 16) | u32::from(imm)
}

fn encode(
    mnemonic: &str,
    args: &[String],
    pc: u32,
    line: usize,
    labels: &Labels,
) -> Result<u32, AsmError> {
    let three_r = |funct: u32| -> Result<u32, AsmError> {
        need(args, 3, line, mnemonic)?;
        Ok(r_type(
            funct,
            reg(&args[1], line)?,
            reg(&args[2], line)?,
            reg(&args[0], line)?,
            0,
        ))
    };
    let shift = |funct: u32| -> Result<u32, AsmError> {
        need(args, 3, line, mnemonic)?;
        let sa = parse_i64(&args[2]).ok_or_else(|| err(line, "bad shift amount"))?;
        if !(0..32).contains(&sa) {
            return Err(err(line, "shift amount out of range"));
        }
        Ok(r_type(
            funct,
            0,
            reg(&args[1], line)?,
            reg(&args[0], line)?,
            sa as u8,
        ))
    };
    let shift_v = |funct: u32| -> Result<u32, AsmError> {
        need(args, 3, line, mnemonic)?;
        Ok(r_type(
            funct,
            reg(&args[2], line)?,
            reg(&args[1], line)?,
            reg(&args[0], line)?,
            0,
        ))
    };
    let imm_op = |op: u32| -> Result<u32, AsmError> {
        need(args, 3, line, mnemonic)?;
        Ok(i_type(
            op,
            reg(&args[1], line)?,
            reg(&args[0], line)?,
            imm16(&args[2], line)?,
        ))
    };
    let load_store = |op: u32| -> Result<u32, AsmError> {
        need(args, 2, line, mnemonic)?;
        let (offset, base) = mem_operand(&args[1], line)?;
        Ok(i_type(op, base, reg(&args[0], line)?, offset))
    };
    let branch2 = |op: u32| -> Result<u32, AsmError> {
        need(args, 3, line, mnemonic)?;
        Ok(i_type(
            op,
            reg(&args[0], line)?,
            reg(&args[1], line)?,
            branch_offset(&args[2], pc, line, labels)?,
        ))
    };
    let branch1 = |op: u32, rt: u8| -> Result<u32, AsmError> {
        need(args, 2, line, mnemonic)?;
        Ok(i_type(
            op,
            reg(&args[0], line)?,
            rt,
            branch_offset(&args[1], pc, line, labels)?,
        ))
    };
    let jump = |op: u32| -> Result<u32, AsmError> {
        need(args, 1, line, mnemonic)?;
        let dest = asm::target(&args[0], line, labels)?;
        Ok((op << 26) | ((dest >> 2) & 0x03FF_FFFF))
    };

    match mnemonic {
        "sll" => shift(0x00),
        "srl" => shift(0x02),
        "sra" => shift(0x03),
        "sllv" => shift_v(0x04),
        "srlv" => shift_v(0x06),
        "srav" => shift_v(0x07),
        "jr" => {
            need(args, 1, line, mnemonic)?;
            Ok(r_type(0x08, reg(&args[0], line)?, 0, 0, 0))
        }
        "jalr" => {
            need(args, 1, line, mnemonic)?;
            Ok(r_type(0x09, reg(&args[0], line)?, 0, 31, 0))
        }
        "break" => {
            need(args, 0, line, mnemonic)?;
            Ok(0x0D)
        }
        "mfhi" => {
            need(args, 1, line, mnemonic)?;
            Ok(r_type(0x10, 0, 0, reg(&args[0], line)?, 0))
        }
        "mthi" => {
            need(args, 1, line, mnemonic)?;
            Ok(r_type(0x11, reg(&args[0], line)?, 0, 0, 0))
        }
        "mflo" => {
            need(args, 1, line, mnemonic)?;
            Ok(r_type(0x12, 0, 0, reg(&args[0], line)?, 0))
        }
        "mtlo" => {
            need(args, 1, line, mnemonic)?;
            Ok(r_type(0x13, reg(&args[0], line)?, 0, 0, 0))
        }
        "mult" | "multu" | "div" | "divu" => {
            need(args, 2, line, mnemonic)?;
            let funct = match mnemonic {
                "mult" => 0x18,
                "multu" => 0x19,
                "div" => 0x1A,
                _ => 0x1B,
            };
            Ok(r_type(
                funct,
                reg(&args[0], line)?,
                reg(&args[1], line)?,
                0,
                0,
            ))
        }
        "addu" | "add" => three_r(0x21),
        "subu" | "sub" => three_r(0x23),
        "and" => three_r(0x24),
        "or" => three_r(0x25),
        "xor" => three_r(0x26),
        "nor" => three_r(0x27),
        "slt" => three_r(0x2A),
        "sltu" => three_r(0x2B),
        "beq" => branch2(4),
        "bne" => branch2(5),
        "blez" => branch1(6, 0),
        "bgtz" => branch1(7, 0),
        "bltz" => branch1(1, 0),
        "bgez" => branch1(1, 1),
        "addiu" | "addi" => imm_op(9),
        "slti" => imm_op(10),
        "sltiu" => imm_op(11),
        "andi" => imm_op(12),
        "ori" => imm_op(13),
        "xori" => imm_op(14),
        "lui" => {
            need(args, 2, line, mnemonic)?;
            Ok(i_type(15, 0, reg(&args[0], line)?, imm16(&args[1], line)?))
        }
        "lb" => load_store(32),
        "lh" => load_store(33),
        "lw" => load_store(35),
        "lbu" => load_store(36),
        "lhu" => load_store(37),
        "sb" => load_store(40),
        "sh" => load_store(41),
        "sw" => load_store(43),
        "j" => jump(2),
        "jal" => jump(3),
        // Pseudo-instructions.
        "nop" => {
            need(args, 0, line, mnemonic)?;
            Ok(0)
        }
        "move" => {
            need(args, 2, line, mnemonic)?;
            Ok(r_type(
                0x21,
                reg(&args[1], line)?,
                0,
                reg(&args[0], line)?,
                0,
            ))
        }
        "b" => {
            need(args, 1, line, mnemonic)?;
            Ok(i_type(4, 0, 0, branch_offset(&args[0], pc, line, labels)?))
        }
        "li" => {
            need(args, 2, line, mnemonic)?;
            let v = parse_i64(&args[1]).ok_or_else(|| err(line, "bad immediate"))?;
            if (-32768..=65535).contains(&v) {
                if v < 0 {
                    Ok(i_type(9, 0, reg(&args[0], line)?, v as i16 as u16))
                } else {
                    Ok(i_type(13, 0, reg(&args[0], line)?, v as u16))
                }
            } else {
                Err(err(
                    line,
                    "32-bit li unsupported in single-word context; use lui+ori",
                ))
            }
        }
        other => Err(err(line, format!("unknown mnemonic `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_basic_program() {
        let words = assemble("addiu $t0, $zero, 5\nbreak\n").unwrap();
        assert_eq!(words.len(), 2);
        assert_eq!(words[0], (9 << 26) | (8 << 16) | 5);
        assert_eq!(words[1], 0x0D);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let words = assemble(
            "start: beq $zero, $zero, end\n\
             nop\n\
             j start\n\
             nop\n\
             end: break\n",
        )
        .unwrap();
        assert_eq!(words.len(), 5);
        // beq at pc 0 -> end at 16: offset = (16 - 4) / 4 = 3.
        assert_eq!(words[0] & 0xFFFF, 3);
        // j start -> target 0.
        assert_eq!(words[2], 2 << 26);
    }

    #[test]
    fn memory_operands_parse() {
        let words = assemble("lw $t0, 8($sp)\nsw $t0, ($gp)\n").unwrap();
        assert_eq!(words[0], (35 << 26) | (29 << 21) | (8 << 16) | 8);
        assert_eq!(words[1], (43 << 26) | (28 << 21) | (8 << 16));
    }

    #[test]
    fn numeric_registers_accepted() {
        let words = assemble("addu $3, $1, $2\nbreak\n").unwrap();
        assert_eq!(words[0], (1 << 21) | (2 << 16) | (3 << 11) | 0x21);
    }

    #[test]
    fn unknown_mnemonic_errors_with_line() {
        let e = assemble("nop\nfrobnicate $t0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn unknown_register_rejected() {
        let e = assemble("addu $t0, $bogus, $t1\n").unwrap_err();
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("x: nop\nx: nop\n").unwrap_err();
        assert!(e.message.contains("redefined"));
    }

    #[test]
    fn out_of_range_immediate_rejected() {
        let e = assemble("addiu $t0, $zero, 70000\n").unwrap_err();
        assert!(e.message.contains("range"));
    }

    #[test]
    fn word_directive() {
        let words = assemble(".word 0xDEADBEEF, 42\n").unwrap();
        assert_eq!(words, vec![0xDEAD_BEEF, 42]);
    }

    #[test]
    fn li_negative_uses_addiu() {
        let words = assemble("li $t0, -5\n").unwrap();
        assert_eq!(words[0] >> 26, 9);
        assert_eq!(words[0] & 0xFFFF, 0xFFFB);
    }

    #[test]
    fn comments_ignored() {
        let words = assemble("# header\nnop # trailing\n").unwrap();
        assert_eq!(words, vec![0]);
    }
}
