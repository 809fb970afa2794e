//! A small two-pass SPARC V8 assembler for the simulated subset.
//!
//! Syntax follows the SunOS convention used by the Leon toolchain:
//! `op src1, src2, dst` (destination last), `[%r+off]` memory operands,
//! `%hi(x)`/`%lo(x)` relocations for `sethi`/`or`, `!` or `#` comments,
//! branch annul suffixes (`bne,a`), and the register aliases `%sp`
//! (= `%o6`) and `%fp` (= `%i6`). Line cleaning, labels, `.word` and
//! numbers come from the front end shared with the MIPS assembler; this
//! module holds the bracket-aware operand splitting, registers, operand
//! forms and encoder.
//!
//! ```
//! let program = noctest_cpu::sparc::assemble(
//!     "sethi %hi(0x80200003), %g2\n\
//!      or %g2, %lo(0x80200003), %g2\n\
//!      ta 0\n",
//! )?;
//! assert_eq!(program.len(), 3);
//! # Ok::<(), noctest_cpu::sparc::asm::AsmError>(())
//! ```

use crate::asm::{self, err, need, parse_u32, Dialect, Labels};
pub use crate::error::AsmError;

/// Assembles SPARC V8 source into instruction words (base address 0).
///
/// # Errors
///
/// Returns [`AsmError`] with a line number for syntax errors, unknown
/// mnemonics/registers, out-of-range immediates, bad `.word` values and
/// undefined or redefined labels.
pub fn assemble(src: &str) -> Result<Vec<u32>, AsmError> {
    asm::assemble(&SPARC, src)
}

const SPARC: Dialect = Dialect {
    comment: &['!', '#'],
    is_label: |label| !label.contains(char::is_whitespace) && !label.contains('%'),
    split_args,
    encode,
};

/// Splits on commas that are not inside `[...]` or `(...)`.
fn split_args(s: &str) -> Vec<String> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            '[' | '(' => {
                depth += 1;
                cur.push(ch);
            }
            ']' | ')' => {
                depth -= 1;
                cur.push(ch);
            }
            ',' if depth == 0 => {
                if !cur.trim().is_empty() {
                    args.push(cur.trim().to_owned());
                }
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        args.push(cur.trim().to_owned());
    }
    args
}

fn reg(name: &str, line: usize) -> Result<u8, AsmError> {
    let n = name
        .strip_prefix('%')
        .ok_or_else(|| err(line, format!("expected register, found `{name}`")))?
        .to_lowercase();
    // The four windowed groups of eight, then the flat names %r0-%r31.
    let groups = [
        ('g', 0, 8),
        ('o', 8, 8),
        ('l', 16, 8),
        ('i', 24, 8),
        ('r', 0, 32),
    ];
    let numbered = groups.iter().find_map(|&(prefix, base, count)| {
        let i = n.strip_prefix(prefix)?.parse::<u8>().ok()?;
        (i < count).then_some(base + i)
    });
    match n.as_str() {
        "sp" => Ok(14),
        "fp" => Ok(30),
        _ => numbered.ok_or_else(|| err(line, format!("unknown register `{name}`"))),
    }
}

/// A format-3 second operand: register, immediate or %lo(x).
fn operand2(tok: &str, line: usize) -> Result<(bool, u32), AsmError> {
    if tok.starts_with('%') {
        if let Some(inner) = tok.strip_prefix("%lo(").and_then(|s| s.strip_suffix(')')) {
            let v = parse_u32(inner).ok_or_else(|| err(line, format!("bad %lo `{tok}`")))?;
            return Ok((true, v & 0x3FF));
        }
        return Ok((false, u32::from(reg(tok, line)?)));
    }
    let v = parse_u32(tok).ok_or_else(|| err(line, format!("bad immediate `{tok}`")))?;
    let signed = v as i32;
    if !(-4096..=4095).contains(&signed) {
        return Err(err(line, format!("immediate `{tok}` out of simm13 range")));
    }
    Ok((true, v & 0x1FFF))
}

/// Parses `[%r]`, `[%r+imm]`, `[%r+%r]` memory operands into (rs1, op2).
fn mem_operand(tok: &str, line: usize) -> Result<(u8, bool, u32), AsmError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected [address], found `{tok}`")))?
        .trim();
    if let Some(plus) = inner.find(['+', '-']) {
        let (base, rest) = inner.split_at(plus);
        let rs1 = reg(base.trim(), line)?;
        let off = rest.strip_prefix('+').unwrap_or(rest);
        let (imm, v) = operand2(off.trim(), line)?;
        Ok((rs1, imm, v))
    } else {
        let rs1 = reg(inner, line)?;
        Ok((rs1, true, 0))
    }
}

fn fmt3(op: u32, op3: u32, rd: u8, rs1: u8, imm: bool, op2: u32) -> u32 {
    (op << 30)
        | (u32::from(rd) << 25)
        | (op3 << 19)
        | (u32::from(rs1) << 14)
        | (u32::from(imm) << 13)
        | (op2 & 0x1FFF)
}

const BRANCHES: [(&str, u32); 16] = [
    ("bn", 0x0),
    ("be", 0x1),
    ("ble", 0x2),
    ("bl", 0x3),
    ("bleu", 0x4),
    ("bcs", 0x5),
    ("bneg", 0x6),
    ("bvs", 0x7),
    ("ba", 0x8),
    ("bne", 0x9),
    ("bg", 0xA),
    ("bge", 0xB),
    ("bgu", 0xC),
    ("bcc", 0xD),
    ("bpos", 0xE),
    ("bvc", 0xF),
];

const ALU3: [(&str, u32); 18] = [
    ("add", 0x00),
    ("addcc", 0x10),
    ("sub", 0x04),
    ("subcc", 0x14),
    ("and", 0x01),
    ("andcc", 0x11),
    ("or", 0x02),
    ("orcc", 0x12),
    ("xor", 0x03),
    ("xorcc", 0x13),
    ("andn", 0x05),
    ("orn", 0x06),
    ("xnor", 0x07),
    ("sll", 0x25),
    ("srl", 0x26),
    ("sra", 0x27),
    ("umul", 0x0A),
    ("smul", 0x0B),
];

#[allow(clippy::too_many_lines)] // one arm per mnemonic family
fn encode(
    mnemonic: &str,
    args: &[String],
    pc: u32,
    line: usize,
    labels: &Labels,
) -> Result<u32, AsmError> {
    // Branches, optionally with the ,a annul suffix.
    let (base_mnem, annul) = match mnemonic.strip_suffix(",a") {
        Some(b) => (b, true),
        None => (mnemonic, false),
    };
    if let Some(&(_, cond)) = BRANCHES.iter().find(|&&(m, _)| m == base_mnem) {
        need(args, 1, line, mnemonic)?;
        let dest = asm::target(&args[0], line, labels)?;
        let disp = (i64::from(dest) - i64::from(pc)) / 4;
        if !(-(1 << 21)..(1 << 21)).contains(&disp) {
            return Err(err(line, "branch displacement out of range"));
        }
        return Ok((u32::from(annul) << 29)
            | (cond << 25)
            | (0b010 << 22)
            | ((disp as u32) & 0x003F_FFFF));
    }

    if let Some(&(_, op3)) = ALU3.iter().find(|&&(m, _)| m == mnemonic) {
        need(args, 3, line, mnemonic)?;
        let rs1 = reg(&args[0], line)?;
        let (imm, v) = operand2(&args[1], line)?;
        let rd = reg(&args[2], line)?;
        return Ok(fmt3(2, op3, rd, rs1, imm, v));
    }

    match mnemonic {
        "sethi" => {
            need(args, 2, line, mnemonic)?;
            let value = if let Some(inner) = args[0]
                .strip_prefix("%hi(")
                .and_then(|s| s.strip_suffix(')'))
            {
                parse_u32(inner).ok_or_else(|| err(line, "bad %hi() value"))? >> 10
            } else {
                parse_u32(&args[0]).ok_or_else(|| err(line, "bad sethi immediate"))?
            };
            let rd = reg(&args[1], line)?;
            Ok((u32::from(rd) << 25) | (0b100 << 22) | (value & 0x003F_FFFF))
        }
        "call" => {
            need(args, 1, line, mnemonic)?;
            let dest = asm::target(&args[0], line, labels)?;
            let disp = (i64::from(dest) - i64::from(pc)) / 4;
            Ok((1 << 30) | ((disp as u32) & 0x3FFF_FFFF))
        }
        "jmpl" => {
            need(args, 2, line, mnemonic)?;
            // jmpl %r+off, %rd
            let (rs1, imm, v) = if args[0].starts_with('[') {
                mem_operand(&args[0], line)?
            } else if let Some(plus) = args[0].find('+') {
                let (base, off) = args[0].split_at(plus);
                let rs1 = reg(base.trim(), line)?;
                let (imm, v) = operand2(off[1..].trim(), line)?;
                (rs1, imm, v)
            } else {
                (reg(&args[0], line)?, true, 0)
            };
            let rd = reg(&args[1], line)?;
            Ok(fmt3(2, 0x38, rd, rs1, imm, v))
        }
        "save" | "restore" => {
            need(args, 3, line, mnemonic)?;
            let rs1 = reg(&args[0], line)?;
            let (imm, v) = operand2(&args[1], line)?;
            let rd = reg(&args[2], line)?;
            let op3 = if mnemonic == "save" { 0x3C } else { 0x3D };
            Ok(fmt3(2, op3, rd, rs1, imm, v))
        }
        "ld" | "ldub" | "ldsb" | "lduh" | "ldsh" => {
            need(args, 2, line, mnemonic)?;
            let (rs1, imm, v) = mem_operand(&args[0], line)?;
            let rd = reg(&args[1], line)?;
            let op3 = match mnemonic {
                "ld" => 0x00,
                "ldub" => 0x01,
                "lduh" => 0x02,
                "ldsb" => 0x09,
                _ => 0x0A,
            };
            Ok(fmt3(3, op3, rd, rs1, imm, v))
        }
        "st" | "stb" | "sth" => {
            need(args, 2, line, mnemonic)?;
            let rd = reg(&args[0], line)?;
            let (rs1, imm, v) = mem_operand(&args[1], line)?;
            let op3 = match mnemonic {
                "st" => 0x04,
                "stb" => 0x05,
                _ => 0x06,
            };
            Ok(fmt3(3, op3, rd, rs1, imm, v))
        }
        "ta" => {
            need(args, 1, line, mnemonic)?;
            let (imm, v) = operand2(&args[0], line)?;
            Ok(fmt3(2, 0x3A, 8, 0, imm, v))
        }
        "rd" => {
            need(args, 2, line, mnemonic)?;
            if args[0] != "%y" {
                return Err(err(line, "only `rd %y, rd` is supported"));
            }
            let rd = reg(&args[1], line)?;
            Ok(fmt3(2, 0x28, rd, 0, false, 0))
        }
        "wr" => {
            need(args, 3, line, mnemonic)?;
            if args[2] != "%y" {
                return Err(err(line, "only `wr rs1, op2, %y` is supported"));
            }
            let rs1 = reg(&args[0], line)?;
            let (imm, v) = operand2(&args[1], line)?;
            Ok(fmt3(2, 0x30, 0, rs1, imm, v))
        }
        // Pseudo-instructions.
        "nop" => {
            need(args, 0, line, mnemonic)?;
            Ok(0b100 << 22) // sethi 0, %g0
        }
        "mov" => {
            need(args, 2, line, mnemonic)?;
            let (imm, v) = operand2(&args[0], line)?;
            let rd = reg(&args[1], line)?;
            Ok(fmt3(2, 0x02, rd, 0, imm, v)) // or %g0, op2, rd
        }
        "cmp" => {
            need(args, 2, line, mnemonic)?;
            let rs1 = reg(&args[0], line)?;
            let (imm, v) = operand2(&args[1], line)?;
            Ok(fmt3(2, 0x14, 0, rs1, imm, v)) // subcc rs1, op2, %g0
        }
        "ret" => {
            need(args, 0, line, mnemonic)?;
            Ok(fmt3(2, 0x38, 0, 15, true, 8)) // jmpl %o7+8, %g0
        }
        other => Err(err(line, format!("unknown mnemonic `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_alu_reg_and_imm() {
        let words = assemble("add %g1, %g2, %g3\nsub %o1, 1, %o1\n").unwrap();
        assert_eq!(words[0], (2 << 30) | (3 << 25) | (1 << 14) | 2);
        assert_eq!(
            words[1],
            (2u32 << 30) | (9 << 25) | (0x04 << 19) | (9 << 14) | (1 << 13) | 1
        );
    }

    #[test]
    fn sethi_hi_relocation() {
        let words = assemble("sethi %hi(0xDEADB000), %g7\n").unwrap();
        assert_eq!(words[0] >> 25 & 31, 7);
        assert_eq!(words[0] & 0x003F_FFFF, 0xDEADB000u32 >> 10);
    }

    #[test]
    fn lo_relocation_masks_to_10_bits() {
        let words = assemble("or %g1, %lo(0xDEADBEEF), %g1\n").unwrap();
        assert_eq!(words[0] & 0x1FFF, 0xEEFu32 & 0x3FF);
    }

    #[test]
    fn branch_back_and_annul() {
        let words = assemble("top: nop\nbne,a top\nnop\n").unwrap();
        // bne,a at pc=4, target 0: disp = -1.
        let w = words[1];
        assert_eq!(w >> 29 & 1, 1, "annul bit");
        assert_eq!(w >> 25 & 0xF, 0x9, "bne condition");
        assert_eq!(w & 0x003F_FFFF, 0x003F_FFFF, "disp -1");
    }

    #[test]
    fn memory_operands() {
        let words = assemble("ld [%g1+8], %g2\nst %g2, [%g1]\n").unwrap();
        assert_eq!(words[0] & 0x1FFF, 8);
        assert_eq!(words[0] >> 13 & 1, 1);
        assert_eq!(words[1] >> 19 & 63, 0x04);
    }

    #[test]
    fn register_aliases() {
        let words = assemble("add %sp, 4, %fp\n").unwrap();
        assert_eq!(words[0] >> 14 & 31, 14);
        assert_eq!(words[0] >> 25 & 31, 30);
    }

    #[test]
    fn pseudo_ops_expand() {
        let words = assemble("nop\nmov 5, %g1\ncmp %g1, 5\nret\n").unwrap();
        assert_eq!(words[0], 0b100 << 22);
        assert_eq!(words[1] >> 19 & 63, 0x02);
        assert_eq!(words[2] >> 19 & 63, 0x14);
        assert_eq!(words[3] >> 19 & 63, 0x38);
    }

    #[test]
    fn bang_comments_stripped() {
        let words = assemble("nop ! comment, with, commas\n").unwrap();
        assert_eq!(words.len(), 1);
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = assemble("nop\nfnord %g1\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn simm13_range_enforced() {
        assert!(assemble("add %g1, 4095, %g1\n").is_ok());
        assert!(assemble("add %g1, 5000, %g1\n").is_err());
    }

    #[test]
    fn word_directive() {
        let words = assemble(".word 0xCAFEBABE\n").unwrap();
        assert_eq!(words, vec![0xCAFE_BABE]);
    }
}
