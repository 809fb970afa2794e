//! The two-pass front end both assemblers share.
//!
//! A [`Dialect`] supplies what differs between MIPS-I and SPARC V8
//! source: its comment characters, which text before a `:` counts as a
//! label, how an operand list splits on commas, and the encoder for one
//! instruction (registers and operand forms included). Everything else
//! lives here once: comment stripping, label peeling, the `.word`
//! directive, number parsing, label collection and the second pass that
//! encodes each instruction at its address.

use std::collections::HashMap;

use crate::error::AsmError;

/// Label name → byte address.
pub(crate) type Labels = HashMap<String, u32>;

/// Encodes `mnemonic args` at byte address `pc` of source line `line`.
type Encoder = fn(&str, &[String], u32, usize, &Labels) -> Result<u32, AsmError>;

/// What one assembly dialect adds to the shared front end.
pub(crate) struct Dialect {
    /// Characters that start a comment running to the end of the line.
    pub comment: &'static [char],
    /// Whether the text before a `:` names a label (otherwise the colon
    /// belongs to the instruction).
    pub is_label: fn(&str) -> bool,
    /// Splits an operand list into trimmed, non-empty operands.
    pub split_args: fn(&str) -> Vec<String>,
    /// The instruction encoder.
    pub encode: Encoder,
}

struct Line {
    no: usize,
    items: Vec<Item>,
}

enum Item {
    Label(String),
    Word(u32),
    Instr { mnemonic: String, args: Vec<String> },
}

/// Assembles `src` in `dialect` into words (base address 0).
pub(crate) fn assemble(dialect: &Dialect, src: &str) -> Result<Vec<u32>, AsmError> {
    let lines = clean_lines(dialect, src)?;
    let labels = collect_labels(&lines)?;
    let mut words = Vec::new();
    for line in &lines {
        for item in &line.items {
            match item {
                Item::Label(_) => {}
                Item::Word(w) => words.push(*w),
                Item::Instr { mnemonic, args } => {
                    let pc = words.len() as u32 * 4;
                    words.push((dialect.encode)(mnemonic, args, pc, line.no, &labels)?);
                }
            }
        }
    }
    Ok(words)
}

fn clean_lines(dialect: &Dialect, src: &str) -> Result<Vec<Line>, AsmError> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let no = i + 1;
        let mut text = raw.split(dialect.comment).next().unwrap_or("").trim();
        let mut items = Vec::new();
        // Peel leading labels (possibly several); they name the address
        // of the next emitted item.
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            if !(dialect.is_label)(label) {
                break;
            }
            items.push(Item::Label(label.to_owned()));
            text = rest[1..].trim();
        }
        if let Some(rest) = text.strip_prefix(".word") {
            for tok in rest.split(',') {
                let tok = tok.trim();
                let value =
                    parse_u32(tok).ok_or_else(|| err(no, format!("bad `.word` value `{tok}`")))?;
                items.push(Item::Word(value));
            }
        } else if !text.is_empty() {
            let mut parts = text.splitn(2, char::is_whitespace);
            let mnemonic = parts.next().unwrap_or("").to_lowercase();
            let args = (dialect.split_args)(parts.next().unwrap_or(""));
            items.push(Item::Instr { mnemonic, args });
        }
        if !items.is_empty() {
            out.push(Line { no, items });
        }
    }
    Ok(out)
}

/// First pass: the address of every label.
fn collect_labels(lines: &[Line]) -> Result<Labels, AsmError> {
    let mut labels = Labels::new();
    let mut pc = 0u32;
    for line in lines {
        for item in &line.items {
            match item {
                Item::Label(name) => {
                    if labels.insert(name.clone(), pc).is_some() {
                        return Err(err(line.no, format!("label `{name}` redefined")));
                    }
                }
                Item::Instr { .. } | Item::Word(_) => pc += 4,
            }
        }
    }
    Ok(labels)
}

pub(crate) fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// Fails unless the instruction has exactly `n` operands.
pub(crate) fn need(args: &[String], n: usize, line: usize, mnem: &str) -> Result<(), AsmError> {
    if args.len() == n {
        Ok(())
    } else {
        Err(err(
            line,
            format!("`{mnem}` expects {n} operands, found {}", args.len()),
        ))
    }
}

/// Parses a decimal or `0x` hexadecimal number with an optional `-`.
pub(crate) fn parse_i64(tok: &str) -> Option<i64> {
    let tok = tok.trim();
    let (neg, rest) = match tok.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, tok),
    };
    let v = if let Some(hex) = rest.strip_prefix("0x").or_else(|| rest.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        rest.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

/// [`parse_i64`] truncated to 32 bits (negative values wrap).
pub(crate) fn parse_u32(tok: &str) -> Option<u32> {
    parse_i64(tok).map(|v| v as u32)
}

/// The address a branch or jump operand names: a label, else a number.
pub(crate) fn target(tok: &str, line: usize, labels: &Labels) -> Result<u32, AsmError> {
    match labels.get(tok) {
        Some(&dest) => Ok(dest),
        None => parse_u32(tok).ok_or_else(|| err(line, format!("undefined label `{tok}`"))),
    }
}

#[cfg(test)]
mod tests {
    use crate::{mips, sparc};

    type Assembler = fn(&str) -> Result<Vec<u32>, crate::error::AsmError>;

    /// Each dialect's assembler with its halting instruction.
    const DIALECTS: [(Assembler, &str); 2] = [(mips::assemble, "break"), (sparc::assemble, "ta 0")];

    #[test]
    fn redefined_label_is_an_error_at_its_line() {
        for (assemble, halt) in DIALECTS {
            let e = assemble(&format!("a: nop\na: nop\n{halt}\n")).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (2, "label `a` redefined"));
        }
    }

    #[test]
    fn unparsable_word_value_is_an_error_at_its_line() {
        for (assemble, _) in DIALECTS {
            let e = assemble("nop\n.word 5, banana\n").unwrap_err();
            assert_eq!(
                (e.line, e.message.as_str()),
                (2, "bad `.word` value `banana`")
            );
        }
    }
}
