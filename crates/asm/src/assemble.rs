//! The assembler core.
//!
//! `Unit::read` walks the source once, as slices of it: it lays out the
//! sections and collects labels and `.equ` constants into a table keyed by
//! those slices. `Unit::finish` places the bss and encodes every
//! instruction, `.word` and data directive with the final symbol values.
//! Nothing is copied out of the source until the finished [`Program`]'s
//! symbol table is built, once, at the end.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use lrscwait_isa::{encode, AluOp, AmoOp, BranchOp, Csr, CsrOp, Instr, MemWidth, Reg};

use crate::expr::{char_literal, eval, ExprError, Scope, Symbols};

/// Assembly failure with the 1-based source line where it occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the input source.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

/// An assembled program image, ready to load into the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Base address of the instruction ROM.
    pub text_base: u32,
    /// Encoded instruction words.
    pub text: Vec<u32>,
    /// Base address of the initialized data segment.
    pub data_base: u32,
    /// Initialized data image (byte-addressed, little-endian words).
    pub data: Vec<u8>,
    /// Size in bytes of the zero-initialized segment following `data`.
    pub bss_size: u32,
    /// Base address of the bss segment.
    pub bss_base: u32,
    /// All symbols (labels and `.equ` constants) with their final values.
    pub symbols: HashMap<String, u32>,
    /// Entry point (`_start` if defined, otherwise `text_base`).
    pub entry: u32,
    /// 1-based source line for each text word (debugging aid).
    pub source_lines: Vec<u32>,
}

impl Program {
    /// Looks up a symbol value.
    ///
    /// # Panics
    ///
    /// Panics when the symbol is undefined — intended for test/harness code
    /// that knows its kernel's layout.
    #[must_use]
    pub fn symbol(&self, name: &str) -> u32 {
        *self
            .symbols
            .get(name)
            .unwrap_or_else(|| panic!("undefined symbol `{name}`"))
    }

    /// Disassembles the text segment (address, word, mnemonic) — debug aid.
    #[must_use]
    pub fn disassemble(&self) -> Vec<(u32, u32, String)> {
        self.text
            .iter()
            .enumerate()
            .map(|(i, &word)| {
                let addr = self.text_base + 4 * i as u32;
                let txt = lrscwait_isa::decode(word)
                    .map(|d| lrscwait_isa::disasm(&d))
                    .unwrap_or_else(|_| "<illegal>".to_string());
                (addr, word, txt)
            })
            .collect()
    }
}

/// Assembler with configurable section bases and injected constants.
///
/// The builder lets workload generators parameterize kernels without string
/// substitution: `define`d names are visible to the source exactly like
/// `.equ` constants defined on line zero.
#[derive(Clone, Debug)]
pub struct Assembler {
    text_base: u32,
    data_base: u32,
    defines: Vec<(String, u32)>,
}

impl Default for Assembler {
    fn default() -> Self {
        Assembler::new()
    }
}

/// A statement encoded at the end, once every symbol is defined: every
/// instruction, `.word` and data directive.
struct Deferred<'s> {
    line: u32,
    section: Section,
    /// Address of the statement (absolute for text/data).
    addr: u32,
    /// Number of instruction words (text) or bytes (data) it occupies.
    size: u32,
    kind: Kind<'s>,
}

enum Kind<'s> {
    /// A (possibly pseudo) instruction and its operand text.
    Instr {
        mnemonic: &'s str,
        operands: &'s str,
    },
    /// The operand text of a `.word`.
    Words(&'s str),
    /// Data alignment padding or `.space`: `size` zero bytes.
    Fill,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Section {
    Text,
    Data,
    Bss,
}

impl Assembler {
    /// Creates an assembler with the default memory map.
    #[must_use]
    pub fn new() -> Assembler {
        Assembler {
            text_base: crate::DEFAULT_TEXT_BASE,
            data_base: crate::DEFAULT_DATA_BASE,
            defines: Vec::new(),
        }
    }

    /// Sets the instruction ROM base address.
    #[must_use]
    pub fn text_base(mut self, base: u32) -> Assembler {
        assert_eq!(base % 4, 0, "text base must be word aligned");
        self.text_base = base;
        self
    }

    /// Sets the data segment base address.
    #[must_use]
    pub fn data_base(mut self, base: u32) -> Assembler {
        assert_eq!(base % 4, 0, "data base must be word aligned");
        self.data_base = base;
        self
    }

    /// Injects a constant visible to the source as a symbol (like `.equ`).
    #[must_use]
    pub fn define(mut self, name: &str, value: u32) -> Assembler {
        self.defines.push((name.to_string(), value));
        self
    }

    /// Assembles `source` into a [`Program`].
    ///
    /// The source is read once to lay out the sections and define the
    /// symbols; every instruction is then encoded with the symbols' final
    /// values.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] with the offending line on syntax errors,
    /// undefined symbols, out-of-range immediates, or misuse of directives.
    pub fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        let mut unit = Unit::new(self, source);
        unit.read(source)?;
        unit.finish()
    }
}

/// One assembly of a source: its symbol table and sections so far, with
/// every name and operand a slice of the source or the defines.
struct Unit<'s> {
    text_base: u32,
    data_base: u32,
    symbols: Symbols<'s>,
    section: Section,
    text_loc: u32,
    data_loc: u32,
    /// Relative to the bss base, which is known only after the data.
    bss_loc: u32,
    /// Line of the directive that last grew the bss: it gets the blame
    /// when the rebased segment does not fit below 2^32.
    bss_line: u32,
    /// `(name, offset, line)`, rebased once the data size is known.
    bss_labels: Vec<(&'s str, u32, u32)>,
    text: Vec<u32>,
    source_lines: Vec<u32>,
    deferred: Vec<Deferred<'s>>,
}

impl<'s> Unit<'s> {
    fn new(asm: &'s Assembler, source: &str) -> Unit<'s> {
        let mut symbols = Symbols::with_capacity(asm.defines.len() + 32);
        symbols.extend(
            asm.defines
                .iter()
                .map(|(name, value)| (name.as_str(), *value)),
        );
        // A kernel has about one statement per 16 source bytes.
        let statements = source.len() / 16;
        Unit {
            text_base: asm.text_base,
            data_base: asm.data_base,
            symbols,
            section: Section::Text,
            text_loc: asm.text_base,
            data_loc: asm.data_base,
            bss_loc: 0,
            bss_line: 0,
            bss_labels: Vec::new(),
            text: Vec::with_capacity(statements),
            source_lines: Vec::with_capacity(statements),
            deferred: Vec::with_capacity(statements),
        }
    }

    /// Lays out every statement of `source` and defines its symbols.
    fn read(&mut self, source: &'s str) -> Result<(), AsmError> {
        for (idx, raw_line) in source.lines().enumerate() {
            let line = idx as u32 + 1;
            for stmt in statements(raw_line) {
                let mut rest = stmt.trim_ascii();
                // Peel off leading labels.
                while let Some(colon) = rest.find(':') {
                    let name = rest[..colon].trim_ascii();
                    if name.is_empty()
                        || !name
                            .bytes()
                            .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
                    {
                        break;
                    }
                    rest = rest[colon + 1..].trim_ascii();
                    self.label(name, line)?;
                }
                if rest.is_empty() {
                    continue;
                }
                let (head, args) = match rest.bytes().position(|b| b.is_ascii_whitespace()) {
                    Some(pos) => (&rest[..pos], rest[pos..].trim_ascii()),
                    None => (rest, ""),
                };
                if head.starts_with('.') {
                    self.directive(head, args, line)?;
                } else {
                    self.instruction(head, args, line)?;
                }
            }
        }
        Ok(())
    }

    fn label(&mut self, name: &'s str, line: u32) -> Result<(), AsmError> {
        let value = match self.section {
            Section::Text => self.text_loc,
            Section::Data => self.data_loc,
            Section::Bss => {
                // Provisional: rebased once the data size is known.
                self.bss_labels.push((name, self.bss_loc, line));
                return Ok(());
            }
        };
        self.label_at(name, value, line)
    }

    fn label_at(&mut self, name: &'s str, value: u32, line: u32) -> Result<(), AsmError> {
        if self.symbols.insert(name, value).is_some() {
            return Err(AsmError {
                line,
                message: format!("duplicate symbol `{name}`"),
            });
        }
        Ok(())
    }

    fn instruction(&mut self, head: &'s str, args: &'s str, line: u32) -> Result<(), AsmError> {
        if self.section != Section::Text {
            return Err(AsmError {
                line,
                message: format!(
                    "instruction `{}` outside .text section",
                    head.to_ascii_lowercase()
                ),
            });
        }
        let words = instr_size(head, args, &self.symbols);
        let addr = self.text_loc;
        advance(&mut self.text_loc, 4 * words, line)?;
        for _ in 0..words {
            self.push_text(0, line);
        }
        self.defer(
            line,
            addr,
            words,
            Kind::Instr {
                mnemonic: head,
                operands: args,
            },
        );
        Ok(())
    }

    fn push_text(&mut self, word: u32, line: u32) {
        self.text.push(word);
        self.source_lines.push(line);
    }

    fn defer(&mut self, line: u32, addr: u32, size: u32, kind: Kind<'s>) {
        self.deferred.push(Deferred {
            line,
            section: self.section,
            addr,
            size,
            kind,
        });
    }

    fn directive(&mut self, head: &'s str, args: &'s str, line: u32) -> Result<(), AsmError> {
        let err = |message: String| AsmError { line, message };
        let eval_here = |unit: &Unit<'s>, expr: &'s str, location: u32| {
            let scope = Scope {
                symbols: &unit.symbols,
                location: Some(location),
            };
            eval(expr, &scope).map_err(|e| err(e.to_string()))
        };
        match head {
            ".text" => self.section = Section::Text,
            ".data" => self.section = Section::Data,
            ".bss" => self.section = Section::Bss,
            ".section" => {
                self.section = match operands(args).next() {
                    Some(".text" | "text") => Section::Text,
                    Some(".data" | "data" | ".rodata" | "rodata") => Section::Data,
                    Some(".bss" | "bss") => Section::Bss,
                    other => return Err(err(format!("unknown section {other:?}"))),
                };
            }
            ".global" | ".globl" => {}
            ".equ" | ".set" => {
                let mut args = operands(args);
                let (Some(name), Some(expr), None) = (args.next(), args.next(), args.next()) else {
                    return Err(err(format!("{head} expects `name, expr`")));
                };
                let location = match self.section {
                    Section::Text => self.text_loc,
                    Section::Data => self.data_loc,
                    Section::Bss => self.bss_loc,
                };
                let value = eval_here(self, expr, location)?;
                self.symbols.insert(name, value);
            }
            ".align" | ".p2align" => {
                let p2 = eval_here(self, operands(args).next().unwrap_or("2"), 0)?;
                if p2 > 16 {
                    return Err(err(format!("alignment 2^{p2} too large")));
                }
                let align = 1u32 << p2;
                let pad = |loc: u32| (align - loc % align) % align;
                match self.section {
                    Section::Text => {
                        let bytes = pad(self.text_loc);
                        if bytes % 4 != 0 {
                            return Err(err("text alignment below 4 bytes".to_string()));
                        }
                        advance(&mut self.text_loc, bytes, line)?;
                        for _ in 0..bytes / 4 {
                            self.push_text(encode(&Instr::nop()), line);
                        }
                    }
                    Section::Data => {
                        let bytes = pad(self.data_loc);
                        self.defer(line, self.data_loc, bytes, Kind::Fill);
                        advance(&mut self.data_loc, bytes, line)?;
                    }
                    Section::Bss => {
                        let bytes = pad(self.bss_loc);
                        advance(&mut self.bss_loc, bytes, line)?;
                        self.bss_line = line;
                    }
                }
            }
            ".word" => {
                let loc = match self.section {
                    Section::Text => self.text_loc,
                    Section::Data => self.data_loc,
                    Section::Bss => return Err(err(".word not allowed in .bss".to_string())),
                };
                if loc % 4 != 0 {
                    return Err(err(".word requires 4-byte alignment".to_string()));
                }
                let count = operands(args).count() as u32;
                if self.section == Section::Text {
                    self.defer(line, loc, count, Kind::Words(args));
                    advance(&mut self.text_loc, 4 * count, line)?;
                    for _ in 0..count {
                        self.push_text(0, line);
                    }
                } else {
                    self.defer(line, loc, 4 * count, Kind::Words(args));
                    advance(&mut self.data_loc, 4 * count, line)?;
                }
            }
            ".space" | ".zero" => {
                let size = operands(args)
                    .next()
                    .ok_or_else(|| err(format!("{head} expects a size")))?;
                let n = eval_here(self, size, 0)?;
                match self.section {
                    Section::Text => return Err(err(".space not allowed in .text".to_string())),
                    Section::Data => {
                        self.defer(line, self.data_loc, n, Kind::Fill);
                        advance(&mut self.data_loc, n, line)?;
                    }
                    Section::Bss => {
                        advance(&mut self.bss_loc, n, line)?;
                        self.bss_line = line;
                    }
                }
            }
            other => return Err(err(format!("unknown directive `{other}`"))),
        }
        Ok(())
    }

    /// Places the bss, encodes the deferred statements and builds the
    /// program's symbol table.
    fn finish(mut self) -> Result<Program, AsmError> {
        // Rebase bss after the data segment, 64-byte aligned.
        let mut bss_base = self.data_loc;
        advance(&mut bss_base, (64 - self.data_loc % 64) % 64, self.bss_line)?;
        let mut bss_end = bss_base;
        advance(&mut bss_end, self.bss_loc, self.bss_line)?;
        for (name, rel, line) in std::mem::take(&mut self.bss_labels) {
            self.label_at(name, bss_base + rel, line)?;
        }

        // The data image is built only now that the whole layout is known
        // to fit below 2^32.
        let mut data: Vec<u8> = Vec::with_capacity((self.data_loc - self.data_base) as usize);
        for item in &self.deferred {
            let err = |e: ExprError<'_>| AsmError {
                line: item.line,
                message: e.to_string(),
            };
            // Text items are never below the text base.
            let text_at = (item.addr.wrapping_sub(self.text_base) / 4) as usize;
            match item.kind {
                Kind::Fill => data.resize(data.len() + item.size as usize, 0),
                Kind::Words(args) => {
                    for (k, arg) in operands(args).enumerate() {
                        let scope = Scope {
                            symbols: &self.symbols,
                            location: Some(item.addr + 4 * k as u32),
                        };
                        let v = eval(arg, &scope).map_err(err)?;
                        if item.section == Section::Text {
                            self.text[text_at + k] = v;
                        } else {
                            data.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
                Kind::Instr { mnemonic, operands } => {
                    let (first, second) =
                        emit_instr(mnemonic, operands, &self.symbols, item.addr, item.size)
                            .map_err(err)?;
                    self.text[text_at] = encode(&first);
                    if let Some(second) = second {
                        self.text[text_at + 1] = encode(&second);
                    }
                }
            }
        }

        let entry = self
            .symbols
            .get("_start")
            .copied()
            .unwrap_or(self.text_base);
        Ok(Program {
            text_base: self.text_base,
            text: self.text,
            data_base: self.data_base,
            data,
            bss_size: self.bss_loc,
            bss_base,
            symbols: self
                .symbols
                .iter()
                .map(|(&name, &value)| (name.to_string(), value))
                .collect(),
            entry,
            source_lines: self.source_lines,
        })
    }
}

/// Advances a location counter by `bytes`. A section may not reach the
/// end of the 32-bit address space: the counters are addresses, and a
/// wrapped one would alias labels and size a multi-gigabyte image.
fn advance(loc: &mut u32, bytes: u32, line: u32) -> Result<(), AsmError> {
    *loc = loc.checked_add(bytes).ok_or_else(|| AsmError {
        line,
        message: "section grows past the end of the 32-bit address space".to_string(),
    })?;
    Ok(())
}

/// Length of the character literal starting at `text[i]`, or 1 for a
/// quote that starts none.
fn literal_len(text: &str, i: usize) -> usize {
    char_literal(&text[i..]).map_or(1, |(_, len)| len)
}

/// Index of the first byte of `bytes` at or after `from` that is one of
/// `set`, or `bytes.len()` when there is none.
fn find_any(bytes: &[u8], from: usize, set: &[u8]) -> usize {
    bytes[from.min(bytes.len())..]
        .iter()
        .position(|b| set.contains(b))
        .map_or(bytes.len(), |i| from + i)
}

/// The statements of one source line: split at `;` and ended by a `#` or
/// `//` comment, none of which counts inside a character literal.
fn statements(line: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(line);
    std::iter::from_fn(move || {
        let text = rest.take()?;
        let bytes = text.as_bytes();
        let mut end = 0;
        loop {
            end = find_any(bytes, end, b";#/'");
            match bytes.get(end) {
                Some(b';') => {
                    rest = Some(&text[end + 1..]);
                    break;
                }
                Some(b'/') if bytes.get(end + 1) != Some(&b'/') => end += 1,
                Some(b'\'') => end += literal_len(text, end),
                _ => break,
            }
        }
        Some(&text[..end])
    })
}

/// The operands in `text`: split at commas outside parentheses and
/// character literals (so `8(a0)` and `','` survive), trimmed, with empty
/// ones dropped.
fn operands(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text;
    std::iter::from_fn(move || loop {
        if rest.is_empty() {
            return None;
        }
        let bytes = rest.as_bytes();
        let mut depth = 0i32;
        let mut end = 0;
        loop {
            end = find_any(bytes, end, b",()'");
            match bytes.get(end) {
                None => break,
                Some(b',') if depth == 0 => break,
                Some(b'\'') => end += literal_len(rest, end),
                Some(&b) => {
                    depth += i32::from(b == b'(') - i32::from(b == b')');
                    end += 1;
                }
            }
        }
        let operand = rest[..end].trim_ascii();
        rest = rest.get(end + 1..).unwrap_or("");
        if !operand.is_empty() {
            return Some(operand);
        }
    })
}

/// `mnemonic` in ASCII lowercase, in `buf`, when it holds an uppercase
/// letter and fits (every real mnemonic does).
fn lowercase<'a>(mnemonic: &str, buf: &'a mut [u8; 16]) -> Option<&'a str> {
    if !mnemonic.bytes().any(|b| b.is_ascii_uppercase()) {
        return None;
    }
    let buf = buf.get_mut(..mnemonic.len())?;
    buf.copy_from_slice(mnemonic.as_bytes());
    buf.make_ascii_lowercase();
    std::str::from_utf8(buf).ok()
}

/// Number of instruction words a (possibly pseudo) instruction expands to.
///
/// `li` is 1 word when its expression already evaluates (literals and
/// symbols defined earlier — never `.` or bss labels, which are not final
/// yet) and fits a signed 12-bit immediate; otherwise 2. All other
/// multi-word pseudos are unconditional.
fn instr_size(mnemonic: &str, operands_text: &str, symbols: &Symbols<'_>) -> u32 {
    if mnemonic.eq_ignore_ascii_case("la") {
        2
    } else if mnemonic.eq_ignore_ascii_case("li") {
        let scope = Scope {
            symbols,
            location: None,
        };
        match operands(operands_text).nth(1).map(|e| eval(e, &scope)) {
            Some(Ok(v)) if fits_i12(v) => 1,
            _ => 2,
        }
    } else {
        1
    }
}

fn fits_i12(value: u32) -> bool {
    (-2048..2048).contains(&(value as i32))
}

fn parse_reg(text: &str) -> Result<Reg, String> {
    Reg::parse(text).ok_or_else(|| format!("unknown register `{text}`"))
}

/// Parses `offset(reg)` or `(reg)`; returns (offset expression, register).
fn parse_mem_operand(text: &str) -> Result<(&str, Reg), String> {
    let open = text
        .rfind('(')
        .ok_or_else(|| format!("expected `offset(reg)` operand, got `{text}`"))?;
    if !text.ends_with(')') {
        return Err(format!("missing `)` in operand `{text}`"));
    }
    let reg = parse_reg(text[open + 1..text.len() - 1].trim_ascii())?;
    Ok((text[..open].trim_ascii(), reg))
}

struct EmitCtx<'a> {
    symbols: &'a Symbols<'a>,
    pc: u32,
}

impl EmitCtx<'_> {
    fn eval<'s>(&self, text: &'s str) -> Result<u32, ExprError<'s>> {
        let scope = Scope {
            symbols: self.symbols,
            location: Some(self.pc),
        };
        eval(text, &scope)
    }

    fn eval_i12<'s>(&self, text: &'s str) -> Result<i32, ExprError<'s>> {
        let v = self.eval(text)?;
        if !fits_i12(v) {
            return Err(format!("immediate {} does not fit in 12 bits", v as i32).into());
        }
        Ok(v as i32)
    }

    fn branch_offset<'s>(&self, text: &'s str) -> Result<i32, ExprError<'s>> {
        let target = self.eval(text)?;
        let offset = target.wrapping_sub(self.pc) as i32;
        if !(-4096..4096).contains(&offset) || offset % 2 != 0 {
            return Err(format!(
                "branch target {target:#x} out of range from pc {:#x}",
                self.pc
            )
            .into());
        }
        Ok(offset)
    }

    fn jal_offset<'s>(&self, text: &'s str) -> Result<i32, ExprError<'s>> {
        let target = self.eval(text)?;
        let offset = target.wrapping_sub(self.pc) as i32;
        if !(-(1 << 20)..(1 << 20)).contains(&offset) || offset % 2 != 0 {
            return Err(format!(
                "jump target {target:#x} out of range from pc {:#x}",
                self.pc
            )
            .into());
        }
        Ok(offset)
    }
}

fn expect_operands(count: usize, n: usize, mnemonic: &str) -> Result<(), String> {
    if count != n {
        return Err(format!("`{mnemonic}` expects {n} operand(s), got {count}"));
    }
    Ok(())
}

/// `li`'s expansion: one `addi` when `value` fits 12 bits and two words
/// were not reserved, otherwise `lui` + `addi`.
fn li_expansion(rd: Reg, value: u32, force_two: bool) -> (Instr, Option<Instr>) {
    if !force_two && fits_i12(value) {
        let addi = Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1: Reg::ZERO,
            imm: value as i32,
        };
        return (addi, None);
    }
    let hi = value.wrapping_add(0x800) & 0xFFFF_F000;
    let lo = value.wrapping_sub(hi) as i32;
    debug_assert!((-2048..2048).contains(&lo));
    let addi = Instr::OpImm {
        op: AluOp::Add,
        rd,
        rs1: rd,
        imm: lo,
    };
    (Instr::Lui { rd, imm: hi }, Some(addi))
}

/// Expands one (possibly pseudo) instruction at `pc` into one or two
/// instructions. `sized_words` is the word count reserved when the
/// instruction was read, which `li` must honour.
fn emit_instr<'s>(
    mnemonic: &str,
    operands_text: &'s str,
    symbols: &Symbols<'_>,
    pc: u32,
    sized_words: u32,
) -> Result<(Instr, Option<Instr>), ExprError<'s>> {
    // Every instruction takes at most three operands: keep those, and
    // the count for the arity check.
    let mut o = [""; 3];
    let mut count = 0;
    for operand in operands(operands_text) {
        if let Some(slot) = o.get_mut(count) {
            *slot = operand;
        }
        count += 1;
    }
    let ctx = EmitCtx { symbols, pc };

    let rr_alu = |op: AluOp| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 3, mnemonic)?;
        Ok(Instr::Op {
            op,
            rd: parse_reg(o[0])?,
            rs1: parse_reg(o[1])?,
            rs2: parse_reg(o[2])?,
        })
    };
    let imm_alu = |op: AluOp| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 3, mnemonic)?;
        Ok(Instr::OpImm {
            op,
            rd: parse_reg(o[0])?,
            rs1: parse_reg(o[1])?,
            imm: ctx.eval_i12(o[2])?,
        })
    };
    let shift_alu = |op: AluOp| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 3, mnemonic)?;
        let sh = ctx.eval(o[2])?;
        if sh >= 32 {
            return Err(format!("shift amount {sh} out of range").into());
        }
        Ok(Instr::OpImm {
            op,
            rd: parse_reg(o[0])?,
            rs1: parse_reg(o[1])?,
            imm: sh as i32,
        })
    };
    let branch = |op: BranchOp, swap: bool| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 3, mnemonic)?;
        let (a, b) = (parse_reg(o[0])?, parse_reg(o[1])?);
        let (rs1, rs2) = if swap { (b, a) } else { (a, b) };
        Ok(Instr::Branch {
            op,
            rs1,
            rs2,
            offset: ctx.branch_offset(o[2])?,
        })
    };
    let branch_zero = |op: BranchOp, swap: bool| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 2, mnemonic)?;
        let rs = parse_reg(o[0])?;
        let (rs1, rs2) = if swap {
            (Reg::ZERO, rs)
        } else {
            (rs, Reg::ZERO)
        };
        Ok(Instr::Branch {
            op,
            rs1,
            rs2,
            offset: ctx.branch_offset(o[1])?,
        })
    };
    let load = |width: MemWidth, signed: bool| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 2, mnemonic)?;
        let rd = parse_reg(o[0])?;
        let (off, rs1) = parse_mem_operand(o[1])?;
        let offset = if off.is_empty() {
            0
        } else {
            ctx.eval_i12(off)?
        };
        Ok(Instr::Load {
            width,
            signed,
            rd,
            rs1,
            offset,
        })
    };
    let store = |width: MemWidth| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 2, mnemonic)?;
        let rs2 = parse_reg(o[0])?;
        let (off, rs1) = parse_mem_operand(o[1])?;
        let offset = if off.is_empty() {
            0
        } else {
            ctx.eval_i12(off)?
        };
        Ok(Instr::Store {
            width,
            rs2,
            rs1,
            offset,
        })
    };
    let amo_rmw = |op: AmoOp| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 3, mnemonic)?;
        let rd = parse_reg(o[0])?;
        let rs2 = parse_reg(o[1])?;
        let (off, rs1) = parse_mem_operand(o[2])?;
        if !off.is_empty() {
            return Err("atomic operand must be `(reg)` with no offset"
                .to_string()
                .into());
        }
        Ok(Instr::Amo { op, rd, rs1, rs2 })
    };
    let amo_lr = |op: AmoOp| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 2, mnemonic)?;
        let rd = parse_reg(o[0])?;
        let (off, rs1) = parse_mem_operand(o[1])?;
        if !off.is_empty() {
            return Err("atomic operand must be `(reg)` with no offset"
                .to_string()
                .into());
        }
        Ok(Instr::Amo {
            op,
            rd,
            rs1,
            rs2: Reg::ZERO,
        })
    };
    let parse_csr = |text: &'s str| -> Result<u16, ExprError<'s>> {
        if let Some(c) = Csr::parse(text) {
            return Ok(c.address());
        }
        let v = ctx.eval(text)?;
        if v > 0xFFF {
            return Err(format!("CSR address {v:#x} out of range").into());
        }
        Ok(v as u16)
    };
    let csr_reg = |op: CsrOp| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 3, mnemonic)?;
        Ok(Instr::Csr {
            op,
            rd: parse_reg(o[0])?,
            rs1: parse_reg(o[2])?,
            csr: parse_csr(o[1])?,
            imm_form: false,
        })
    };
    let csr_imm = |op: CsrOp| -> Result<Instr, ExprError<'s>> {
        expect_operands(count, 3, mnemonic)?;
        let imm = ctx.eval(o[2])?;
        if imm > 31 {
            return Err(format!("CSR immediate {imm} out of range (0-31)").into());
        }
        Ok(Instr::Csr {
            op,
            rd: parse_reg(o[0])?,
            rs1: Reg::new(imm as u8),
            csr: parse_csr(o[1])?,
            imm_form: true,
        })
    };

    match mnemonic {
        "li" | "la" => {
            expect_operands(count, 2, mnemonic)?;
            let rd = parse_reg(o[0])?;
            let v = ctx.eval(o[1])?;
            if mnemonic == "li" && sized_words == 1 && !fits_i12(v) {
                return Err(format!(
                    "`li` value {v:#x} changed after it was sized for one word \
                     (a symbol it uses was redefined below it)"
                )
                .into());
            }
            return Ok(li_expansion(rd, v, mnemonic == "la" || sized_words == 2));
        }
        _ => {}
    }
    // Byte-string patterns compile to a decision tree over the bytes, not
    // one string comparison per arm.
    let instr = match mnemonic.as_bytes() {
        // --- RV32I register-register ---
        b"add" => rr_alu(AluOp::Add),
        b"sub" => rr_alu(AluOp::Sub),
        b"sll" => rr_alu(AluOp::Sll),
        b"slt" => rr_alu(AluOp::Slt),
        b"sltu" => rr_alu(AluOp::Sltu),
        b"xor" => rr_alu(AluOp::Xor),
        b"srl" => rr_alu(AluOp::Srl),
        b"sra" => rr_alu(AluOp::Sra),
        b"or" => rr_alu(AluOp::Or),
        b"and" => rr_alu(AluOp::And),
        // --- RV32M ---
        b"mul" => rr_alu(AluOp::Mul),
        b"mulh" => rr_alu(AluOp::Mulh),
        b"mulhsu" => rr_alu(AluOp::Mulhsu),
        b"mulhu" => rr_alu(AluOp::Mulhu),
        b"div" => rr_alu(AluOp::Div),
        b"divu" => rr_alu(AluOp::Divu),
        b"rem" => rr_alu(AluOp::Rem),
        b"remu" => rr_alu(AluOp::Remu),
        // --- RV32I immediate ---
        b"addi" => imm_alu(AluOp::Add),
        b"slti" => imm_alu(AluOp::Slt),
        b"sltiu" => imm_alu(AluOp::Sltu),
        b"xori" => imm_alu(AluOp::Xor),
        b"ori" => imm_alu(AluOp::Or),
        b"andi" => imm_alu(AluOp::And),
        b"slli" => shift_alu(AluOp::Sll),
        b"srli" => shift_alu(AluOp::Srl),
        b"srai" => shift_alu(AluOp::Sra),
        // --- Upper immediates ---
        b"lui" | b"auipc" => {
            expect_operands(count, 2, mnemonic)?;
            let rd = parse_reg(o[0])?;
            let v = ctx.eval(o[1])?;
            if v > 0xF_FFFF {
                return Err(format!("upper immediate {v:#x} exceeds 20 bits").into());
            }
            let imm = v << 12;
            Ok(if mnemonic == "lui" {
                Instr::Lui { rd, imm }
            } else {
                Instr::Auipc { rd, imm }
            })
        }
        // --- Jumps ---
        b"jal" => match count {
            1 => Ok(Instr::Jal {
                rd: Reg::RA,
                offset: ctx.jal_offset(o[0])?,
            }),
            2 => Ok(Instr::Jal {
                rd: parse_reg(o[0])?,
                offset: ctx.jal_offset(o[1])?,
            }),
            n => Err(format!("`jal` expects 1 or 2 operands, got {n}").into()),
        },
        b"jalr" => match count {
            1 => Ok(Instr::Jalr {
                rd: Reg::RA,
                rs1: parse_reg(o[0])?,
                offset: 0,
            }),
            2 => {
                let rd = parse_reg(o[0])?;
                let (off, rs1) = parse_mem_operand(o[1])?;
                Ok(Instr::Jalr {
                    rd,
                    rs1,
                    offset: if off.is_empty() {
                        0
                    } else {
                        ctx.eval_i12(off)?
                    },
                })
            }
            n => Err(format!("`jalr` expects 1 or 2 operands, got {n}").into()),
        },
        // --- Branches ---
        b"beq" => branch(BranchOp::Eq, false),
        b"bne" => branch(BranchOp::Ne, false),
        b"blt" => branch(BranchOp::Lt, false),
        b"bge" => branch(BranchOp::Ge, false),
        b"bltu" => branch(BranchOp::Ltu, false),
        b"bgeu" => branch(BranchOp::Geu, false),
        b"bgt" => branch(BranchOp::Lt, true),
        b"ble" => branch(BranchOp::Ge, true),
        b"bgtu" => branch(BranchOp::Ltu, true),
        b"bleu" => branch(BranchOp::Geu, true),
        b"beqz" => branch_zero(BranchOp::Eq, false),
        b"bnez" => branch_zero(BranchOp::Ne, false),
        b"bltz" => branch_zero(BranchOp::Lt, false),
        b"bgez" => branch_zero(BranchOp::Ge, false),
        b"bgtz" => branch_zero(BranchOp::Lt, true),
        b"blez" => branch_zero(BranchOp::Ge, true),
        // --- Loads / stores ---
        b"lw" => load(MemWidth::Word, true),
        b"lh" => load(MemWidth::Half, true),
        b"lb" => load(MemWidth::Byte, true),
        b"lhu" => load(MemWidth::Half, false),
        b"lbu" => load(MemWidth::Byte, false),
        b"sw" => store(MemWidth::Word),
        b"sh" => store(MemWidth::Half),
        b"sb" => store(MemWidth::Byte),
        // --- System ---
        b"fence" => Ok(Instr::Fence),
        b"ecall" => Ok(Instr::Ecall),
        b"ebreak" => Ok(Instr::Ebreak),
        b"csrrw" => csr_reg(CsrOp::ReadWrite),
        b"csrrs" => csr_reg(CsrOp::ReadSet),
        b"csrrc" => csr_reg(CsrOp::ReadClear),
        b"csrrwi" => csr_imm(CsrOp::ReadWrite),
        b"csrrsi" => csr_imm(CsrOp::ReadSet),
        b"csrrci" => csr_imm(CsrOp::ReadClear),
        // --- RV32A ---
        b"lr.w" => amo_lr(AmoOp::Lr),
        b"sc.w" => amo_rmw(AmoOp::Sc),
        b"amoswap.w" => amo_rmw(AmoOp::Swap),
        b"amoadd.w" => amo_rmw(AmoOp::Add),
        b"amoxor.w" => amo_rmw(AmoOp::Xor),
        b"amoand.w" => amo_rmw(AmoOp::And),
        b"amoor.w" => amo_rmw(AmoOp::Or),
        b"amomin.w" => amo_rmw(AmoOp::Min),
        b"amomax.w" => amo_rmw(AmoOp::Max),
        b"amominu.w" => amo_rmw(AmoOp::Minu),
        b"amomaxu.w" => amo_rmw(AmoOp::Maxu),
        // --- Xlrscwait ---
        b"lrwait.w" => amo_lr(AmoOp::LrWait),
        b"scwait.w" => amo_rmw(AmoOp::ScWait),
        b"mwait.w" => amo_rmw(AmoOp::MWait),
        // --- Pseudo-instructions ---
        b"nop" => Ok(Instr::nop()),
        b"mv" => {
            expect_operands(count, 2, mnemonic)?;
            Ok(Instr::OpImm {
                op: AluOp::Add,
                rd: parse_reg(o[0])?,
                rs1: parse_reg(o[1])?,
                imm: 0,
            })
        }
        b"not" => {
            expect_operands(count, 2, mnemonic)?;
            Ok(Instr::OpImm {
                op: AluOp::Xor,
                rd: parse_reg(o[0])?,
                rs1: parse_reg(o[1])?,
                imm: -1,
            })
        }
        b"neg" => {
            expect_operands(count, 2, mnemonic)?;
            Ok(Instr::Op {
                op: AluOp::Sub,
                rd: parse_reg(o[0])?,
                rs1: Reg::ZERO,
                rs2: parse_reg(o[1])?,
            })
        }
        b"seqz" => {
            expect_operands(count, 2, mnemonic)?;
            Ok(Instr::OpImm {
                op: AluOp::Sltu,
                rd: parse_reg(o[0])?,
                rs1: parse_reg(o[1])?,
                imm: 1,
            })
        }
        b"snez" => {
            expect_operands(count, 2, mnemonic)?;
            Ok(Instr::Op {
                op: AluOp::Sltu,
                rd: parse_reg(o[0])?,
                rs1: Reg::ZERO,
                rs2: parse_reg(o[1])?,
            })
        }
        b"sltz" => {
            expect_operands(count, 2, mnemonic)?;
            Ok(Instr::Op {
                op: AluOp::Slt,
                rd: parse_reg(o[0])?,
                rs1: parse_reg(o[1])?,
                rs2: Reg::ZERO,
            })
        }
        b"sgtz" => {
            expect_operands(count, 2, mnemonic)?;
            Ok(Instr::Op {
                op: AluOp::Slt,
                rd: parse_reg(o[0])?,
                rs1: Reg::ZERO,
                rs2: parse_reg(o[1])?,
            })
        }
        b"j" => {
            expect_operands(count, 1, mnemonic)?;
            Ok(Instr::Jal {
                rd: Reg::ZERO,
                offset: ctx.jal_offset(o[0])?,
            })
        }
        b"jr" => {
            expect_operands(count, 1, mnemonic)?;
            Ok(Instr::Jalr {
                rd: Reg::ZERO,
                rs1: parse_reg(o[0])?,
                offset: 0,
            })
        }
        b"call" => {
            expect_operands(count, 1, mnemonic)?;
            Ok(Instr::Jal {
                rd: Reg::RA,
                offset: ctx.jal_offset(o[0])?,
            })
        }
        b"ret" => Ok(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        }),
        b"csrr" => {
            expect_operands(count, 2, mnemonic)?;
            Ok(Instr::Csr {
                op: CsrOp::ReadSet,
                rd: parse_reg(o[0])?,
                rs1: Reg::ZERO,
                csr: parse_csr(o[1])?,
                imm_form: false,
            })
        }
        b"csrw" => {
            expect_operands(count, 2, mnemonic)?;
            Ok(Instr::Csr {
                op: CsrOp::ReadWrite,
                rd: Reg::ZERO,
                rs1: parse_reg(o[1])?,
                csr: parse_csr(o[0])?,
                imm_form: false,
            })
        }
        b"rdcycle" => {
            expect_operands(count, 1, mnemonic)?;
            Ok(Instr::Csr {
                op: CsrOp::ReadSet,
                rd: parse_reg(o[0])?,
                rs1: Reg::ZERO,
                csr: lrscwait_isa::CSR_CYCLE,
                imm_form: false,
            })
        }
        b"rdhartid" => {
            expect_operands(count, 1, mnemonic)?;
            Ok(Instr::Csr {
                op: CsrOp::ReadSet,
                rd: parse_reg(o[0])?,
                rs1: Reg::ZERO,
                csr: lrscwait_isa::CSR_MHARTID,
                imm_form: false,
            })
        }
        _ => {
            // Mnemonics are case-insensitive; the kernels write them in
            // lowercase, so only an unmatched one is lowercased.
            let mut buf = [0; 16];
            return match lowercase(mnemonic, &mut buf) {
                Some(lower) => emit_instr(lower, operands_text, symbols, pc, sized_words),
                None => Err(format!("unknown mnemonic `{mnemonic}`").into()),
            };
        }
    }?;
    Ok((instr, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statements_and_operands_skip_literals() {
        let split: Vec<&str> = statements("li t0, ';' ; li t1, '#' # c").collect();
        assert_eq!(split, ["li t0, ';' ", " li t1, '#' "]);
        let ops: Vec<&str> = operands(" a0 , 8(s0), ',', (x, y), ,").collect();
        assert_eq!(ops, ["a0", "8(s0)", "','", "(x, y)"]);
    }
}
