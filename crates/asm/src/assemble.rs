//! The two-pass assembler core.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use lrscwait_isa::{encode, AluOp, AmoOp, BranchOp, Csr, CsrOp, Instr, MemWidth, Reg};

use crate::expr::{eval, resolvable, ExprContext};

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

#[derive(Clone, Debug)]
enum Stmt {
    Directive {
        name: String,
        args: Vec<String>,
    },
    Instr {
        mnemonic: String,
        operands: Vec<String>,
    },
}

#[derive(Clone, Debug)]
struct Item {
    line: u32,
    section: Section,
    /// Address of the item within its section (absolute for text/data).
    addr: u32,
    stmt: Stmt,
    /// Number of instruction words (text) or bytes (data/bss) this occupies.
    size: u32,
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
    /// # Errors
    ///
    /// Returns [`AsmError`] with the offending line on syntax errors,
    /// undefined symbols, out-of-range immediates, or misuse of directives.
    pub fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        let stmts = parse_source(source)?;

        // ---- Pass 1: layout, label collection, expansion sizing ----
        let mut symbols: HashMap<String, u32> = self.defines.iter().cloned().collect();
        let mut items: Vec<Item> = Vec::new();
        let mut section = Section::Text;
        let mut text_loc = self.text_base;
        let mut data_loc = self.data_base;
        let mut bss_loc = 0u32; // relative; rebased after pass 1
        let mut bss_labels: Vec<(String, u32)> = Vec::new();
        // Line of the directive that last grew the bss: it gets the blame
        // when the rebased segment does not fit below 2^32.
        let mut bss_line = 0;

        for (line, stmt) in stmts {
            let err = |message: String| AsmError { line, message };
            match stmt {
                ParsedLine::Label(name) => {
                    let value = match section {
                        Section::Text => text_loc,
                        Section::Data => data_loc,
                        Section::Bss => {
                            // Provisional: rebased after data size is known.
                            bss_labels.push((name.clone(), bss_loc));
                            continue;
                        }
                    };
                    if symbols.insert(name.clone(), value).is_some() {
                        return Err(err(format!("duplicate symbol `{name}`")));
                    }
                }
                ParsedLine::Stmt(Stmt::Directive { name, args }) => match name.as_str() {
                    ".text" => section = Section::Text,
                    ".data" => section = Section::Data,
                    ".bss" => section = Section::Bss,
                    ".section" => {
                        section = match args.first().map(String::as_str) {
                            Some(".text" | "text") => Section::Text,
                            Some(".data" | "data" | ".rodata" | "rodata") => Section::Data,
                            Some(".bss" | "bss") => Section::Bss,
                            other => return Err(err(format!("unknown section {other:?}"))),
                        };
                    }
                    ".global" | ".globl" => {}
                    ".equ" | ".set" => {
                        if args.len() != 2 {
                            return Err(err(format!("{name} expects `name, expr`")));
                        }
                        let ctx = ExprContext {
                            symbols: &symbols,
                            location: current_loc(section, text_loc, data_loc, bss_loc),
                        };
                        let value = eval(&args[1], &ctx).map_err(|e| err(e.0))?;
                        symbols.insert(args[0].clone(), value);
                    }
                    ".align" | ".p2align" => {
                        let ctx = ExprContext {
                            symbols: &symbols,
                            location: 0,
                        };
                        let p2 = eval(args.first().map_or("2", String::as_str), &ctx)
                            .map_err(|e| err(e.0))?;
                        if p2 > 16 {
                            return Err(err(format!("alignment 2^{p2} too large")));
                        }
                        let align = 1u32 << p2;
                        let pad = |loc: u32| (align - loc % align) % align;
                        match section {
                            Section::Text => {
                                let bytes = pad(text_loc);
                                if bytes % 4 != 0 {
                                    return Err(err("text alignment below 4 bytes".to_string()));
                                }
                                items.push(Item {
                                    line,
                                    section,
                                    addr: text_loc,
                                    stmt: Stmt::Directive {
                                        name: ".align-pad".to_string(),
                                        args: vec![],
                                    },
                                    size: bytes / 4,
                                });
                                advance(&mut text_loc, bytes, line)?;
                            }
                            Section::Data => {
                                let bytes = pad(data_loc);
                                items.push(Item {
                                    line,
                                    section,
                                    addr: data_loc,
                                    stmt: Stmt::Directive {
                                        name: ".align-pad".to_string(),
                                        args: vec![],
                                    },
                                    size: bytes,
                                });
                                advance(&mut data_loc, bytes, line)?;
                            }
                            Section::Bss => {
                                let bytes = pad(bss_loc);
                                advance(&mut bss_loc, bytes, line)?;
                                bss_line = line;
                            }
                        }
                    }
                    ".word" => {
                        if section == Section::Bss {
                            return Err(err(".word not allowed in .bss".to_string()));
                        }
                        let loc = if section == Section::Text {
                            &mut text_loc
                        } else {
                            &mut data_loc
                        };
                        if *loc % 4 != 0 {
                            return Err(err(".word requires 4-byte alignment".to_string()));
                        }
                        let size_units = if section == Section::Text {
                            args.len() as u32
                        } else {
                            4 * args.len() as u32
                        };
                        items.push(Item {
                            line,
                            section,
                            addr: *loc,
                            stmt: Stmt::Directive {
                                name: ".word".to_string(),
                                args,
                            },
                            size: size_units,
                        });
                        let bytes = if section == Section::Text {
                            4 * size_units
                        } else {
                            size_units
                        };
                        advance(loc, bytes, line)?;
                    }
                    ".space" | ".zero" => {
                        let ctx = ExprContext {
                            symbols: &symbols,
                            location: 0,
                        };
                        let n = eval(
                            args.first()
                                .ok_or_else(|| err(format!("{name} expects a size")))?,
                            &ctx,
                        )
                        .map_err(|e| err(e.0))?;
                        match section {
                            Section::Text => {
                                return Err(err(".space not allowed in .text".to_string()))
                            }
                            Section::Data => {
                                items.push(Item {
                                    line,
                                    section,
                                    addr: data_loc,
                                    stmt: Stmt::Directive {
                                        name: ".space".to_string(),
                                        args,
                                    },
                                    size: n,
                                });
                                advance(&mut data_loc, n, line)?;
                            }
                            Section::Bss => {
                                advance(&mut bss_loc, n, line)?;
                                bss_line = line;
                            }
                        }
                    }
                    other => return Err(err(format!("unknown directive `{other}`"))),
                },
                ParsedLine::Stmt(Stmt::Instr { mnemonic, operands }) => {
                    if section != Section::Text {
                        return Err(err(format!(
                            "instruction `{mnemonic}` outside .text section"
                        )));
                    }
                    let words = instr_size(&mnemonic, &operands, &symbols);
                    items.push(Item {
                        line,
                        section,
                        addr: text_loc,
                        stmt: Stmt::Instr { mnemonic, operands },
                        size: words,
                    });
                    advance(&mut text_loc, 4 * words, line)?;
                }
            }
        }

        // Rebase bss after the data segment, 64-byte aligned.
        let mut bss_base = data_loc;
        advance(&mut bss_base, (64 - data_loc % 64) % 64, bss_line)?;
        let mut bss_end = bss_base;
        advance(&mut bss_end, bss_loc, bss_line)?;
        for (name, rel) in bss_labels {
            if symbols.insert(name.clone(), bss_base + rel).is_some() {
                return Err(AsmError {
                    line: 0,
                    message: format!("duplicate symbol `{name}`"),
                });
            }
        }
        let bss_size = bss_loc;

        // ---- Pass 2: encoding ----
        let mut text: Vec<u32> = Vec::with_capacity(((text_loc - self.text_base) / 4) as usize);
        let mut source_lines: Vec<u32> = Vec::with_capacity(text.capacity());
        let mut data: Vec<u8> = Vec::with_capacity((data_loc - self.data_base) as usize);

        for item in &items {
            let err = |message: String| AsmError {
                line: item.line,
                message,
            };
            match (&item.stmt, item.section) {
                (Stmt::Directive { name, args }, Section::Text) => match name.as_str() {
                    ".align-pad" => {
                        for _ in 0..item.size {
                            text.push(encode(&Instr::nop()));
                            source_lines.push(item.line);
                        }
                    }
                    ".word" => {
                        for (k, arg) in args.iter().enumerate() {
                            let ctx = ExprContext {
                                symbols: &symbols,
                                location: item.addr + 4 * k as u32,
                            };
                            let v = eval(arg, &ctx).map_err(|e| err(e.0))?;
                            text.push(v);
                            source_lines.push(item.line);
                        }
                    }
                    other => return Err(err(format!("internal: directive {other} in text"))),
                },
                (Stmt::Directive { name, args }, Section::Data) => match name.as_str() {
                    ".align-pad" | ".space" => {
                        data.extend(std::iter::repeat_n(0u8, item.size as usize));
                    }
                    ".word" => {
                        for (k, arg) in args.iter().enumerate() {
                            let ctx = ExprContext {
                                symbols: &symbols,
                                location: item.addr + 4 * k as u32,
                            };
                            let v = eval(arg, &ctx).map_err(|e| err(e.0))?;
                            data.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                    other => return Err(err(format!("internal: directive {other} in data"))),
                },
                (Stmt::Instr { mnemonic, operands }, _) => {
                    let instrs = emit_instr(mnemonic, operands, &symbols, item.addr, item.size)
                        .map_err(err)?;
                    debug_assert_eq!(instrs.len() as u32, item.size, "pass-1/2 size mismatch");
                    for i in &instrs {
                        text.push(encode(i));
                        source_lines.push(item.line);
                    }
                }
                (Stmt::Directive { name, .. }, Section::Bss) => {
                    return Err(err(format!("internal: directive {name} in bss")))
                }
            }
        }

        let entry = symbols.get("_start").copied().unwrap_or(self.text_base);
        Ok(Program {
            text_base: self.text_base,
            text,
            data_base: self.data_base,
            data,
            bss_size,
            bss_base,
            symbols,
            entry,
            source_lines,
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

fn current_loc(section: Section, text: u32, data: u32, bss: u32) -> u32 {
    match section {
        Section::Text => text,
        Section::Data => data,
        Section::Bss => bss,
    }
}

enum ParsedLine {
    Label(String),
    Stmt(Stmt),
}

/// Splits source into (line, item) pairs; labels become separate entries.
fn parse_source(source: &str) -> Result<Vec<(u32, ParsedLine)>, AsmError> {
    let mut out = Vec::new();
    for (idx, raw_line) in source.lines().enumerate() {
        let line = idx as u32 + 1;
        let mut text = raw_line;
        if let Some(pos) = text.find('#') {
            text = &text[..pos];
        }
        if let Some(pos) = text.find("//") {
            text = &text[..pos];
        }
        for part in text.split(';') {
            let mut rest = part.trim();
            // Peel off leading labels.
            while let Some(colon) = rest.find(':') {
                let (head, tail) = rest.split_at(colon);
                let head = head.trim();
                if head.is_empty()
                    || !head
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                {
                    break;
                }
                out.push((line, ParsedLine::Label(head.to_string())));
                rest = tail[1..].trim();
            }
            if rest.is_empty() {
                continue;
            }
            let (head, args_text) = match rest.find(|c: char| c.is_whitespace()) {
                Some(pos) => (&rest[..pos], rest[pos..].trim()),
                None => (rest, ""),
            };
            if head.starts_with('.') {
                let args = split_operands(args_text);
                out.push((
                    line,
                    ParsedLine::Stmt(Stmt::Directive {
                        name: head.to_string(),
                        args,
                    }),
                ));
            } else {
                let operands = split_operands(args_text);
                out.push((
                    line,
                    ParsedLine::Stmt(Stmt::Instr {
                        mnemonic: head.to_ascii_lowercase(),
                        operands,
                    }),
                ));
            }
        }
    }
    Ok(out)
}

/// Splits an operand list on top-level commas (commas inside parentheses are
/// kept, so `8(a0)` style operands survive).
fn split_operands(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in text.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                let t = cur.trim();
                if !t.is_empty() {
                    out.push(t.to_string());
                }
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    let t = cur.trim();
    if !t.is_empty() {
        out.push(t.to_string());
    }
    out
}

/// Number of instruction words a (possibly pseudo) instruction expands to.
///
/// `li` is 1 word when its expression is already resolvable (literals and
/// symbols defined earlier — never bss labels, which are rebased later) and
/// fits a signed 12-bit immediate; otherwise 2. All other multi-word pseudos
/// are unconditional.
fn instr_size(mnemonic: &str, operands: &[String], symbols: &HashMap<String, u32>) -> u32 {
    match mnemonic {
        "li" => {
            if let Some(expr_text) = operands.get(1) {
                if resolvable(expr_text, symbols) {
                    let ctx = ExprContext {
                        symbols,
                        location: 0,
                    };
                    if let Ok(v) = eval(expr_text, &ctx) {
                        if (v as i32) >= -2048 && (v as i32) < 2048 {
                            return 1;
                        }
                    }
                }
            }
            2
        }
        "la" => 2,
        _ => 1,
    }
}

fn parse_reg(text: &str) -> Result<Reg, String> {
    Reg::parse(text).ok_or_else(|| format!("unknown register `{text}`"))
}

/// Parses `offset(reg)` or `(reg)`; returns (offset expression, register).
fn parse_mem_operand(text: &str) -> Result<(String, Reg), String> {
    let open = text
        .rfind('(')
        .ok_or_else(|| format!("expected `offset(reg)` operand, got `{text}`"))?;
    if !text.ends_with(')') {
        return Err(format!("missing `)` in operand `{text}`"));
    }
    let reg = parse_reg(text[open + 1..text.len() - 1].trim())?;
    let offset = text[..open].trim().to_string();
    Ok((offset, reg))
}

struct EmitCtx<'a> {
    symbols: &'a HashMap<String, u32>,
    pc: u32,
}

impl EmitCtx<'_> {
    fn eval(&self, text: &str) -> Result<u32, String> {
        let ctx = ExprContext {
            symbols: self.symbols,
            location: self.pc,
        };
        eval(text, &ctx).map_err(|e| e.0)
    }

    fn eval_i12(&self, text: &str) -> Result<i32, String> {
        let v = self.eval(text)? as i32;
        if !(-2048..2048).contains(&v) {
            return Err(format!("immediate {v} does not fit in 12 bits"));
        }
        Ok(v)
    }

    fn branch_offset(&self, text: &str) -> Result<i32, String> {
        let target = self.eval(text)?;
        let offset = target.wrapping_sub(self.pc) as i32;
        if !(-4096..4096).contains(&offset) || offset % 2 != 0 {
            return Err(format!(
                "branch target {target:#x} out of range from pc {:#x}",
                self.pc
            ));
        }
        Ok(offset)
    }

    fn jal_offset(&self, text: &str) -> Result<i32, String> {
        let target = self.eval(text)?;
        let offset = target.wrapping_sub(self.pc) as i32;
        if !(-(1 << 20)..(1 << 20)).contains(&offset) || offset % 2 != 0 {
            return Err(format!(
                "jump target {target:#x} out of range from pc {:#x}",
                self.pc
            ));
        }
        Ok(offset)
    }
}

fn expect_operands(operands: &[String], n: usize, mnemonic: &str) -> Result<(), String> {
    if operands.len() != n {
        return Err(format!(
            "`{mnemonic}` expects {n} operand(s), got {}",
            operands.len()
        ));
    }
    Ok(())
}

fn li_expansion(rd: Reg, value: u32, force_two: bool) -> Vec<Instr> {
    let sv = value as i32;
    if !force_two && (-2048..2048).contains(&sv) {
        return vec![Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1: Reg::ZERO,
            imm: sv,
        }];
    }
    let hi = value.wrapping_add(0x800) & 0xFFFF_F000;
    let lo = value.wrapping_sub(hi) as i32;
    debug_assert!((-2048..2048).contains(&lo));
    vec![
        Instr::Lui { rd, imm: hi },
        Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1: rd,
            imm: lo,
        },
    ]
}

/// Expands and encodes one (possibly pseudo) instruction at `pc`.
/// `sized_words` is the word count reserved by pass 1 (`li` must honour it).
fn emit_instr(
    mnemonic: &str,
    operands: &[String],
    symbols: &HashMap<String, u32>,
    pc: u32,
    sized_words: u32,
) -> Result<Vec<Instr>, String> {
    let ctx = EmitCtx { symbols, pc };

    let rr_alu = |op: AluOp| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 3, mnemonic)?;
        Ok(vec![Instr::Op {
            op,
            rd: parse_reg(&operands[0])?,
            rs1: parse_reg(&operands[1])?,
            rs2: parse_reg(&operands[2])?,
        }])
    };
    let imm_alu = |op: AluOp| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 3, mnemonic)?;
        Ok(vec![Instr::OpImm {
            op,
            rd: parse_reg(&operands[0])?,
            rs1: parse_reg(&operands[1])?,
            imm: ctx.eval_i12(&operands[2])?,
        }])
    };
    let shift_alu = |op: AluOp| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 3, mnemonic)?;
        let sh = ctx.eval(&operands[2])?;
        if sh >= 32 {
            return Err(format!("shift amount {sh} out of range"));
        }
        Ok(vec![Instr::OpImm {
            op,
            rd: parse_reg(&operands[0])?,
            rs1: parse_reg(&operands[1])?,
            imm: sh as i32,
        }])
    };
    let branch = |op: BranchOp, swap: bool| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 3, mnemonic)?;
        let (a, b) = (parse_reg(&operands[0])?, parse_reg(&operands[1])?);
        let (rs1, rs2) = if swap { (b, a) } else { (a, b) };
        Ok(vec![Instr::Branch {
            op,
            rs1,
            rs2,
            offset: ctx.branch_offset(&operands[2])?,
        }])
    };
    let branch_zero = |op: BranchOp, swap: bool| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 2, mnemonic)?;
        let rs = parse_reg(&operands[0])?;
        let (rs1, rs2) = if swap {
            (Reg::ZERO, rs)
        } else {
            (rs, Reg::ZERO)
        };
        Ok(vec![Instr::Branch {
            op,
            rs1,
            rs2,
            offset: ctx.branch_offset(&operands[1])?,
        }])
    };
    let load = |width: MemWidth, signed: bool| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 2, mnemonic)?;
        let rd = parse_reg(&operands[0])?;
        let (off, rs1) = parse_mem_operand(&operands[1])?;
        let offset = if off.is_empty() {
            0
        } else {
            ctx.eval_i12(&off)?
        };
        Ok(vec![Instr::Load {
            width,
            signed,
            rd,
            rs1,
            offset,
        }])
    };
    let store = |width: MemWidth| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 2, mnemonic)?;
        let rs2 = parse_reg(&operands[0])?;
        let (off, rs1) = parse_mem_operand(&operands[1])?;
        let offset = if off.is_empty() {
            0
        } else {
            ctx.eval_i12(&off)?
        };
        Ok(vec![Instr::Store {
            width,
            rs2,
            rs1,
            offset,
        }])
    };
    let amo_rmw = |op: AmoOp| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 3, mnemonic)?;
        let rd = parse_reg(&operands[0])?;
        let rs2 = parse_reg(&operands[1])?;
        let (off, rs1) = parse_mem_operand(&operands[2])?;
        if !off.is_empty() {
            return Err("atomic operand must be `(reg)` with no offset".to_string());
        }
        Ok(vec![Instr::Amo { op, rd, rs1, rs2 }])
    };
    let amo_lr = |op: AmoOp| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 2, mnemonic)?;
        let rd = parse_reg(&operands[0])?;
        let (off, rs1) = parse_mem_operand(&operands[1])?;
        if !off.is_empty() {
            return Err("atomic operand must be `(reg)` with no offset".to_string());
        }
        Ok(vec![Instr::Amo {
            op,
            rd,
            rs1,
            rs2: Reg::ZERO,
        }])
    };
    let parse_csr = |text: &str| -> Result<u16, String> {
        if let Some(c) = Csr::parse(text) {
            return Ok(c.address());
        }
        let v = ctx.eval(text)?;
        if v > 0xFFF {
            return Err(format!("CSR address {v:#x} out of range"));
        }
        Ok(v as u16)
    };
    let csr_reg = |op: CsrOp| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 3, mnemonic)?;
        Ok(vec![Instr::Csr {
            op,
            rd: parse_reg(&operands[0])?,
            rs1: parse_reg(&operands[2])?,
            csr: parse_csr(&operands[1])?,
            imm_form: false,
        }])
    };
    let csr_imm = |op: CsrOp| -> Result<Vec<Instr>, String> {
        expect_operands(operands, 3, mnemonic)?;
        let imm = ctx.eval(&operands[2])?;
        if imm > 31 {
            return Err(format!("CSR immediate {imm} out of range (0-31)"));
        }
        Ok(vec![Instr::Csr {
            op,
            rd: parse_reg(&operands[0])?,
            rs1: Reg::new(imm as u8),
            csr: parse_csr(&operands[1])?,
            imm_form: true,
        }])
    };

    match mnemonic {
        // --- RV32I register-register ---
        "add" => rr_alu(AluOp::Add),
        "sub" => rr_alu(AluOp::Sub),
        "sll" => rr_alu(AluOp::Sll),
        "slt" => rr_alu(AluOp::Slt),
        "sltu" => rr_alu(AluOp::Sltu),
        "xor" => rr_alu(AluOp::Xor),
        "srl" => rr_alu(AluOp::Srl),
        "sra" => rr_alu(AluOp::Sra),
        "or" => rr_alu(AluOp::Or),
        "and" => rr_alu(AluOp::And),
        // --- RV32M ---
        "mul" => rr_alu(AluOp::Mul),
        "mulh" => rr_alu(AluOp::Mulh),
        "mulhsu" => rr_alu(AluOp::Mulhsu),
        "mulhu" => rr_alu(AluOp::Mulhu),
        "div" => rr_alu(AluOp::Div),
        "divu" => rr_alu(AluOp::Divu),
        "rem" => rr_alu(AluOp::Rem),
        "remu" => rr_alu(AluOp::Remu),
        // --- RV32I immediate ---
        "addi" => imm_alu(AluOp::Add),
        "slti" => imm_alu(AluOp::Slt),
        "sltiu" => imm_alu(AluOp::Sltu),
        "xori" => imm_alu(AluOp::Xor),
        "ori" => imm_alu(AluOp::Or),
        "andi" => imm_alu(AluOp::And),
        "slli" => shift_alu(AluOp::Sll),
        "srli" => shift_alu(AluOp::Srl),
        "srai" => shift_alu(AluOp::Sra),
        // --- Upper immediates ---
        "lui" | "auipc" => {
            expect_operands(operands, 2, mnemonic)?;
            let rd = parse_reg(&operands[0])?;
            let v = ctx.eval(&operands[1])?;
            if v > 0xF_FFFF {
                return Err(format!("upper immediate {v:#x} exceeds 20 bits"));
            }
            let imm = v << 12;
            Ok(vec![if mnemonic == "lui" {
                Instr::Lui { rd, imm }
            } else {
                Instr::Auipc { rd, imm }
            }])
        }
        // --- Jumps ---
        "jal" => match operands.len() {
            1 => Ok(vec![Instr::Jal {
                rd: Reg::RA,
                offset: ctx.jal_offset(&operands[0])?,
            }]),
            2 => Ok(vec![Instr::Jal {
                rd: parse_reg(&operands[0])?,
                offset: ctx.jal_offset(&operands[1])?,
            }]),
            n => Err(format!("`jal` expects 1 or 2 operands, got {n}")),
        },
        "jalr" => match operands.len() {
            1 => Ok(vec![Instr::Jalr {
                rd: Reg::RA,
                rs1: parse_reg(&operands[0])?,
                offset: 0,
            }]),
            2 => {
                let rd = parse_reg(&operands[0])?;
                let (off, rs1) = parse_mem_operand(&operands[1])?;
                Ok(vec![Instr::Jalr {
                    rd,
                    rs1,
                    offset: if off.is_empty() {
                        0
                    } else {
                        ctx.eval_i12(&off)?
                    },
                }])
            }
            n => Err(format!("`jalr` expects 1 or 2 operands, got {n}")),
        },
        // --- Branches ---
        "beq" => branch(BranchOp::Eq, false),
        "bne" => branch(BranchOp::Ne, false),
        "blt" => branch(BranchOp::Lt, false),
        "bge" => branch(BranchOp::Ge, false),
        "bltu" => branch(BranchOp::Ltu, false),
        "bgeu" => branch(BranchOp::Geu, false),
        "bgt" => branch(BranchOp::Lt, true),
        "ble" => branch(BranchOp::Ge, true),
        "bgtu" => branch(BranchOp::Ltu, true),
        "bleu" => branch(BranchOp::Geu, true),
        "beqz" => branch_zero(BranchOp::Eq, false),
        "bnez" => branch_zero(BranchOp::Ne, false),
        "bltz" => branch_zero(BranchOp::Lt, false),
        "bgez" => branch_zero(BranchOp::Ge, false),
        "bgtz" => branch_zero(BranchOp::Lt, true),
        "blez" => branch_zero(BranchOp::Ge, true),
        // --- Loads / stores ---
        "lw" => load(MemWidth::Word, true),
        "lh" => load(MemWidth::Half, true),
        "lb" => load(MemWidth::Byte, true),
        "lhu" => load(MemWidth::Half, false),
        "lbu" => load(MemWidth::Byte, false),
        "sw" => store(MemWidth::Word),
        "sh" => store(MemWidth::Half),
        "sb" => store(MemWidth::Byte),
        // --- System ---
        "fence" => Ok(vec![Instr::Fence]),
        "ecall" => Ok(vec![Instr::Ecall]),
        "ebreak" => Ok(vec![Instr::Ebreak]),
        "csrrw" => csr_reg(CsrOp::ReadWrite),
        "csrrs" => csr_reg(CsrOp::ReadSet),
        "csrrc" => csr_reg(CsrOp::ReadClear),
        "csrrwi" => csr_imm(CsrOp::ReadWrite),
        "csrrsi" => csr_imm(CsrOp::ReadSet),
        "csrrci" => csr_imm(CsrOp::ReadClear),
        // --- RV32A ---
        "lr.w" => amo_lr(AmoOp::Lr),
        "sc.w" => amo_rmw(AmoOp::Sc),
        "amoswap.w" => amo_rmw(AmoOp::Swap),
        "amoadd.w" => amo_rmw(AmoOp::Add),
        "amoxor.w" => amo_rmw(AmoOp::Xor),
        "amoand.w" => amo_rmw(AmoOp::And),
        "amoor.w" => amo_rmw(AmoOp::Or),
        "amomin.w" => amo_rmw(AmoOp::Min),
        "amomax.w" => amo_rmw(AmoOp::Max),
        "amominu.w" => amo_rmw(AmoOp::Minu),
        "amomaxu.w" => amo_rmw(AmoOp::Maxu),
        // --- Xlrscwait ---
        "lrwait.w" => amo_lr(AmoOp::LrWait),
        "scwait.w" => amo_rmw(AmoOp::ScWait),
        "mwait.w" => amo_rmw(AmoOp::MWait),
        // --- Pseudo-instructions ---
        "nop" => Ok(vec![Instr::nop()]),
        "li" => {
            expect_operands(operands, 2, mnemonic)?;
            let rd = parse_reg(&operands[0])?;
            let v = ctx.eval(&operands[1])?;
            Ok(li_expansion(rd, v, sized_words == 2))
        }
        "la" => {
            expect_operands(operands, 2, mnemonic)?;
            let rd = parse_reg(&operands[0])?;
            let v = ctx.eval(&operands[1])?;
            Ok(li_expansion(rd, v, true))
        }
        "mv" => {
            expect_operands(operands, 2, mnemonic)?;
            Ok(vec![Instr::OpImm {
                op: AluOp::Add,
                rd: parse_reg(&operands[0])?,
                rs1: parse_reg(&operands[1])?,
                imm: 0,
            }])
        }
        "not" => {
            expect_operands(operands, 2, mnemonic)?;
            Ok(vec![Instr::OpImm {
                op: AluOp::Xor,
                rd: parse_reg(&operands[0])?,
                rs1: parse_reg(&operands[1])?,
                imm: -1,
            }])
        }
        "neg" => {
            expect_operands(operands, 2, mnemonic)?;
            Ok(vec![Instr::Op {
                op: AluOp::Sub,
                rd: parse_reg(&operands[0])?,
                rs1: Reg::ZERO,
                rs2: parse_reg(&operands[1])?,
            }])
        }
        "seqz" => {
            expect_operands(operands, 2, mnemonic)?;
            Ok(vec![Instr::OpImm {
                op: AluOp::Sltu,
                rd: parse_reg(&operands[0])?,
                rs1: parse_reg(&operands[1])?,
                imm: 1,
            }])
        }
        "snez" => {
            expect_operands(operands, 2, mnemonic)?;
            Ok(vec![Instr::Op {
                op: AluOp::Sltu,
                rd: parse_reg(&operands[0])?,
                rs1: Reg::ZERO,
                rs2: parse_reg(&operands[1])?,
            }])
        }
        "sltz" => {
            expect_operands(operands, 2, mnemonic)?;
            Ok(vec![Instr::Op {
                op: AluOp::Slt,
                rd: parse_reg(&operands[0])?,
                rs1: parse_reg(&operands[1])?,
                rs2: Reg::ZERO,
            }])
        }
        "sgtz" => {
            expect_operands(operands, 2, mnemonic)?;
            Ok(vec![Instr::Op {
                op: AluOp::Slt,
                rd: parse_reg(&operands[0])?,
                rs1: Reg::ZERO,
                rs2: parse_reg(&operands[1])?,
            }])
        }
        "j" => {
            expect_operands(operands, 1, mnemonic)?;
            Ok(vec![Instr::Jal {
                rd: Reg::ZERO,
                offset: ctx.jal_offset(&operands[0])?,
            }])
        }
        "jr" => {
            expect_operands(operands, 1, mnemonic)?;
            Ok(vec![Instr::Jalr {
                rd: Reg::ZERO,
                rs1: parse_reg(&operands[0])?,
                offset: 0,
            }])
        }
        "call" => {
            expect_operands(operands, 1, mnemonic)?;
            Ok(vec![Instr::Jal {
                rd: Reg::RA,
                offset: ctx.jal_offset(&operands[0])?,
            }])
        }
        "ret" => Ok(vec![Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        }]),
        "csrr" => {
            expect_operands(operands, 2, mnemonic)?;
            Ok(vec![Instr::Csr {
                op: CsrOp::ReadSet,
                rd: parse_reg(&operands[0])?,
                rs1: Reg::ZERO,
                csr: parse_csr(&operands[1])?,
                imm_form: false,
            }])
        }
        "csrw" => {
            expect_operands(operands, 2, mnemonic)?;
            Ok(vec![Instr::Csr {
                op: CsrOp::ReadWrite,
                rd: Reg::ZERO,
                rs1: parse_reg(&operands[1])?,
                csr: parse_csr(&operands[0])?,
                imm_form: false,
            }])
        }
        "rdcycle" => {
            expect_operands(operands, 1, mnemonic)?;
            Ok(vec![Instr::Csr {
                op: CsrOp::ReadSet,
                rd: parse_reg(&operands[0])?,
                rs1: Reg::ZERO,
                csr: lrscwait_isa::CSR_CYCLE,
                imm_form: false,
            }])
        }
        "rdhartid" => {
            expect_operands(operands, 1, mnemonic)?;
            Ok(vec![Instr::Csr {
                op: CsrOp::ReadSet,
                rd: parse_reg(&operands[0])?,
                rs1: Reg::ZERO,
                csr: lrscwait_isa::CSR_MHARTID,
                imm_form: false,
            }])
        }
        other => Err(format!("unknown mnemonic `{other}`")),
    }
}
