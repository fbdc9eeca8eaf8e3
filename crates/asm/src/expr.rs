//! Constant-expression evaluator for assembler operands.
//!
//! Supports integer literals (decimal, `0x`, `0b`, `0o`, `_` separators),
//! character literals (`'c'`, `'\n'`), symbols (labels and `.equ`
//! definitions), `.` for the current location counter, parentheses, and
//! the operators `| ^ & << >> + - * / %` with C-like precedence plus unary
//! `-` and `~`.
//!
//! Evaluation is recursive descent straight over the expression's bytes:
//! nothing is tokenized into a buffer, and a symbol is looked up by the
//! slice that names it.

use std::collections::HashMap;
use std::fmt;

/// The symbol table while assembling: names borrowed from the source and
/// the defines.
pub(crate) type Symbols<'a> = HashMap<&'a str, u32>;

/// What an expression may refer to.
pub(crate) struct Scope<'a> {
    /// Symbol values known so far (labels and `.equ` constants).
    pub(crate) symbols: &'a Symbols<'a>,
    /// Value of `.`, or `None` where it is not known yet (sizing a `li`
    /// before its address is final).
    pub(crate) location: Option<u32>,
}

/// Why an expression has no value.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ExprError<'s> {
    /// A symbol (or `.`) that is not defined, or not yet.
    Undefined(&'s str),
    /// Malformed, or arithmetically invalid.
    Invalid(String),
}

impl From<String> for ExprError<'_> {
    fn from(message: String) -> Self {
        ExprError::Invalid(message)
    }
}

impl fmt::Display for ExprError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::Undefined(name) => write!(f, "undefined symbol `{name}`"),
            ExprError::Invalid(message) => f.write_str(message),
        }
    }
}

/// The character literal `text` starts with, `'c'` or `'\e'`: its body
/// between the quotes and its length in bytes, quotes included.
pub(crate) fn char_literal(text: &str) -> Option<(&str, usize)> {
    let body = text.strip_prefix('\'')?;
    let mut chars = body.chars();
    let first = chars.next()?;
    let len = if first == '\\' {
        1 + chars.next()?.len_utf8()
    } else {
        first.len_utf8()
    };
    body[len..]
        .starts_with('\'')
        .then_some((&body[..len], len + 2))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'s> {
    Num(u32),
    Sym(&'s str),
    Dot,
    LParen,
    RParen,
    /// An operator, by its first byte (`<` and `>` stand for `<<`, `>>`).
    Op(u8),
    End,
}

struct Parser<'s, 'a> {
    input: &'s str,
    pos: usize,
    /// The current token; `pos` is just past it.
    tok: Tok<'s>,
    scope: &'a Scope<'a>,
    /// Open parentheses and unary operators around the current primary.
    depth: u32,
}

/// Deepest nesting [`eval`] accepts: far beyond any real operand, and far
/// below what would overflow the host stack.
const MAX_DEPTH: u32 = 256;

fn is_symbol_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl<'s> Parser<'s, '_> {
    fn invalid<T>(&self, message: String) -> Result<T, ExprError<'s>> {
        Err(ExprError::Invalid(message))
    }

    /// Lexes the token at `pos` into `tok` and moves `pos` past it.
    fn bump(&mut self) -> Result<(), ExprError<'s>> {
        let bytes = self.input.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
        let start = self.pos;
        let Some(&c) = bytes.get(start) else {
            self.tok = Tok::End;
            return Ok(());
        };
        let span_end = |from: usize, also_dot: bool| {
            from + bytes[from..]
                .iter()
                .take_while(|&&b| is_symbol_byte(b) || (also_dot && b == b'.'))
                .count()
        };
        self.pos = start + 1;
        self.tok = match c {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^' | b'~' => Tok::Op(c),
            b'<' | b'>' => {
                if bytes.get(start + 1) != Some(&c) {
                    return self.invalid(format!(
                        "unexpected '{}' in expression `{}`",
                        c as char, self.input
                    ));
                }
                self.pos = start + 2;
                Tok::Op(c)
            }
            b'.' => {
                // `.` alone is the location counter; `.foo` is a symbol.
                self.pos = span_end(start + 1, false);
                if self.pos == start + 1 {
                    Tok::Dot
                } else {
                    Tok::Sym(&self.input[start..self.pos])
                }
            }
            b'0'..=b'9' => {
                self.pos = span_end(start, false);
                Tok::Num(integer(&self.input[start..self.pos])?)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                self.pos = span_end(start, true);
                Tok::Sym(&self.input[start..self.pos])
            }
            b'\'' => {
                let Some((body, len)) = char_literal(&self.input[start..]) else {
                    return self.invalid("unterminated character literal".to_string());
                };
                self.pos = start + len;
                Tok::Num(char_value(body)?)
            }
            _ => {
                let other = self.input[start..].chars().next().unwrap_or('?');
                return self.invalid(format!(
                    "unexpected character `{other}` in expression `{}`",
                    self.input
                ));
            }
        };
        Ok(())
    }

    /// Consumes the current token when it is one of the operators `ops`.
    fn eat_op(&mut self, ops: &[u8]) -> Result<Option<u8>, ExprError<'s>> {
        match self.tok {
            Tok::Op(op) if ops.contains(&op) => {
                self.bump()?;
                Ok(Some(op))
            }
            _ => Ok(None),
        }
    }

    fn primary(&mut self) -> Result<u32, ExprError<'s>> {
        let tok = self.tok;
        self.bump()?;
        if matches!(tok, Tok::LParen | Tok::Op(b'-' | b'~')) {
            if self.depth == MAX_DEPTH {
                return self.invalid(format!("expression nested deeper than {MAX_DEPTH}"));
            }
            self.depth += 1;
        }
        let v = match tok {
            Tok::Num(n) => Ok(n),
            Tok::Dot => self.scope.location.ok_or(ExprError::Undefined(".")),
            Tok::Sym(name) => self
                .scope
                .symbols
                .get(name)
                .copied()
                .ok_or(ExprError::Undefined(name)),
            Tok::LParen => {
                let v = self.or_expr()?;
                if self.tok != Tok::RParen {
                    return self.invalid("missing `)`".to_string());
                }
                self.bump()?;
                Ok(v)
            }
            Tok::Op(b'-') => Ok(self.primary()?.wrapping_neg()),
            Tok::Op(b'~') => Ok(!self.primary()?),
            other => {
                return self.invalid(format!(
                    "unexpected {} in expression `{}`",
                    describe(other),
                    self.input
                ))
            }
        };
        if matches!(tok, Tok::LParen | Tok::Op(b'-' | b'~')) {
            self.depth -= 1;
        }
        v
    }

    fn mul_expr(&mut self) -> Result<u32, ExprError<'s>> {
        let mut v = self.primary()?;
        while let Some(op) = self.eat_op(b"*/%")? {
            let rhs = self.primary()?;
            v = match op {
                b'*' => v.wrapping_mul(rhs),
                _ if rhs == 0 => {
                    let what = if op == b'/' { "division" } else { "modulo" };
                    return self.invalid(format!("{what} by zero"));
                }
                b'/' => v / rhs,
                _ => v % rhs,
            };
        }
        Ok(v)
    }

    fn add_expr(&mut self) -> Result<u32, ExprError<'s>> {
        let mut v = self.mul_expr()?;
        while let Some(op) = self.eat_op(b"+-")? {
            let rhs = self.mul_expr()?;
            v = if op == b'+' {
                v.wrapping_add(rhs)
            } else {
                v.wrapping_sub(rhs)
            };
        }
        Ok(v)
    }

    fn shift_expr(&mut self) -> Result<u32, ExprError<'s>> {
        let mut v = self.add_expr()?;
        while let Some(op) = self.eat_op(b"<>")? {
            let rhs = self.add_expr()?;
            if rhs >= 32 {
                return self.invalid(format!("shift amount {rhs} out of range"));
            }
            v = if op == b'<' { v << rhs } else { v >> rhs };
        }
        Ok(v)
    }

    fn and_expr(&mut self) -> Result<u32, ExprError<'s>> {
        let mut v = self.shift_expr()?;
        while self.eat_op(b"&")?.is_some() {
            v &= self.shift_expr()?;
        }
        Ok(v)
    }

    fn xor_expr(&mut self) -> Result<u32, ExprError<'s>> {
        let mut v = self.and_expr()?;
        while self.eat_op(b"^")?.is_some() {
            v ^= self.and_expr()?;
        }
        Ok(v)
    }

    fn or_expr(&mut self) -> Result<u32, ExprError<'s>> {
        let mut v = self.xor_expr()?;
        while self.eat_op(b"|")?.is_some() {
            v |= self.xor_expr()?;
        }
        Ok(v)
    }
}

fn describe(tok: Tok<'_>) -> String {
    match tok {
        Tok::RParen => "`)`".to_string(),
        Tok::Op(b'<') => "`<<`".to_string(),
        Tok::Op(b'>') => "`>>`".to_string(),
        Tok::Op(op) => format!("`{}`", op as char),
        _ => "end".to_string(),
    }
}

/// An integer literal: decimal, or `0x`/`0b`/`0o`-prefixed, with `_`
/// separators among the digits.
fn integer(text: &str) -> Result<u32, ExprError<'_>> {
    let (radix, digits) = match text.as_bytes() {
        [b'0', b'x' | b'X', digits @ ..] => (16, digits),
        [b'0', b'b' | b'B', digits @ ..] => (2, digits),
        [b'0', b'o' | b'O', digits @ ..] => (8, digits),
        digits => (10, digits),
    };
    let mut value: Option<u32> = None;
    for &b in digits {
        if b == b'_' {
            continue;
        }
        value = char::from(b).to_digit(radix).and_then(|digit| {
            value
                .unwrap_or(0)
                .checked_mul(radix)
                .and_then(|v| v.checked_add(digit))
        });
        if value.is_none() {
            break;
        }
    }
    value.ok_or_else(|| ExprError::Invalid(format!("bad integer literal `{text}`")))
}

/// The value of a character literal's body (see [`char_literal`]).
fn char_value(body: &str) -> Result<u32, ExprError<'_>> {
    let Some(esc) = body.strip_prefix('\\') else {
        return Ok(body.chars().next().map_or(0, u32::from));
    };
    let v = match esc {
        "n" => b'\n',
        "t" => b'\t',
        "0" => 0,
        "\\" => b'\\',
        "'" => b'\'',
        other => return Err(ExprError::Invalid(format!("unknown escape `\\{other}`"))),
    };
    Ok(u32::from(v))
}

/// Evaluates a constant expression to a 32-bit value.
///
/// # Errors
///
/// Returns [`ExprError::Undefined`] for the first symbol `scope` does not
/// define, and [`ExprError::Invalid`] on syntax errors, division by zero
/// and shifts by 32 or more.
pub(crate) fn eval<'s>(input: &'s str, scope: &Scope<'_>) -> Result<u32, ExprError<'s>> {
    let mut parser = Parser {
        input,
        pos: 0,
        tok: Tok::End,
        scope,
        depth: 0,
    };
    parser.bump()?;
    if parser.tok == Tok::End {
        return Err(ExprError::Invalid("empty expression".to_string()));
    }
    let v = parser.or_expr()?;
    if parser.tok != Tok::End {
        return Err(ExprError::Invalid(format!(
            "trailing tokens in expression `{input}`"
        )));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_with(input: &str, symbols: &Symbols<'_>) -> Result<u32, String> {
        let scope = Scope {
            symbols,
            location: Some(0x100),
        };
        eval(input, &scope).map_err(|e| e.to_string())
    }

    fn value(input: &str) -> Result<u32, String> {
        eval_with(input, &Symbols::default())
    }

    #[test]
    fn literals() {
        assert_eq!(value("42"), Ok(42));
        assert_eq!(value("0x10"), Ok(16));
        assert_eq!(value("0b101"), Ok(5));
        assert_eq!(value("0o17"), Ok(15));
        assert_eq!(value("1_000"), Ok(1000));
        assert_eq!(value("0xFFFF_FFFF"), Ok(u32::MAX));
        assert_eq!(value("-1"), Ok(u32::MAX));
        assert_eq!(value("'A'"), Ok(65));
        assert_eq!(value("'\\n'"), Ok(10));
        assert_eq!(value("'\\''"), Ok(39));
        assert_eq!(value("'#' + 1"), Ok(36));
    }

    #[test]
    fn precedence() {
        assert_eq!(value("2+3*4"), Ok(14));
        assert_eq!(value("(2+3)*4"), Ok(20));
        assert_eq!(value("1<<4|1"), Ok(17));
        assert_eq!(value("0xFF & 0x0F"), Ok(0x0F));
        assert_eq!(value("1 << 2 + 1"), Ok(8)); // shift binds looser than +
        assert_eq!(value("~0"), Ok(u32::MAX));
        assert_eq!(value("-2*3"), Ok(6u32.wrapping_neg()));
        assert_eq!(value("10 % 3"), Ok(1));
        assert_eq!(value("7 / 2"), Ok(3));
        assert_eq!(value("1 ^ 3"), Ok(2));
        assert_eq!(value("1 << 31"), Ok(0x8000_0000));
        assert_eq!(value("0x8000_0000 >> 31"), Ok(1));
    }

    #[test]
    fn symbols_and_location() {
        let syms = Symbols::from([("foo", 12), ("bar.baz", 30), (".L1", 4)]);
        assert_eq!(eval_with("foo*2", &syms), Ok(24));
        assert_eq!(eval_with("bar.baz", &syms), Ok(30));
        assert_eq!(eval_with(".L1", &syms), Ok(4));
        assert_eq!(eval_with(".", &syms), Ok(0x100));
        assert_eq!(eval_with(". + 8", &syms), Ok(0x108));
        let scope = Scope {
            symbols: &syms,
            location: None,
        };
        assert_eq!(
            eval("foo + nope", &scope),
            Err(ExprError::Undefined("nope"))
        );
        assert_eq!(eval(". + 4", &scope), Err(ExprError::Undefined(".")));
    }

    #[test]
    fn errors() {
        for bad in [
            "",
            "1 +",
            "(1",
            "1 1",
            "1/0",
            "1%0",
            "0xZZ",
            "0x",
            "1 < 2",
            "1 $",
            "'ab'",
            "'\\q'",
            "4294967296",
            ")",
        ] {
            assert!(value(bad).is_err(), "`{bad}` must not evaluate");
        }
        let deep = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
        assert!(value(&deep).unwrap_err().contains("nested deeper"));
        assert!(value(&"-".repeat(100_000)).is_err());
    }

    #[test]
    fn shifts_by_32_or_more_are_errors() {
        for (input, amount) in [("1 << 32", 32), ("1 >> 40", 40), ("1 << -1", u32::MAX)] {
            let e = value(input).unwrap_err();
            assert!(
                e.contains(&format!("shift amount {amount}")),
                "{input}: {e}"
            );
        }
    }
}
