//! The positional encoding of a file record's payload.
//!
//! A payload is one JSON array, written and read here without building a
//! value tree: every product is an array of its fields in declaration
//! order, never an object, so the reader walks the bytes once and
//! allocates only what the decoded products own.
//!
//! ```text
//! payload    = [W014 run, [unit, ...]]
//! unit       = [name, start, fingerprint, entry | null]
//! entry      = [extraction | null, extract diagnostics, validate diagnostics]
//! extraction = [name, kind, claims, spec, alphabet, methods, fields, init]
//! method     = [exits, calls, matches, loop jumps, field writes, program]
//! diagnostic = [severity, code, file | null, span | null, message, notes]
//! span       = [start, end]
//! ```
//!
//! Enumerations and flags are small integers, an [`Alphabet`] is its names
//! in intern order, and a calculus [`Program`] is a string in a prefix
//! code (`c<symbol>`, `s`, `r<exit>`, `q` p p, `i` p p, `l` p), which
//! round-trips the tree exactly. (The Fig. 4 concrete syntax does not:
//! it prints both associations of a sequence alike and renumbers
//! `return`s.)

use crate::annotations::{Claim, ClassKind, OpKind};
use crate::diagnostics::{code_info, Diagnostic, Diagnostics, Severity};
use crate::extract::lower::{
    CallSite, LoweredExit, LoweredMethod, MatchCaseInfo, MatchSite, ReturnForm,
};
use crate::spec::{ClassSpec, ExitSpec, OperationSpec};
use crate::system::ClassExtraction;
use crate::workspace::ExtractEntry;
use micropython_parser::Span;
use shelley_ir::Program;
use shelley_regular::{Alphabet, Symbol};
use std::fmt::Write as _;
use std::sync::Arc;

/// One class unit of a file record, as the workspace registers it.
#[derive(Debug)]
pub(crate) struct SavedUnit {
    pub(crate) name: String,
    pub(crate) start: usize,
    pub(crate) fingerprint: u64,
    /// The extraction products of a definition that won when the record
    /// was written; `None` for a shadowed one.
    pub(crate) extract: Option<ExtractEntry>,
}

/// A decoded file record: the file's `W014` run and its class units in
/// source order.
#[derive(Debug)]
pub(crate) struct SavedFile {
    pub(crate) degraded: Diagnostics,
    pub(crate) units: Vec<SavedUnit>,
}

/// Appends the payload of a file record to `out`.
pub(crate) fn encode<'a>(
    out: &mut String,
    degraded: &Diagnostics,
    units: impl IntoIterator<Item = (&'a str, usize, u64, Option<&'a ExtractEntry>)>,
) {
    let mut w = Writer(out);
    w.0.push('[');
    w.diagnostics(degraded);
    w.0.push(',');
    w.seq(units, |w, (name, start, fingerprint, entry)| {
        w.0.push('[');
        w.str(name);
        w.0.push(',');
        w.uint(start as u64);
        w.0.push(',');
        w.uint(fingerprint);
        w.0.push(',');
        w.opt(entry, Writer::entry);
        w.0.push(']');
    });
    w.0.push(']');
}

/// Decodes a payload [`encode`] wrote; `None` if it is malformed.
pub(crate) fn decode(payload: &str) -> Option<SavedFile> {
    let mut r = Reader {
        text: payload,
        pos: 0,
        symbols: 0,
        exits: 0,
    };
    r.eat(b'[')?;
    let degraded = r.diagnostics()?;
    r.eat(b',')?;
    let units = r.seq(|r| {
        r.eat(b'[')?;
        let name = r.str()?;
        r.eat(b',')?;
        let start = r.usize()?;
        r.eat(b',')?;
        let fingerprint = r.uint()?;
        r.eat(b',')?;
        let extract = r.opt(Reader::entry)?;
        r.eat(b']')?;
        Some(SavedUnit {
            name,
            start,
            fingerprint,
            extract,
        })
    })?;
    r.eat(b']')?;
    (r.pos == payload.len()).then_some(SavedFile { degraded, units })
}

struct Writer<'a>(&'a mut String);

impl Writer<'_> {
    fn seq<T>(&mut self, items: impl IntoIterator<Item = T>, mut f: impl FnMut(&mut Self, T)) {
        self.0.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            f(self, item);
        }
        self.0.push(']');
    }

    fn opt<T>(&mut self, value: Option<T>, f: impl FnOnce(&mut Self, T)) {
        match value {
            Some(value) => f(self, value),
            None => self.0.push_str("null"),
        }
    }

    fn uint(&mut self, n: u64) {
        let _ = write!(self.0, "{n}");
    }

    fn flag(&mut self, b: bool) {
        self.0.push(if b { '1' } else { '0' });
    }

    fn str(&mut self, s: &str) {
        self.0.push('"');
        if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
            self.0.push_str(s);
            self.0.push('"');
            return;
        }
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.0, "\\u{:04x}", c as u32);
                }
                c => self.0.push(c),
            }
        }
        self.0.push('"');
    }

    fn strs<'s>(&mut self, items: impl IntoIterator<Item = &'s String>) {
        self.seq(items, |w, s| w.str(s));
    }

    fn span(&mut self, span: Span) {
        self.0.push('[');
        self.uint(span.start as u64);
        self.0.push(',');
        self.uint(span.end as u64);
        self.0.push(']');
    }

    fn opt_span(&mut self, span: Option<Span>) {
        self.opt(span, Writer::span);
    }

    fn diagnostics(&mut self, diagnostics: &Diagnostics) {
        self.seq(diagnostics.iter(), |w, d| {
            w.0.push('[');
            w.flag(d.severity == Severity::Error);
            w.0.push(',');
            w.str(d.code);
            w.0.push(',');
            w.opt(d.file.as_deref(), Writer::str);
            w.0.push(',');
            w.opt_span(d.span);
            w.0.push(',');
            w.str(&d.message);
            w.0.push(',');
            w.strs(&d.notes);
            w.0.push(']');
        });
    }

    fn entry(&mut self, entry: &ExtractEntry) {
        self.0.push('[');
        self.opt(entry.extraction.as_ref(), Writer::extraction);
        self.0.push(',');
        self.diagnostics(&entry.extract_diags);
        self.0.push(',');
        self.diagnostics(&entry.validate_diags);
        self.0.push(']');
    }

    fn extraction(&mut self, x: &ClassExtraction) {
        self.0.push('[');
        self.str(&x.name);
        self.0.push(',');
        match &x.kind {
            ClassKind::Base => self.0.push('0'),
            ClassKind::Unconstrained => self.0.push('1'),
            ClassKind::Composite(fields) => self.strs(fields),
        }
        self.0.push(',');
        self.seq(&x.claims, |w, claim| {
            w.0.push('[');
            w.str(&claim.formula);
            w.0.push(',');
            w.span(claim.span);
            w.0.push(']');
        });
        self.0.push(',');
        self.spec(&x.spec);
        self.0.push(',');
        self.seq(x.alphabet.iter(), |w, (_, name)| w.str(name));
        self.0.push(',');
        self.seq(x.methods.iter(), |w, (name, method)| {
            w.0.push('[');
            w.str(name);
            w.0.push(',');
            w.method(method);
            w.0.push(']');
        });
        self.0.push(',');
        self.strs(&x.declared_fields);
        self.0.push(',');
        self.seq(x.init_classes.iter(), |w, (field, class)| {
            w.0.push('[');
            w.str(field);
            w.0.push(',');
            w.str(class);
            w.0.push(']');
        });
        self.0.push(']');
    }

    fn spec(&mut self, spec: &ClassSpec) {
        self.0.push('[');
        self.str(&spec.name);
        self.0.push(',');
        self.seq(&spec.operations, |w, op| {
            w.0.push('[');
            w.str(&op.name);
            w.0.push(',');
            w.uint(match op.kind {
                OpKind::Initial => 0,
                OpKind::Final => 1,
                OpKind::InitialFinal => 2,
                OpKind::Middle => 3,
            });
            w.0.push(',');
            w.seq(&op.exits, |w, exit| {
                w.0.push('[');
                w.strs(&exit.next);
                w.0.push(',');
                w.opt_span(exit.span);
                w.0.push(',');
                w.flag(exit.implicit);
                w.0.push(']');
            });
            w.0.push(',');
            w.opt_span(op.span);
            w.0.push(']');
        });
        self.0.push(']');
    }

    fn method(&mut self, m: &LoweredMethod) {
        self.0.push('[');
        self.seq(&m.exits, |w, exit| {
            w.0.push('[');
            w.strs(&exit.next);
            w.0.push(',');
            w.opt_span(exit.span);
            w.0.push(',');
            w.uint(match exit.form {
                ReturnForm::Bare => 0,
                ReturnForm::List => 1,
                ReturnForm::TupleWithList => 2,
                ReturnForm::Other => 3,
                ReturnForm::Implicit => 4,
            });
            w.0.push(']');
        });
        self.0.push(',');
        self.seq(&m.calls, |w, call| {
            w.0.push('[');
            w.str(&call.field);
            w.0.push(',');
            w.str(&call.method);
            w.0.push(',');
            w.span(call.span);
            w.0.push(',');
            w.flag(call.scrutinized);
            w.0.push(']');
        });
        self.0.push(',');
        self.seq(&m.matches, |w, site| {
            w.0.push('[');
            w.str(&site.field);
            w.0.push(',');
            w.str(&site.method);
            w.0.push(',');
            w.span(site.span);
            w.0.push(',');
            w.seq(&site.cases, |w, case| {
                w.0.push('[');
                w.opt(case.strings.as_ref(), |w, s| w.strs(s));
                w.0.push(',');
                w.flag(case.catch_all);
                w.0.push(',');
                w.span(case.span);
                w.0.push(']');
            });
            w.0.push(']');
        });
        self.0.push(',');
        self.seq(&m.loop_jumps, |w, &span| w.span(span));
        self.0.push(',');
        self.seq(&m.field_writes, |w, (field, span)| {
            w.0.push('[');
            w.str(field);
            w.0.push(',');
            w.span(*span);
            w.0.push(']');
        });
        self.0.push_str(",\"");
        self.program(&m.program);
        self.0.push_str("\"]");
    }

    /// The prefix code of a program (see the [module docs](self)).
    fn program(&mut self, p: &Program) {
        match p {
            Program::Call(f) => {
                self.0.push('c');
                self.uint(f.index() as u64);
            }
            Program::Skip => self.0.push('s'),
            Program::Return(exit) => {
                self.0.push('r');
                self.uint(*exit as u64);
            }
            Program::Seq(p1, p2) | Program::If(p1, p2) => {
                self.0.push(if matches!(p, Program::Seq(..)) {
                    'q'
                } else {
                    'i'
                });
                self.program(p1);
                self.program(p2);
            }
            Program::Loop(body) => {
                self.0.push('l');
                self.program(body);
            }
        }
    }
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// The size of the alphabet of the extraction being read, which
    /// bounds the symbols its programs call.
    symbols: usize,
    /// The number of exits of the method being read, which bounds the
    /// exits its program returns at.
    exits: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek()? == b).then(|| self.pos += 1)
    }

    fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']').is_some() {
            return Some(items);
        }
        loop {
            items.push(f(self)?);
            if self.eat(b']').is_some() {
                return Some(items);
            }
            self.eat(b',')?;
        }
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.text[self.pos..].starts_with("null") {
            self.pos += "null".len();
            return Some(None);
        }
        f(self).map(Some)
    }

    fn uint(&mut self) -> Option<u64> {
        let digits = self.text.as_bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let n = self.text.get(self.pos..self.pos + digits)?.parse().ok()?;
        self.pos += digits;
        Some(n)
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.uint()?).ok()
    }

    fn flag(&mut self) -> Option<bool> {
        match self.peek()? {
            b'0' => self.pos += 1,
            b'1' => {
                self.pos += 1;
                return Some(true);
            }
            _ => return None,
        }
        Some(false)
    }

    fn str(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        while !matches!(*bytes.get(self.pos)?, b'"' | b'\\') {
            self.pos += 1;
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                _ => {
                    self.pos += 1;
                    match *bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'u' => {
                            let hex = self.text.get(self.pos + 1..self.pos + 5)?;
                            out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
            }
            let run = self.pos;
            while !matches!(*bytes.get(self.pos)?, b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
        }
    }

    fn strs(&mut self) -> Option<Vec<String>> {
        self.seq(Reader::str)
    }

    fn span(&mut self) -> Option<Span> {
        self.eat(b'[')?;
        let start = self.usize()?;
        self.eat(b',')?;
        let end = self.usize()?;
        self.eat(b']')?;
        Some(Span { start, end })
    }

    fn opt_span(&mut self) -> Option<Option<Span>> {
        self.opt(Reader::span)
    }

    fn diagnostics(&mut self) -> Option<Diagnostics> {
        let items = self.seq(|r| {
            r.eat(b'[')?;
            let severity = if r.flag()? {
                Severity::Error
            } else {
                Severity::Warning
            };
            r.eat(b',')?;
            // Recovered through the registry, like the verify records'
            // diagnostics: an unknown code fails the record.
            let code = code_info(&r.str()?)?.code;
            r.eat(b',')?;
            let file = r.opt(Reader::str)?;
            r.eat(b',')?;
            let span = r.opt_span()?;
            r.eat(b',')?;
            let message = r.str()?;
            r.eat(b',')?;
            let notes = r.strs()?;
            r.eat(b']')?;
            Some(Diagnostic {
                severity,
                code,
                file,
                span,
                message,
                notes,
            })
        })?;
        let mut diagnostics = Diagnostics::new();
        for d in items {
            diagnostics.push(d);
        }
        Some(diagnostics)
    }

    fn entry(&mut self) -> Option<ExtractEntry> {
        self.eat(b'[')?;
        let extraction = self.opt(Reader::extraction)?;
        self.eat(b',')?;
        let extract_diags = self.diagnostics()?;
        self.eat(b',')?;
        let validate_diags = self.diagnostics()?;
        self.eat(b']')?;
        Some(ExtractEntry {
            extraction,
            extract_diags,
            validate_diags,
        })
    }

    fn extraction(&mut self) -> Option<ClassExtraction> {
        self.eat(b'[')?;
        let name = self.str()?;
        self.eat(b',')?;
        let kind = match self.peek()? {
            b'[' => ClassKind::Composite(self.strs()?),
            _ if self.flag()? => ClassKind::Unconstrained,
            _ => ClassKind::Base,
        };
        self.eat(b',')?;
        let claims = self.seq(|r| {
            r.eat(b'[')?;
            let formula = r.str()?;
            r.eat(b',')?;
            let span = r.span()?;
            r.eat(b']')?;
            Some(Claim { formula, span })
        })?;
        self.eat(b',')?;
        let spec = self.spec()?;
        self.eat(b',')?;
        let mut alphabet = Alphabet::new();
        self.seq(|r| {
            let name = r.str()?;
            // Interning a name twice would shift every later symbol.
            (alphabet.intern(&name).index() == alphabet.len() - 1).then_some(())
        })?;
        self.symbols = alphabet.len();
        self.eat(b',')?;
        let methods = self.seq(|r| {
            r.eat(b'[')?;
            let name = r.str()?;
            r.eat(b',')?;
            let method = r.method()?;
            r.eat(b']')?;
            Some((name, method))
        })?;
        self.eat(b',')?;
        let declared_fields = self.strs()?;
        self.eat(b',')?;
        let init_classes = self.seq(|r| {
            r.eat(b'[')?;
            let field = r.str()?;
            r.eat(b',')?;
            let class = r.str()?;
            r.eat(b']')?;
            Some((field, class))
        })?;
        self.eat(b']')?;
        Some(ClassExtraction {
            name,
            kind,
            claims,
            spec,
            methods: Arc::new(methods.into_iter().collect()),
            alphabet,
            declared_fields,
            init_classes: init_classes.into_iter().collect(),
        })
    }

    fn spec(&mut self) -> Option<ClassSpec> {
        self.eat(b'[')?;
        let name = self.str()?;
        self.eat(b',')?;
        let operations = self.seq(|r| {
            r.eat(b'[')?;
            let name = r.str()?;
            r.eat(b',')?;
            let kind = match r.uint()? {
                0 => OpKind::Initial,
                1 => OpKind::Final,
                2 => OpKind::InitialFinal,
                3 => OpKind::Middle,
                _ => return None,
            };
            r.eat(b',')?;
            let exits = r.seq(|r| {
                r.eat(b'[')?;
                let next = r.strs()?;
                r.eat(b',')?;
                let span = r.opt_span()?;
                r.eat(b',')?;
                let implicit = r.flag()?;
                r.eat(b']')?;
                Some(ExitSpec {
                    next,
                    span,
                    implicit,
                })
            })?;
            r.eat(b',')?;
            let span = r.opt_span()?;
            r.eat(b']')?;
            Some(OperationSpec {
                name,
                kind,
                exits,
                span,
            })
        })?;
        self.eat(b']')?;
        Some(ClassSpec { name, operations })
    }

    fn method(&mut self) -> Option<LoweredMethod> {
        self.eat(b'[')?;
        let exits = self.seq(|r| {
            r.eat(b'[')?;
            let next = r.strs()?;
            r.eat(b',')?;
            let span = r.opt_span()?;
            r.eat(b',')?;
            let form = match r.uint()? {
                0 => ReturnForm::Bare,
                1 => ReturnForm::List,
                2 => ReturnForm::TupleWithList,
                3 => ReturnForm::Other,
                4 => ReturnForm::Implicit,
                _ => return None,
            };
            r.eat(b']')?;
            Some(LoweredExit { next, span, form })
        })?;
        self.eat(b',')?;
        let calls = self.seq(|r| {
            r.eat(b'[')?;
            let field = r.str()?;
            r.eat(b',')?;
            let method = r.str()?;
            r.eat(b',')?;
            let span = r.span()?;
            r.eat(b',')?;
            let scrutinized = r.flag()?;
            r.eat(b']')?;
            Some(CallSite {
                field,
                method,
                span,
                scrutinized,
            })
        })?;
        self.eat(b',')?;
        let matches = self.seq(|r| {
            r.eat(b'[')?;
            let field = r.str()?;
            r.eat(b',')?;
            let method = r.str()?;
            r.eat(b',')?;
            let span = r.span()?;
            r.eat(b',')?;
            let cases = r.seq(|r| {
                r.eat(b'[')?;
                let strings = r.opt(|r| Some(r.strs()?.into_iter().collect()))?;
                r.eat(b',')?;
                let catch_all = r.flag()?;
                r.eat(b',')?;
                let span = r.span()?;
                r.eat(b']')?;
                Some(MatchCaseInfo {
                    strings,
                    catch_all,
                    span,
                })
            })?;
            r.eat(b']')?;
            Some(MatchSite {
                field,
                method,
                span,
                cases,
            })
        })?;
        self.eat(b',')?;
        let loop_jumps = self.seq(Reader::span)?;
        self.eat(b',')?;
        let field_writes = self.seq(|r| {
            r.eat(b'[')?;
            let field = r.str()?;
            r.eat(b',')?;
            let span = r.span()?;
            r.eat(b']')?;
            Some((field, span))
        })?;
        self.eat(b',')?;
        self.eat(b'"')?;
        self.exits = exits.len();
        let program = self.program()?;
        self.eat(b'"')?;
        self.eat(b']')?;
        Some(LoweredMethod {
            program,
            exits,
            calls,
            matches,
            loop_jumps,
            field_writes,
        })
    }

    /// Reads one program in the prefix code; a symbol or an exit out of
    /// bounds fails it.
    fn program(&mut self) -> Option<Program> {
        let tag = self.peek()?;
        self.pos += 1;
        Some(match tag {
            b'c' => Program::Call(Symbol::from_index(
                self.usize().filter(|&f| f < self.symbols)?,
            )),
            b's' => Program::Skip,
            b'r' => Program::Return(self.usize().filter(|&e| e < self.exits)?),
            b'q' => Program::seq(self.program()?, self.program()?),
            b'i' => Program::if_(self.program()?, self.program()?),
            b'l' => Program::loop_(self.program()?),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::codes;

    #[test]
    fn file_record_strings_round_trip_every_escape() {
        let mut degraded = Diagnostics::new();
        for message in ["plain", "a \"quoted\" \\ path\n\ttab\u{1}\u{7f} é ✓", ""] {
            degraded.push(
                Diagnostic::warning(codes::CONSTRUCT_DEGRADED, message)
                    .with_span(Span { start: 3, end: 9 })
                    .with_file("dir/\"odd\".py")
                    .with_note(message),
            );
        }
        let mut out = String::new();
        encode(&mut out, &degraded, []);
        let saved = decode(&out).expect("decodes");
        assert_eq!(saved.degraded, degraded);
        assert!(saved.units.is_empty());
        for cut in [1, out.len() / 2, out.len() - 1] {
            if let Some(torn) = out.get(..cut) {
                assert!(decode(torn).is_none(), "a torn payload is rejected");
            }
        }
    }
}
