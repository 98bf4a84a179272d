//! Parser for Shelley claim formulas.
//!
//! Grammar (loosest to tightest precedence; `U`, `W`, `R` are
//! right-associative):
//!
//! ```text
//! formula ::= or ('->' formula)?
//! or      ::= and (('|' | '||' | 'or') and)*
//! and     ::= until (('&' | '&&' | 'and') until)*
//! until   ::= unary (('U' | 'W' | 'R') until)?
//! unary   ::= ('!' | 'not') unary
//!           | 'X' '[!]'? unary | 'F' unary | 'G' unary
//!           | 'true' | 'false' | ATOM | '(' formula ')'
//! ATOM    ::= [A-Za-z_][A-Za-z0-9_.]*   (not a reserved operator name)
//! ```
//!
//! Atoms are event names (`a.open`), interned into the supplied alphabet
//! or looked up in it.

use crate::syntax::Formula;
use shelley_regular::Alphabet;
use std::error::Error;
use std::fmt;

/// Error produced by [`parse_formula`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormulaError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseFormulaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "claim parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl Error for ParseFormulaError {}

/// Parses a claim formula, interning its atoms into `alphabet`.
///
/// # Errors
///
/// Returns [`ParseFormulaError`] on malformed syntax.
///
/// # Examples
///
/// The claim of Listing 2.2:
///
/// ```
/// use shelley_ltlf::{parse_formula, eval};
/// use shelley_regular::Alphabet;
///
/// let mut ab = Alphabet::new();
/// let f = parse_formula("(!a.open) W b.open", &mut ab)?;
/// let a_open = ab.lookup("a.open").unwrap();
/// let b_open = ab.lookup("b.open").unwrap();
/// assert!(!eval(&f, &[a_open, b_open]));
/// assert!(eval(&f, &[b_open, a_open]));
/// # Ok::<(), shelley_ltlf::ParseFormulaError>(())
/// ```
pub fn parse_formula(input: &str, alphabet: &mut Alphabet) -> Result<Formula, ParseFormulaError> {
    Parser::new(input, Atoms::Intern(alphabet))
        .parse()
        .map(|f| f.expect("interning knows every event"))
}

/// Parses a claim formula whose events `alphabet` already holds, looking
/// each atom up instead of interning it: `Ok(None)` if the formula names
/// an event `alphabet` lacks ([`parse_formula`] on a copy of the alphabet
/// then gives the formula, or the syntax error past that atom).
///
/// # Errors
///
/// Returns [`ParseFormulaError`] on malformed syntax before the first
/// unknown event.
///
/// # Examples
///
/// ```
/// use shelley_ltlf::parse_formula_over;
/// use shelley_regular::Alphabet;
///
/// let ab = Alphabet::from_names(["a.open", "b.open"]);
/// assert!(parse_formula_over("(!a.open) W b.open", &ab)?.is_some());
/// assert!(parse_formula_over("G !a.explode", &ab)?.is_none());
/// assert!(parse_formula_over("(a.open", &ab).is_err());
/// # Ok::<(), shelley_ltlf::ParseFormulaError>(())
/// ```
pub fn parse_formula_over(
    input: &str,
    alphabet: &Alphabet,
) -> Result<Option<Formula>, ParseFormulaError> {
    Parser::new(input, Atoms::Lookup(alphabet)).parse()
}

/// Where atoms get their symbols.
enum Atoms<'a> {
    /// Interned into the alphabet.
    Intern(&'a mut Alphabet),
    /// Looked up; the parse stops at the first unknown name.
    Lookup(&'a Alphabet),
}

struct Parser<'a> {
    input: &'a str,
    /// Byte offset of the next character.
    pos: usize,
    atoms: Atoms<'a>,
    /// Set when a lookup parse met an unknown event name.
    unknown: bool,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, atoms: Atoms<'a>) -> Parser<'a> {
        Parser {
            input,
            pos: 0,
            atoms,
            unknown: false,
        }
    }

    /// The whole input as one formula; `Ok(None)` if a lookup parse met
    /// an unknown event.
    fn parse(mut self) -> Result<Option<Formula>, ParseFormulaError> {
        self.skip_ws();
        let parsed = self.formula().and_then(|f| {
            self.skip_ws();
            if self.pos < self.input.len() {
                return Err(self.error("unexpected trailing input"));
            }
            Ok(f)
        });
        match parsed {
            Err(_) if self.unknown => Ok(None),
            other => other.map(Some),
        }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(c) = c {
            self.pos += c.len_utf8();
        }
        c
    }

    fn error(&self, message: &str) -> ParseFormulaError {
        ParseFormulaError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
    }

    /// Peeks the next identifier-like word without consuming it.
    fn peek_word(&self) -> Option<&'a str> {
        let input: &'a str = self.input;
        let rest = &input[self.pos..];
        let first = *rest.as_bytes().first()?;
        if !(first.is_ascii_alphabetic() || first == b'_') {
            return None;
        }
        let len = rest
            .bytes()
            .position(|b| !(b.is_ascii_alphanumeric() || b == b'_' || b == b'.'))
            .unwrap_or(rest.len());
        Some(&rest[..len])
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.peek_word() == Some(word) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn formula(&mut self) -> Result<Formula, ParseFormulaError> {
        let left = self.or()?;
        self.skip_ws();
        if self.input[self.pos..].starts_with("->") {
            self.pos += 2;
            self.skip_ws();
            let right = self.formula()?;
            return Ok(Formula::implies(left, right));
        }
        Ok(left)
    }

    fn or(&mut self) -> Result<Formula, ParseFormulaError> {
        let mut left = self.and()?;
        loop {
            self.skip_ws();
            let matched = if self.peek() == Some('|') {
                self.bump();
                if self.peek() == Some('|') {
                    self.bump();
                }
                true
            } else {
                self.eat_word("or")
            };
            if !matched {
                return Ok(left);
            }
            self.skip_ws();
            let right = self.and()?;
            left = Formula::or(left, right);
        }
    }

    fn and(&mut self) -> Result<Formula, ParseFormulaError> {
        let mut left = self.until()?;
        loop {
            self.skip_ws();
            let matched = if self.peek() == Some('&') {
                self.bump();
                if self.peek() == Some('&') {
                    self.bump();
                }
                true
            } else {
                self.eat_word("and")
            };
            if !matched {
                return Ok(left);
            }
            self.skip_ws();
            let right = self.until()?;
            left = Formula::and(left, right);
        }
    }

    fn until(&mut self) -> Result<Formula, ParseFormulaError> {
        let left = self.unary()?;
        self.skip_ws();
        if self.eat_word("U") {
            self.skip_ws();
            let right = self.until()?;
            return Ok(Formula::until(left, right));
        }
        if self.eat_word("W") {
            self.skip_ws();
            let right = self.until()?;
            return Ok(Formula::weak_until(left, right));
        }
        if self.eat_word("R") {
            self.skip_ws();
            let right = self.until()?;
            return Ok(Formula::release(left, right));
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Formula, ParseFormulaError> {
        self.skip_ws();
        if self.peek() == Some('!') {
            self.bump();
            let f = self.unary()?;
            return Ok(f.negate());
        }
        if self.eat_word("not") {
            let f = self.unary()?;
            return Ok(f.negate());
        }
        if self.eat_word("X") {
            self.skip_ws();
            // X[!] is weak next (NuSMV-flavored spelling).
            if self.peek() == Some('[') {
                let save = self.pos;
                self.bump();
                if self.peek() == Some('!') {
                    self.bump();
                    if self.peek() == Some(']') {
                        self.bump();
                        let f = self.unary()?;
                        return Ok(Formula::weak_next(f));
                    }
                }
                self.pos = save;
            }
            let f = self.unary()?;
            return Ok(Formula::next(f));
        }
        if self.eat_word("F") {
            let f = self.unary()?;
            return Ok(Formula::eventually(f));
        }
        if self.eat_word("G") {
            let f = self.unary()?;
            return Ok(Formula::globally(f));
        }
        if self.eat_word("true") {
            return Ok(Formula::tt());
        }
        if self.eat_word("false") {
            return Ok(Formula::ff());
        }
        if self.peek() == Some('(') {
            self.bump();
            let f = self.formula()?;
            self.skip_ws();
            if self.peek() != Some(')') {
                return Err(self.error("expected ')'"));
            }
            self.bump();
            return Ok(f);
        }
        match self.peek_word() {
            Some(word) => {
                if matches!(
                    word,
                    "U" | "W" | "R" | "X" | "F" | "G" | "not" | "and" | "or"
                ) {
                    return Err(self.error(&format!(
                        "`{word}` is a reserved operator, not an event name"
                    )));
                }
                let symbol = match &mut self.atoms {
                    Atoms::Intern(alphabet) => alphabet.intern(word),
                    Atoms::Lookup(alphabet) => match alphabet.lookup(word) {
                        Some(symbol) => symbol,
                        None => {
                            self.unknown = true;
                            return Err(self.error("unknown event"));
                        }
                    },
                };
                self.pos += word.len();
                Ok(Formula::atom(symbol))
            }
            None => Err(self.error("expected a formula")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::eval;

    #[test]
    fn parses_paper_claim() {
        let mut ab = Alphabet::new();
        let f = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
        let a = ab.lookup("a.open").unwrap();
        let b = ab.lookup("b.open").unwrap();
        assert!(eval(&f, &[]));
        assert!(eval(&f, &[b]));
        assert!(eval(&f, &[b, a]));
        assert!(!eval(&f, &[a]));
        assert!(!eval(&f, &[a, b]));
    }

    #[test]
    fn operator_precedence() {
        let mut ab = Alphabet::new();
        // a | b & c parses as a | (b & c).
        let f = parse_formula("a | b & c", &mut ab).unwrap();
        let a = ab.lookup("a").unwrap();
        assert!(eval(&f, &[a]));
        // If it parsed as (a|b) & c, [a] would fail (c doesn't hold at 0).
    }

    #[test]
    fn implication() {
        let mut ab = Alphabet::new();
        let f = parse_formula("a -> F b", &mut ab).unwrap();
        let a = ab.lookup("a").unwrap();
        let b = ab.lookup("b").unwrap();
        assert!(eval(&f, &[a, b]));
        assert!(!eval(&f, &[a, a]));
        // Vacuous: first event not a.
        assert!(eval(&f, &[b]));
    }

    #[test]
    fn temporal_unaries() {
        let mut ab = Alphabet::new();
        let f = parse_formula("G (req -> X ack)", &mut ab).unwrap();
        let req = ab.lookup("req").unwrap();
        let ack = ab.lookup("ack").unwrap();
        assert!(eval(&f, &[req, ack]));
        assert!(eval(&f, &[ack, ack]));
        assert!(!eval(&f, &[req, req]));
        // req at the last position has no next: X ack fails (strong next).
        assert!(!eval(&f, &[req]));
    }

    #[test]
    fn weak_next_spelling() {
        let mut ab = Alphabet::new();
        let f = parse_formula("G (req -> X[!] ack)", &mut ab).unwrap();
        let req = ab.lookup("req").unwrap();
        // Weak next: req at the end is fine.
        assert!(eval(&f, &[req]));
    }

    #[test]
    fn right_associative_until() {
        let mut ab = Alphabet::new();
        // a U b U c = a U (b U c).
        let f = parse_formula("a U b U c", &mut ab).unwrap();
        let a = ab.lookup("a").unwrap();
        let b = ab.lookup("b").unwrap();
        let c = ab.lookup("c").unwrap();
        assert!(eval(&f, &[a, a, b, b, c]));
        assert!(eval(&f, &[c]));
        assert!(!eval(&f, &[a, a]));
    }

    #[test]
    fn atoms_may_not_be_operator_names() {
        let mut ab = Alphabet::new();
        // `U` alone is not an atom: expect a parse error.
        assert!(parse_formula("U", &mut ab).is_err());
        // But `Upper` is a valid atom.
        assert!(parse_formula("Upper", &mut ab).is_ok());
    }

    #[test]
    fn errors_report_offset() {
        let mut ab = Alphabet::new();
        let err = parse_formula("(a ", &mut ab).unwrap_err();
        assert_eq!(err.offset, 3);
        assert!(parse_formula("a )", &mut ab).is_err());
    }

    #[test]
    fn not_keyword() {
        let mut ab = Alphabet::new();
        let f = parse_formula("G not a.open", &mut ab).unwrap();
        let a = ab.lookup("a.open").unwrap();
        assert!(!eval(&f, &[a]));
        assert!(eval(&f, &[]));
    }
}
