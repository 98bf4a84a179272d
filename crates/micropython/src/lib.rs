//! # micropython-parser
//!
//! Lexer and parser for the MicroPython subset analyzed by Shelley
//! (*Formalizing Model Inference of MicroPython*, DSN-W 2023).
//!
//! The subset covers everything the paper's examples use and Shelley's
//! analysis consumes:
//!
//! * decorated classes and methods (`@sys`, `@claim(...)`, `@op_initial`,
//!   `@op`, `@op_final`, `@op_initial_final` — Table 1);
//! * `return` statements including the tuple value forms of Table 2
//!   (`return ["close"], 2`);
//! * branching with `if/elif/else` and `match/case`, looping with `for`
//!   and `while` (§2.2);
//! * calls and attribute chains (`self.a.open()`), assignments, literals.
//!
//! Beyond the paper's scope, the front end also parses the real-world
//! MicroPython constructs firmware actually uses — class inheritance
//! lists, arbitrary decorators, `try/except/finally`, `with`,
//! `async def`/`await`, `lambda`, comprehensions, f-strings, augmented
//! assignment, and star/keyword call arguments. The calculus does not
//! model their semantics precisely: extraction degrades them soundly to
//! `skip`/`*` abstractions. For inputs even further afield,
//! [`parse_module_recover`] never fails — regions outside the grammar
//! become spanned [`ast::DegradedStmt`] nodes instead of errors.
//!
//! The parser is a hand-written recursive-descent parser over an
//! indentation-aware token stream (CPython-style `INDENT`/`DEDENT` with
//! implicit line joining inside brackets), with one precedence-climbing
//! loop for the binary operators. A [`Token`] is a 12-byte kind and span;
//! the parser slices names and literals from the source only when the AST
//! keeps them, and builds every sequence on scratch stacks each thread
//! reuses across files, so parsing a file allocates only what its AST
//! keeps. All AST nodes carry [`Span`]s and [`SourceFile`] renders caret
//! diagnostics.
//!
//! # Example
//!
//! ```
//! use micropython_parser::parse_module;
//!
//! let source = r#"
//! @sys
//! class Valve:
//!     @op_initial
//!     def test(self):
//!         return ["open", "clean"]
//! "#;
//! let module = parse_module(source)?;
//! let valve = module.class("Valve").unwrap();
//! assert_eq!(valve.decorators[0].name(), Some("sys"));
//! # Ok::<(), micropython_parser::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod lexer;
mod parser;
pub mod printer;
mod span;
mod token;
pub mod visit;

pub use lexer::{tokenize, tokenize_recover, LexError};
pub use parser::{parse_module, parse_module_recover, ParseError};
pub use span::{SourceFile, Span, Spanned};
pub use token::{Keyword, Punct, Token, TokenKind};
