//! A retired claim-backend selector, kept only so older callers compile.
//!
//! Every claim is decided by the one inclusion search
//! ([`shelley_regular::antichain`]); there is no engine to pick. The
//! benchmark's next revision stops naming [`Backend`] and
//! [`check_claims`](crate::check_claims)'s backend argument, and then both
//! are deleted.

use shelley_ltlf::Formula;

/// Inert: every variant decides claims on the one inclusion search.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Inert.
    #[default]
    Auto,
    /// Inert.
    Explicit,
    /// Inert.
    Symbolic,
}

impl Backend {
    /// Always [`Backend::Explicit`]: the one engine decides every claim.
    pub fn resolve(self, _negated_claim: &Formula) -> Backend {
        Backend::Explicit
    }
}
