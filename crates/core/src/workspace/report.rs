//! The report a [`Workspace`](super::Workspace) keeps between rounds,
//! patched run by run.
//!
//! Every class contributes one *run* to the report: its applied and
//! normalized diagnostics, plus — for `@sys` classes — its system, its
//! integration automaton and its usage and claim violations. Every file
//! contributes its `W014` run, and every shadowed class name its `E004`
//! run. A round retires the runs of the classes it re-checked and adds
//! their new runs; nothing else is read.
//!
//! The positional lists (systems, integrations, violations) follow class
//! order, so each keeps a parallel list of the [`Pos`] every item came
//! from. The diagnostics are a set in normalized order: workspace
//! diagnostics carry no file, so two classes can produce the same one,
//! and normalization keeps one copy. Each diagnostic therefore carries the
//! number of runs producing it, and leaves the report only when that
//! number drops to zero.

use super::Pos;
use crate::diagnostics::{normalized_order, Diagnostic};
use crate::integration::Integration;
use crate::pipeline::{CheckReport, Checked};
use crate::system::System;
use crate::verify::claims::ClaimViolation;
use crate::verify::usage::UsageViolation;
use std::sync::Arc;

/// One class's run.
#[derive(Debug, Default)]
pub(super) struct ClassRuns {
    pub(super) diagnostics: Vec<Diagnostic>,
    pub(super) system: Option<Arc<System>>,
    pub(super) integration: Option<(String, Arc<Integration>)>,
    pub(super) usage: Vec<(String, UsageViolation)>,
    pub(super) claims: Vec<(String, ClaimViolation)>,
}

/// The last round's [`Checked`], with what patching it needs.
#[derive(Debug)]
pub(super) struct KeptReport {
    checked: Checked,
    system_pos: Vec<Pos>,
    integration_pos: Vec<Pos>,
    usage_pos: Vec<Pos>,
    claim_pos: Vec<Pos>,
    /// How many runs produce each diagnostic of `checked`.
    counts: Vec<usize>,
    /// Changes collected during a round and applied by [`Self::finish`]:
    /// positions whose class runs leave, and diagnostic runs that enter or
    /// leave.
    leaving: Vec<Pos>,
    added: Vec<Diagnostic>,
    removed: Vec<Diagnostic>,
}

impl Default for KeptReport {
    fn default() -> Self {
        KeptReport {
            checked: Checked {
                systems: Arc::default(),
                integrations: Arc::default(),
                report: CheckReport::default(),
            },
            system_pos: Vec::new(),
            integration_pos: Vec::new(),
            usage_pos: Vec::new(),
            claim_pos: Vec::new(),
            counts: Vec::new(),
            leaving: Vec::new(),
            added: Vec::new(),
            removed: Vec::new(),
        }
    }
}

impl KeptReport {
    /// The report as of the last [`finish`](Self::finish).
    pub(super) fn checked(&self) -> &Checked {
        &self.checked
    }

    /// Retires the positional runs of the class at `pos`.
    pub(super) fn leave(&mut self, pos: Pos) {
        self.leaving.push(pos);
    }

    /// Adds one run of diagnostics.
    pub(super) fn add(&mut self, run: &[Diagnostic]) {
        self.added.extend_from_slice(run);
    }

    /// Retires one run of diagnostics added earlier.
    pub(super) fn remove(&mut self, run: &[Diagnostic]) {
        self.removed.extend_from_slice(run);
    }

    /// Applies the changes collected since the last call, with the runs
    /// of the classes `entering` in ascending position order. A class
    /// re-checked where it stands replaces its runs in place; only classes
    /// that come or go shift the lists, and a cold round only appends.
    pub(super) fn finish(&mut self, entering: impl Iterator<Item = (Pos, ClassRuns)>) {
        let mut leaving = std::mem::take(&mut self.leaving);
        leaving.sort_unstable();
        let mut replaced = vec![false; leaving.len()];
        for (pos, mut runs) in entering {
            if let Ok(i) = leaving.binary_search(&pos) {
                replaced[i] = true;
            }
            self.added.append(&mut runs.diagnostics);
            self.splice_class(pos, runs);
        }
        for (&pos, _) in leaving.iter().zip(&replaced).rev().filter(|(_, &r)| !r) {
            self.splice_class(pos, ClassRuns::default());
        }
        self.merge_diagnostics();
    }

    /// Replaces the positional runs of the class at `pos` by `runs`.
    fn splice_class(&mut self, pos: Pos, runs: ClassRuns) {
        let systems = Arc::make_mut(&mut self.checked.systems).systems_mut();
        splice(
            &mut self.system_pos,
            systems,
            pos,
            runs.system.into_iter().collect(),
        );
        let integrations = Arc::make_mut(&mut self.checked.integrations);
        let integration = runs.integration.into_iter().collect();
        splice(&mut self.integration_pos, integrations, pos, integration);
        let report = &mut self.checked.report;
        splice(
            &mut self.usage_pos,
            &mut report.usage_violations,
            pos,
            runs.usage,
        );
        splice(
            &mut self.claim_pos,
            &mut report.claim_violations,
            pos,
            runs.claims,
        );
    }

    /// Merges the collected diagnostic runs into the counted set, in one
    /// pass over it.
    fn merge_diagnostics(&mut self) {
        if self.added.is_empty() && self.removed.is_empty() {
            return;
        }
        // The net change per distinct diagnostic, in normalized order.
        let mut delta: Vec<(Diagnostic, isize)> = std::mem::take(&mut self.added)
            .into_iter()
            .map(|d| (d, 1))
            .chain(
                std::mem::take(&mut self.removed)
                    .into_iter()
                    .map(|d| (d, -1)),
            )
            .collect();
        delta.sort_by(|a, b| normalized_order(&a.0, &b.0));
        delta.dedup_by(|later, kept| {
            let same = normalized_order(&later.0, &kept.0).is_eq();
            if same {
                kept.1 += later.1;
            }
            same
        });

        let old_items = std::mem::take(self.checked.report.diagnostics.items_mut());
        let old_counts = std::mem::take(&mut self.counts);
        let mut items = Vec::with_capacity(old_items.len());
        let mut counts = Vec::with_capacity(old_items.len());
        let mut keep = |d: Diagnostic, count: isize| {
            assert!(
                count >= 0,
                "a diagnostic run was retired more often than it was added"
            );
            if count > 0 {
                items.push(d);
                counts.push(count as usize);
            }
        };
        let mut delta = delta.into_iter().peekable();
        for (d, count) in old_items.into_iter().zip(old_counts) {
            while let Some((next, change)) =
                delta.next_if(|(next, _)| normalized_order(next, &d).is_lt())
            {
                keep(next, change);
            }
            let change = delta
                .next_if(|(next, _)| normalized_order(next, &d).is_eq())
                .map_or(0, |(_, change)| change);
            keep(d, count as isize + change);
        }
        for (d, change) in delta {
            keep(d, change);
        }
        *self.checked.report.diagnostics.items_mut() = items;
        self.counts = counts;
    }
}

/// Replaces the items at `pos` in a list kept in position order (with
/// `keys` its parallel positions) by `run`.
fn splice<T>(keys: &mut Vec<Pos>, items: &mut Vec<T>, pos: Pos, run: Vec<T>) {
    if keys.last().is_none_or(|last| *last < pos) {
        keys.extend(std::iter::repeat_n(pos, run.len()));
        items.extend(run);
        return;
    }
    let start = keys.partition_point(|k| *k < pos);
    let end = start + keys[start..].partition_point(|k| *k == pos);
    keys.splice(start..end, std::iter::repeat_n(pos, run.len()));
    items.splice(start..end, run);
}
