//! The reference a debug build checks every round against: the class
//! list, dependency keys and report rebuilt from scratch by walking every
//! file and class, with each product looked up in the caches. A round
//! patches all of these in place; this is what the patches must add up
//! to.

use super::{duplicate_diag, ClassUnit, ExtractEntry, Files, Fnv1a, Name, Parse, Pos, Workspace};
use crate::diagnostics::{codes, Diagnostics};
use crate::lint::LintLevel;
use crate::spec::ClassSpec;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

impl Workspace {
    /// Asserts that the kept class table, dependency keys, caches and
    /// report equal their from-scratch reference.
    pub(super) fn assert_matches_reference(&self) {
        assert!(self.dirty.is_empty() && self.retired.is_empty());
        let (units, duplicate_diags) = class_list(&self.files);

        // The class table and the extraction cache.
        assert_eq!(self.slots.len(), units.len(), "class table size");
        assert_eq!(
            self.extract_cache.len(),
            units.len(),
            "the extraction cache holds exactly the live classes"
        );
        let extract_entries: Vec<&Arc<ExtractEntry>> = units
            .iter()
            .map(|(pos, unit)| {
                let slot = &self.slots[&unit.name];
                assert_eq!((slot.pos, slot.fingerprint), (*pos, unit.fingerprint));
                let entry = &self.extract_cache[&unit.fingerprint];
                assert!(Arc::ptr_eq(&slot.extract, entry));
                entry
            })
            .collect();
        let spec_index: BTreeMap<String, ClassSpec> = self
            .spec_index
            .iter()
            .map(|(name, entry)| (name.clone(), entry.spec.clone()))
            .collect();
        assert_eq!(
            spec_index,
            spec_index_of(&extract_entries),
            "the incremental spec index drifted from the extraction cache"
        );
        let mut dependents: HashMap<Name, Vec<Name>> = HashMap::new();
        for ((_, unit), entry) in units.iter().zip(&extract_entries) {
            for dep in entry.extraction.iter().flat_map(|x| x.dependencies()) {
                dependents
                    .entry(Name::from(dep))
                    .or_default()
                    .push(unit.name.clone());
            }
        }
        for names in dependents.values_mut() {
            names.sort();
            names.dedup();
        }
        assert_eq!(self.dependents, dependents, "the dependents index drifted");

        // Dependency keys and the verify cache.
        let systems_live = extract_entries
            .iter()
            .filter(|e| e.extraction.is_some())
            .count();
        assert_eq!(
            self.verify_cache.len(),
            systems_live,
            "the verify cache holds exactly the live classes"
        );
        let fingerprints: HashMap<&str, u64> = units
            .iter()
            .map(|(_, unit)| (&*unit.name, unit.fingerprint))
            .collect();
        let verify_entries: Vec<_> = units
            .iter()
            .zip(&extract_entries)
            .map(|((_, unit), entry)| {
                let slot = &self.slots[&unit.name];
                let Some(x) = &entry.extraction else {
                    assert!(slot.verify.is_none());
                    return None;
                };
                let mut hash = Fnv1a::new();
                hash.part(&unit.fingerprint.to_le_bytes());
                for dep in x.dependencies() {
                    let dep_fp = fingerprints.get(dep).copied().unwrap_or(u64::MAX);
                    hash.part(dep.as_bytes());
                    hash.part(&dep_fp.to_le_bytes());
                }
                let dep_fp = hash.finish();
                assert_eq!(slot.dep_fingerprint, dep_fp, "stale dependency key");
                let cached = &self.verify_cache[&(unit.fingerprint, dep_fp)];
                assert!(Arc::ptr_eq(slot.verify.as_ref().expect("verified"), cached));
                Some(cached)
            })
            .collect();

        // The report, assembled in class order and normalized at the end.
        let mut diagnostics = Diagnostics::new();
        for entry in &extract_entries {
            diagnostics.extend(entry.extract_diags.clone());
            diagnostics.extend(entry.validate_diags.clone());
        }
        let mut usage_violations = Vec::new();
        let mut claim_violations = Vec::new();
        let mut integrations = Vec::new();
        let mut systems = Vec::new();
        for entry in verify_entries.iter().flatten() {
            diagnostics.extend(entry.resolve_diags.clone());
            diagnostics.extend(entry.lint_diags.clone());
            diagnostics.extend(entry.verdict.diagnostics.clone());
            for v in &entry.verdict.usage_violations {
                usage_violations.push((entry.system.name.clone(), v.clone()));
            }
            for v in &entry.verdict.claim_violations {
                claim_violations.push((entry.system.name.clone(), v.clone()));
            }
            if let Some(integ) = &entry.verdict.integration {
                integrations.push((entry.system.name.clone(), integ.clone()));
            }
            systems.push(entry.system.clone());
        }
        for file in &self.files.0 {
            diagnostics.extend(file.degraded.clone());
        }
        diagnostics.extend(duplicate_diags);
        self.config.apply(&mut diagnostics);
        if self.config.level(codes::INVALID_SUBSYSTEM_USAGE) != LintLevel::Deny {
            usage_violations.clear();
        }
        if self.config.level(codes::FAIL_TO_MEET_REQUIREMENT) != LintLevel::Deny {
            claim_violations.clear();
        }

        let kept = self.report.checked();
        assert_eq!(kept.report.diagnostics, diagnostics, "report diagnostics");
        assert_eq!(kept.report.usage_violations, usage_violations);
        assert_eq!(kept.report.claim_violations, claim_violations);
        assert_eq!(kept.systems.len(), systems.len());
        for (kept, reference) in kept.systems.iter().zip(&systems) {
            assert!(std::ptr::eq(kept, reference.as_ref()), "system order");
        }
        assert_eq!(kept.integrations.len(), integrations.len());
        for ((name, integ), (ref_name, ref_integ)) in kept.integrations.iter().zip(&integrations) {
            assert!(name == ref_name && Arc::ptr_eq(integ, ref_integ));
        }
    }
}

/// The project's class list: every registered class in project order,
/// except that a duplicate name resolves to the later definition
/// (Python's last-definition semantics). Also returns one `E004` per
/// shadowed definition.
fn class_list(files: &Files) -> (Vec<(Pos, &ClassUnit)>, Diagnostics) {
    let all: Vec<(Pos, &str, &ClassUnit)> = files
        .0
        .iter()
        .flat_map(|file| {
            assert!(matches!(file.parse, Parse::Registered));
            file.registered
                .iter()
                .map(move |unit| ((file.ordinal, unit.start), file.name.as_str(), unit))
        })
        .collect();
    let mut last_index: HashMap<&str, usize> = HashMap::with_capacity(all.len());
    for (i, (_, _, unit)) in all.iter().enumerate() {
        last_index.insert(&*unit.name, i);
    }
    let mut duplicate_diags = Diagnostics::new();
    let mut units = Vec::with_capacity(last_index.len());
    for (i, &(pos, file, unit)) in all.iter().enumerate() {
        let winner = last_index[&*unit.name];
        if winner == i {
            units.push((pos, unit));
        } else {
            duplicate_diags.push(duplicate_diag(&unit.name, file, all[winner].1));
        }
    }
    (units, duplicate_diags)
}

/// The spec index a round's extractions define, built from scratch.
fn spec_index_of(entries: &[&Arc<ExtractEntry>]) -> BTreeMap<String, ClassSpec> {
    entries
        .iter()
        .filter_map(|e| e.extraction.as_ref())
        .map(|x| (x.name.clone(), x.spec.clone()))
        .collect()
}
