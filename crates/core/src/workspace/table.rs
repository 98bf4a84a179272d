//! The dense class table's parts: class ids, the interner handing them
//! out, tables indexed by them, and the hasher of the fingerprint-keyed
//! caches.
//!
//! A workspace interns each class name once, the first time a file
//! defines it or a class instantiates it, and from then on keys its
//! per-name state — definitions, shadowed runs, slots, dependents, spec
//! entries — by the name's [`ClassId`], in tables indexed by it. A name
//! keeps its id for the workspace's lifetime, even after its last
//! definition goes, so the tables grow with the number of distinct names
//! a workspace has seen, never with the number of rounds or edits.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Index;
use std::sync::Arc;

/// A class name, shared by the interner and the units naming it.
pub(super) type Name = Arc<str>;

/// The dense id of a class name in one workspace (see [`Names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(super) struct ClassId(u32);

impl ClassId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The class names of one workspace, each interned once: ids are handed
/// out densely, in the order names are first seen. Names come from the
/// checked source, so the index keeps the default, collision-resistant
/// hasher.
#[derive(Debug, Default)]
pub(super) struct Names {
    names: Vec<Name>,
    ids: HashMap<Name, ClassId>,
}

impl Names {
    /// The id of `name`, interning it if it is new. A shared [`Name`] is
    /// kept as given; a `&str` is copied only when new.
    pub(super) fn intern<N: AsRef<str> + Into<Name>>(&mut self, name: N) -> ClassId {
        if let Some(&id) = self.ids.get(name.as_ref()) {
            return id;
        }
        let id = ClassId(u32::try_from(self.names.len()).expect("fewer than 2^32 class names"));
        let name = name.into();
        self.names.push(name.clone());
        self.ids.insert(name, id);
        id
    }

    /// The id of `name`, if it was ever interned.
    pub(super) fn get(&self, name: &str) -> Option<ClassId> {
        self.ids.get(name).copied()
    }

    /// The name of `id`.
    pub(super) fn name(&self, id: ClassId) -> &str {
        &self.names[id.index()]
    }
}

/// A map keyed by class id: a table indexed by the id, with holes for
/// the ids it holds nothing for, and the number of values it holds.
#[derive(Debug)]
pub(super) struct IdMap<T> {
    items: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for IdMap<T> {
    fn default() -> Self {
        IdMap {
            items: Vec::new(),
            len: 0,
        }
    }
}

impl<T> IdMap<T> {
    /// The number of ids holding a value.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn get(&self, id: ClassId) -> Option<&T> {
        self.items.get(id.index())?.as_ref()
    }

    pub(super) fn get_mut(&mut self, id: ClassId) -> Option<&mut T> {
        self.items.get_mut(id.index())?.as_mut()
    }

    /// The value of `id`, a default one put there first if it has none.
    pub(super) fn get_or_default(&mut self, id: ClassId) -> &mut T
    where
        T: Default,
    {
        let slot = self.slot(id);
        if slot.is_none() {
            *slot = Some(T::default());
            self.len += 1;
        }
        self.items[id.index()].as_mut().expect("just filled")
    }

    /// Puts `value` at `id`; returns the value it replaces.
    pub(super) fn insert(&mut self, id: ClassId, value: T) -> Option<T> {
        let old = self.slot(id).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    pub(super) fn remove(&mut self, id: ClassId) -> Option<T> {
        let old = self.items.get_mut(id.index())?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The values with their ids, in id order.
    #[cfg(any(debug_assertions, test))]
    pub(super) fn iter(&self) -> impl Iterator<Item = (ClassId, &T)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, item)| Some((ClassId(i as u32), item.as_ref()?)))
    }

    /// The table entry of `id`, the table grown to hold it.
    fn slot(&mut self, id: ClassId) -> &mut Option<T> {
        if self.items.len() <= id.index() {
            self.items.resize_with(id.index() + 1, || None);
        }
        &mut self.items[id.index()]
    }
}

impl<T> Index<ClassId> for IdMap<T> {
    type Output = T;

    fn index(&self, id: ClassId) -> &T {
        self.get(id).expect("a live class id")
    }
}

/// The Fx hash (as in rustc): one rotate, xor and multiply per word. The
/// workspace's caches are keyed by the FNV fingerprints it computes,
/// which are uniform already, so SipHash would cost several times the
/// cycles for no better spread.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub(super) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_keep_their_ids() {
        let mut names = Names::default();
        let valve = names.intern("Valve");
        let sector = names.intern(Name::from("Sector"));
        assert_ne!(valve, sector);
        assert_eq!(names.intern(Name::from("Valve")), valve);
        assert_eq!(names.get("Sector"), Some(sector));
        assert_eq!(names.get("Pump"), None);
        assert_eq!((names.name(valve), names.name(sector)), ("Valve", "Sector"));
    }

    #[test]
    fn id_maps_count_what_they_hold() {
        let mut names = Names::default();
        let (a, b, c) = (names.intern("a"), names.intern("b"), names.intern("c"));
        let mut map = IdMap::default();
        assert_eq!(map.insert(c, 3), None);
        assert_eq!(map.get(a), None);
        *map.get_or_default(a) += 1;
        assert_eq!(map.insert(c, 4), Some(3));
        assert_eq!(map.len(), 2);
        assert_eq!(map.iter().collect::<Vec<_>>(), [(a, &1), (c, &4)]);
        assert_eq!(map.remove(b), None);
        assert_eq!(map.remove(a), Some(1));
        assert_eq!((map.len(), map[c]), (1, 4));
    }
}
