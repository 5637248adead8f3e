//! Dense slots for `&'static str` names, shared by the ring's field
//! names and the metrics registry's metric names.
//!
//! A call site passes the same literal every time, so a name's
//! (address, length) finds its slot without a string comparison. A
//! miss falls back to a content-keyed index, so two literals with the
//! same text share one slot; the cache never decides a slot, so slots
//! do not depend on addresses.

use std::collections::BTreeMap;

/// Entries in the address-keyed cache: 2^7, matching the 57-bit shift
/// in [`NameSlots::slot`]. A campus run passes ~25 distinct field-name
/// addresses and ~30 metric-name addresses; once every entry is taken,
/// new names skip the cache.
const CACHE: usize = 128;

#[derive(Debug, Default)]
pub(crate) struct NameSlots {
    /// Name -> slot, assigned in first-use order.
    index: BTreeMap<&'static str, usize>,
    /// (address, length, slot), probed linearly. Allocated on first
    /// use: services hold placeholder tracers that never record.
    cache: Vec<(usize, usize, usize)>,
}

impl NameSlots {
    /// The slot of `name`; a name not seen before takes the next one,
    /// [`NameSlots::len`] before the call.
    pub(crate) fn slot(&mut self, name: &'static str) -> usize {
        if self.cache.is_empty() {
            self.cache = vec![(0, 0, 0); CACHE];
        }
        let key = (name.as_ptr() as usize, name.len());
        // Fibonacci hashing spreads literals that sit a few bytes apart;
        // linear probing finds the key or the first free entry.
        let mut at = ((key.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize;
        let mut free = None;
        for _ in 0..CACHE {
            let Some(&(addr, len, slot)) = self.cache.get(at) else {
                break;
            };
            if (addr, len) == key {
                return slot;
            }
            if addr == 0 {
                free = Some(at);
                break;
            }
            at = (at + 1) % CACHE;
        }
        let next = self.index.len();
        let slot = *self.index.entry(name).or_insert(next);
        if let Some(entry) = free.and_then(|at| self.cache.get_mut(at)) {
            *entry = (key.0, key.1, slot);
        }
        slot
    }

    /// Number of distinct names.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Every name with its slot, in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.index.iter().map(|(&name, &slot)| (name, slot))
    }
}
