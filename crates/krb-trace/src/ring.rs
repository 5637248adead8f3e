//! The tracer's event store: every retained event as one
//! length-prefixed record in a single circular byte buffer.
//!
//! A decoded [`Event`] owns up to a dozen heap blocks (the field `Vec`,
//! one `String` per string field, the payload's `Arc`), and a full ring
//! holds 2^20 events. A record keeps the same content in one contiguous
//! run of bytes, at about a third of the size. `push` encodes borrowed
//! fields straight into it, so recording an event needs no owned
//! `Event` at all; eviction advances the head past one record, and only
//! [`Ring::events`] builds `Event`s again.
//!
//! Record layout (every integer is an unsigned LEB128 varint):
//!
//! ```text
//! record := len seq at_us span kind:u8 nfields field*
//! field  := name tag:u8 value
//! value  := u64                  tag 0
//!         | 0 or 1 :u8           tag 1
//!         | len utf-8 bytes      tag 2
//!         | len bytes            tag 3
//! ```
//!
//! The leading `len` counts the bytes after itself; `kind` is the
//! [`EventKind`] discriminant; `name` indexes the ring's table of field
//! names, interned by content in first-use order ([`NameSlots`]), so
//! equal runs encode equal bytes.

use crate::event::{Event, EventKind, Value, ValueRef};
use crate::names::NameSlots;
use std::collections::VecDeque;
use std::sync::Arc;

const TAG_U64: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_BYTES: u8 = 3;

#[derive(Debug, Default)]
pub(crate) struct Ring {
    bytes: VecDeque<u8>,
    records: usize,
    /// Field names by table index, which is the name's slot.
    names: Vec<&'static str>,
    slots: NameSlots,
    /// Reused encoding buffer: a record is written here, then copied
    /// behind its length prefix.
    scratch: Vec<u8>,
}

impl Ring {
    /// Records held.
    pub(crate) fn len(&self) -> usize {
        self.records
    }

    /// Encoded bytes held.
    pub(crate) fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Appends one record: the event `seq` at `at_us` in `span`, with
    /// `fields` in order.
    pub(crate) fn push<'v>(
        &mut self,
        seq: u64,
        at_us: u64,
        span: u64,
        kind: EventKind,
        fields: impl Iterator<Item = (&'static str, ValueRef<'v>)> + Clone,
    ) {
        let mut rec = std::mem::take(&mut self.scratch);
        rec.clear();
        put_varint(&mut rec, seq);
        put_varint(&mut rec, at_us);
        put_varint(&mut rec, span);
        rec.push(kind as u8);
        put_varint(&mut rec, fields.clone().count() as u64);
        for (name, value) in fields {
            let idx = self.intern(name);
            put_varint(&mut rec, idx);
            match value {
                ValueRef::U64(v) => {
                    rec.push(TAG_U64);
                    put_varint(&mut rec, v);
                }
                ValueRef::Bool(b) => {
                    rec.push(TAG_BOOL);
                    rec.push(u8::from(b));
                }
                ValueRef::Str(s) => {
                    rec.push(TAG_STR);
                    put_varint(&mut rec, s.len() as u64);
                    rec.extend_from_slice(s.as_bytes());
                }
                ValueRef::Bytes(b) => {
                    rec.push(TAG_BYTES);
                    put_varint(&mut rec, b.len() as u64);
                    rec.extend_from_slice(b);
                }
            }
        }
        put_varint(&mut self.bytes, rec.len() as u64);
        self.bytes.extend(&rec);
        self.scratch = rec;
        self.records += 1;
    }

    /// The name table index of `name`, assigning the next one on first
    /// use.
    fn intern(&mut self, name: &'static str) -> u64 {
        let idx = self.slots.slot(name);
        if idx == self.names.len() {
            self.names.push(name);
        }
        idx as u64
    }

    /// Drops the oldest record; false when the ring is empty.
    pub(crate) fn pop_front(&mut self) -> bool {
        let mut at = 0;
        let Some(len) = read_varint(|| {
            let b = self.bytes.get(at).copied();
            at += 1;
            b
        }) else {
            return false;
        };
        let end = usize::try_from(len).map_or(usize::MAX, |l| l.saturating_add(at));
        self.bytes.drain(..end.min(self.bytes.len()));
        self.records = self.records.saturating_sub(1);
        true
    }

    /// Drops every record; the name table stays.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.records = 0;
    }

    /// Decodes every record, oldest first.
    pub(crate) fn events(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.records);
        let mut r = Reader(self.bytes.make_contiguous());
        while let Some(ev) = r.record(&self.names) {
            out.push(ev);
        }
        out
    }
}

/// Appends `v` as an unsigned LEB128 varint.
fn put_varint(out: &mut impl Extend<u8>, mut v: u64) {
    while v >= 0x80 {
        out.extend([v as u8 | 0x80]);
        v >>= 7;
    }
    out.extend([v as u8]);
}

/// Reads one unsigned LEB128 varint from `next`; `None` when the bytes
/// run out or the value exceeds 64 bits of groups.
fn read_varint(mut next: impl FnMut() -> Option<u8>) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = next()?;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// A cursor over contiguous record bytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(b)
    }

    fn varint(&mut self) -> Option<u64> {
        read_varint(|| self.byte())
    }

    fn take(&mut self, n: u64) -> Option<&'a [u8]> {
        let n = usize::try_from(n).ok()?;
        if n > self.0.len() {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    /// Decodes the next record; `None` at the end of the buffer (or on
    /// a malformed record, which `push` never writes).
    fn record(&mut self, names: &[&'static str]) -> Option<Event> {
        let len = self.varint()?;
        let mut r = Reader(self.take(len)?);
        let seq = r.varint()?;
        let at_us = r.varint()?;
        let span = r.varint()?;
        let kind = *EventKind::ALL.get(usize::from(r.byte()?))?;
        let nfields = usize::try_from(r.varint()?).ok()?;
        let mut fields = Vec::with_capacity(nfields.min(r.0.len()));
        for _ in 0..nfields {
            let name = *names.get(usize::try_from(r.varint()?).ok()?)?;
            let value = match r.byte()? {
                TAG_U64 => Value::U64(r.varint()?),
                TAG_BOOL => Value::Bool(r.byte()? != 0),
                TAG_STR => {
                    let n = r.varint()?;
                    Value::Str(std::str::from_utf8(r.take(n)?).ok()?.to_owned())
                }
                TAG_BYTES => {
                    let n = r.varint()?;
                    Value::Bytes(Arc::new(r.take(n)?.to_vec()))
                }
                _ => return None,
            };
            fields.push((name, value));
        }
        Some(Event {
            seq,
            at_us,
            span,
            kind,
            fields,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip_at_group_edges() {
        for v in [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader(&out);
            assert_eq!(r.varint(), Some(v), "{v:#x}");
            assert!(r.0.is_empty());
        }
        // Eleven continuation bytes are not a u64.
        assert_eq!(Reader(&[0x80; 11]).varint(), None);
    }

    #[test]
    fn names_intern_by_content_in_first_use_order() {
        // Two distinct allocations of one name share an index.
        let a: &'static str = Box::leak(String::from("client").into_boxed_str());
        let b: &'static str = Box::leak(String::from("client").into_boxed_str());
        let mut ring = Ring::default();
        assert_eq!(ring.intern("service"), 0);
        assert_eq!(ring.intern(a), 1);
        assert_eq!(ring.intern(b), 1);
        assert_eq!(ring.intern("service"), 0);
        assert_eq!(ring.names, ["service", "client"]);
    }
}
