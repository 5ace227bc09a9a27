//! Encoded instruction traces: one immutable, refcounted byte buffer per
//! core.
//!
//! A [`Trace`] holds its instructions in a compact byte encoding, not as
//! [`Instruction`] values (24 bytes each). Generators append through a
//! [`TraceBuf`], which encodes each instruction as it is recorded.
//! Freezing the buffer into a `Trace` is a move, and every consumer
//! shares it by refcount. A `Trace` derefs to its frozen `TraceBuf`, so
//! read-only code takes `&TraceBuf` and accepts either. A
//! [`TraceCursor`] decodes one instruction per step.
//!
//! # Encoding
//!
//! Each instruction starts with a header byte. Its low 3 bits are the
//! kind; its high 5 bits are an argument:
//!
//! | kind | argument | then |
//! |---|---|---|
//! | `Other` (short) | latency, 0–31 | — |
//! | `Other` (wide) | latency length *n* | latency in *n* bytes |
//! | `Fence` | fence kind | — |
//! | `Load` | delta length *n* | `dst`, address delta in *n* bytes |
//! | `Store` | delta length *n* | address delta in *n* bytes, value length *m*, value in *m* bytes |
//! | `Atomic` | delta length *n* | `dst`, address delta in *n* bytes, addend length *m*, addend in *m* bytes |
//!
//! An address delta is the zigzag-coded wrapping difference from the
//! previous memory instruction's address (0 before the first), so every
//! `u64` round-trips. Multi-byte fields are little-endian and cut to
//! their significant bytes. A field is written as one 8-byte store whose
//! high bytes are zero, and read as one 8-byte load masked to its length;
//! every byte after the last instruction is zero, and there are at least
//! `PAD` of them, so that load never runs past the end.

use crate::addr::Addr;
use crate::instr::{FenceKind, InstrKind, Instruction, Reg};
use crate::persist::{Persist, PersistError, Reader, Writer};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Zero bytes kept after the last encoded instruction, at least.
const PAD: usize = 8;

const OTHER: u8 = 0;
const OTHER_WIDE: u8 = 1;
const FENCE: u8 = 2;
const LOAD: u8 = 3;
const STORE: u8 = 4;
const ATOMIC: u8 = 5;

/// The largest latency an `Other` header holds inline.
const INLINE_LATENCY: u32 = 31;

/// `MASKS[n]` keeps the low `n` bytes of a word.
const MASKS: [u64; 9] = [
    0,
    0xff,
    0xffff,
    0xff_ffff,
    0xffff_ffff,
    0xff_ffff_ffff,
    0xffff_ffff_ffff,
    0xff_ffff_ffff_ffff,
    u64::MAX,
];

const FENCES: [FenceKind; 3] = [FenceKind::Full, FenceKind::StoreStore, FenceKind::LoadLoad];

/// Significant bytes of `v` (0 for 0).
#[inline]
fn byte_len(v: u64) -> usize {
    (71 - v.leading_zeros() as usize) / 8
}

#[inline]
const fn header(kind: u8, arg: usize) -> u64 {
    (kind | (arg as u8) << 3) as u64
}

/// Bytes one instruction can take: header, `dst`, an 8-byte delta, a
/// length byte and an 8-byte value.
const MAX_INSTR: usize = 19;

/// A growable encoded trace, owned by the generator that records it.
///
/// Append with [`TraceBuf::push`] or the kind-specific calls, then freeze
/// it with `Trace::from`, which moves the buffer without copying it.
#[derive(Clone)]
pub struct TraceBuf {
    /// The encoded instructions in `[..end]`; every byte after them is
    /// zero, and there are at least [`PAD`] of them.
    bytes: Vec<u8>,
    /// End of the encoded instructions.
    end: usize,
    /// Instructions encoded.
    len: usize,
    /// Stores among them.
    stores: usize,
    /// Address of the last memory instruction: the base of the next
    /// delta.
    last_addr: u64,
}

impl Default for TraceBuf {
    fn default() -> Self {
        TraceBuf::with_capacity(0)
    }
}

impl PartialEq for TraceBuf {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.bytes[..self.end] == other.bytes[..other.end]
    }
}

impl Eq for TraceBuf {}

impl TraceBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        TraceBuf::default()
    }

    /// An empty buffer with room for about `instrs` instructions, for
    /// generators that know their trace length.
    pub fn with_capacity(instrs: usize) -> Self {
        TraceBuf {
            bytes: vec![0; instrs.saturating_mul(3).saturating_add(PAD)],
            end: 0,
            len: 0,
            stores: 0,
            last_addr: 0,
        }
    }

    /// Instructions recorded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores recorded so far (`InstrKind::Store`; atomics are not
    /// counted), kept as they are encoded rather than decoded.
    #[inline]
    pub fn stores(&self) -> usize {
        self.stores
    }

    /// Encoded bytes so far, excluding the zero tail.
    #[inline]
    pub fn encoded_bytes(&self) -> usize {
        self.end
    }

    /// A cursor at the first instruction, borrowing this buffer.
    pub fn iter(&self) -> TraceCursor<&TraceBuf> {
        TraceCursor::new(self)
    }

    /// Appends one instruction.
    pub fn push(&mut self, instr: Instruction) {
        match instr.kind {
            InstrKind::Load { addr, dst } => self.load(addr, dst),
            InstrKind::Store { addr, value } => self.store(addr, value),
            InstrKind::Atomic { addr, add, dst } => self.atomic(addr, add, dst),
            InstrKind::Fence(k) => self.fence(k),
            InstrKind::Other { latency } => self.other(latency),
        }
    }

    /// Appends a load of `addr` into `dst`.
    #[inline]
    pub fn load(&mut self, addr: Addr, dst: Reg) {
        let (delta, n) = self.begin(addr);
        self.put(header(LOAD, n) | (dst.0 as u64) << 8, 2);
        self.put(delta, n);
    }

    /// Appends a store of `value` to `addr`.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: u64) {
        let (delta, n) = self.begin(addr);
        self.stores += 1;
        self.put(header(STORE, n), 1);
        self.put(delta, n);
        self.put_sized(value);
    }

    /// Appends an atomic add of `add` to `addr`, old value into `dst`.
    #[inline]
    pub fn atomic(&mut self, addr: Addr, add: u64, dst: Reg) {
        let (delta, n) = self.begin(addr);
        self.put(header(ATOMIC, n) | (dst.0 as u64) << 8, 2);
        self.put(delta, n);
        self.put_sized(add);
    }

    /// Appends a fence.
    #[inline]
    pub fn fence(&mut self, kind: FenceKind) {
        let arg = match kind {
            FenceKind::Full => 0,
            FenceKind::StoreStore => 1,
            FenceKind::LoadLoad => 2,
        };
        self.room(MAX_INSTR);
        self.put(header(FENCE, arg), 1);
        self.len += 1;
    }

    /// Appends non-memory work with the given latency.
    #[inline]
    pub fn other(&mut self, latency: u32) {
        self.room(MAX_INSTR);
        if latency <= INLINE_LATENCY {
            self.put(header(OTHER, latency as usize), 1);
        } else {
            let n = byte_len(latency as u64);
            self.put(header(OTHER_WIDE, n), 1);
            self.put(latency as u64, n);
        }
        self.len += 1;
    }

    /// Appends `n` single-cycle `Other` instructions: one header byte
    /// each, filled eight at a time.
    #[inline]
    pub fn others(&mut self, n: usize) {
        const ONES: u64 = 0x0101_0101_0101_0101 * header(OTHER, 1);
        self.room(n);
        let mut left = n;
        while left > 0 {
            let k = left.min(8);
            self.put(ONES & MASKS[k], k);
            left -= k;
        }
        self.len += n;
    }

    /// Makes room for one memory instruction at `addr` and returns its
    /// zigzag-coded delta from the last memory address, with the delta's
    /// length; `addr` becomes the new base.
    #[inline]
    fn begin(&mut self, addr: Addr) -> (u64, usize) {
        self.room(MAX_INSTR);
        self.len += 1;
        let d = addr.raw().wrapping_sub(self.last_addr) as i64;
        self.last_addr = addr.raw();
        let zz = ((d << 1) ^ (d >> 63)) as u64;
        (zz, byte_len(zz))
    }

    /// Ensures `n` more bytes can be written with [`PAD`] zero bytes and
    /// an 8-byte word store to spare.
    #[inline]
    fn room(&mut self, n: usize) {
        let need = self.end + n + PAD;
        if self.bytes.len() < need {
            self.grow(need);
        }
    }

    /// Moves the encoded bytes into a fresh zeroed allocation of at least
    /// `need` bytes. The allocator zeroes it, so on a fresh mapping the
    /// tail is not faulted in until it is written.
    #[cold]
    fn grow(&mut self, need: usize) {
        let mut grown = vec![0; need.max(2 * self.bytes.len())];
        grown[..self.end].copy_from_slice(&self.bytes[..self.end]);
        self.bytes = grown;
    }

    /// Appends the low `n` bytes of `word`, whose higher bytes are zero,
    /// as one 8-byte store: the bytes past `n` it writes are zero, as the
    /// tail must be.
    #[inline]
    fn put(&mut self, word: u64, n: usize) {
        self.bytes[self.end..self.end + 8].copy_from_slice(&word.to_le_bytes());
        self.end += n;
    }

    /// Appends `v`'s length byte, then its significant bytes.
    #[inline]
    fn put_sized(&mut self, v: u64) {
        let m = byte_len(v);
        self.put(m as u64, 1);
        self.put(v, m);
    }

    /// The low `n` bytes of the word at byte `at`.
    #[inline]
    fn word(&self, at: usize, n: usize) -> u64 {
        let w = u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("8-byte slice"));
        w & MASKS[n]
    }

    /// Decodes the instruction at `pos` and advances past it. `pos` must
    /// be before the end.
    #[inline]
    fn decode(&self, pos: &mut Pos) -> Instruction {
        let at = pos.byte;
        let h = self.bytes[at];
        let arg = (h >> 3) as usize;
        let kind = match h & 7 {
            OTHER => {
                pos.byte = at + 1;
                InstrKind::Other {
                    latency: arg as u32,
                }
            }
            OTHER_WIDE => {
                pos.byte = at + 1 + arg;
                InstrKind::Other {
                    latency: self.word(at + 1, arg) as u32,
                }
            }
            FENCE => {
                pos.byte = at + 1;
                InstrKind::Fence(FENCES[arg])
            }
            LOAD => {
                let dst = Reg(self.bytes[at + 1]);
                let addr = pos.addr(self.word(at + 2, arg));
                pos.byte = at + 2 + arg;
                InstrKind::Load { addr, dst }
            }
            STORE => {
                let addr = pos.addr(self.word(at + 1, arg));
                let v = at + 1 + arg;
                let m = self.bytes[v] as usize;
                pos.byte = v + 1 + m;
                InstrKind::Store {
                    addr,
                    value: self.word(v + 1, m),
                }
            }
            ATOMIC => {
                let dst = Reg(self.bytes[at + 1]);
                let addr = pos.addr(self.word(at + 2, arg));
                let v = at + 2 + arg;
                let m = self.bytes[v] as usize;
                pos.byte = v + 1 + m;
                InstrKind::Atomic {
                    addr,
                    add: self.word(v + 1, m),
                    dst,
                }
            }
            _ => unreachable!("trace header {h:#04x}"),
        };
        pos.index += 1;
        Instruction { kind }
    }
}

impl fmt::Debug for TraceBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a TraceBuf {
    type Item = Instruction;
    type IntoIter = TraceCursor<&'a TraceBuf>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A decoding position: byte offset, instruction index and the delta
/// base at that point.
#[derive(Debug, Clone, Copy, Default)]
struct Pos {
    byte: usize,
    index: usize,
    last_addr: u64,
}

impl Pos {
    /// The address a zigzag-coded delta leads to; it becomes the base.
    #[inline]
    fn addr(&mut self, zz: u64) -> Addr {
        let d = (zz >> 1) ^ (zz & 1).wrapping_neg();
        self.last_addr = self.last_addr.wrapping_add(d);
        Addr::new(self.last_addr)
    }
}

/// An immutable, reference-counted instruction stream for one core.
///
/// A trace is one encoded byte buffer (about 2–3.5 bytes per instruction
/// on the paper's workloads) from the generator that records it to the
/// core that fetches from it. Freezing a [`TraceBuf`] is a move, and
/// every further consumer — the baseline and injected runs of one
/// workload, sweep points, the paired systems of an equivalence check —
/// shares it by refcount. Iterating decodes; no instruction array is
/// ever built. The read-only [`TraceBuf`] API (`len`, `iter`, …) is
/// reached through `Deref`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Trace(Arc<TraceBuf>);

impl Deref for Trace {
    type Target = TraceBuf;
    #[inline]
    fn deref(&self) -> &TraceBuf {
        &self.0
    }
}

impl Trace {
    /// The buffer for appending, copied first only if it is shared
    /// (copy-on-write, as [`Arc::make_mut`]).
    pub fn make_mut(&mut self) -> &mut TraceBuf {
        Arc::make_mut(&mut self.0)
    }

    /// Whether two traces share one buffer.
    pub fn ptr_eq(a: &Trace, b: &Trace) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl From<TraceBuf> for Trace {
    fn from(mut buf: TraceBuf) -> Self {
        buf.bytes.truncate(buf.end + PAD);
        // Return the rest of the last doubling. Whether that tail is
        // resident depends on where the allocator placed the buffer (a
        // fresh mapping is not faulted in, reused heap memory is cleared
        // page by page), which made peak RSS swing by ~10 MiB between
        // identical runs; shrinking in place copies nothing.
        buf.bytes.shrink_to_fit();
        Trace(Arc::new(buf))
    }
}

impl FromIterator<Instruction> for Trace {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut buf = TraceBuf::with_capacity(iter.size_hint().0);
        for i in iter {
            buf.push(i);
        }
        buf.into()
    }
}

impl From<Vec<Instruction>> for Trace {
    fn from(instrs: Vec<Instruction>) -> Self {
        instrs.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = Instruction;
    type IntoIter = TraceCursor<&'a TraceBuf>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// A read position in a trace, decoding one instruction per step. A
/// core fetches through one that owns a share of its [`Trace`];
/// [`TraceBuf::iter`] gives one that borrows.
#[derive(Debug, Clone)]
pub struct TraceCursor<T = Trace> {
    trace: T,
    pos: Pos,
}

impl<T: Deref<Target = TraceBuf>> TraceCursor<T> {
    /// A cursor at the first instruction of `trace`.
    pub fn new(trace: T) -> Self {
        TraceCursor {
            trace,
            pos: Pos::default(),
        }
    }

    /// Instructions already read.
    pub fn position(&self) -> usize {
        self.pos.index
    }

    /// Moves to instruction `index` by decoding forward from the start.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] if `index` is beyond the end.
    pub fn seek(&mut self, index: usize) -> Result<(), PersistError> {
        if index > self.trace.len() {
            return Err(PersistError::Corrupt("trace cursor beyond end"));
        }
        self.pos = Pos::default();
        for _ in 0..index {
            self.trace.decode(&mut self.pos);
        }
        Ok(())
    }
}

impl<T: Deref<Target = TraceBuf>> Iterator for TraceCursor<T> {
    type Item = Instruction;

    #[inline]
    fn next(&mut self) -> Option<Instruction> {
        let buf = &*self.trace;
        (self.pos.index < buf.len).then(|| buf.decode(&mut self.pos))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.trace.len() - self.pos.index;
        (n, Some(n))
    }
}

impl<T: Deref<Target = TraceBuf>> ExactSizeIterator for TraceCursor<T> {}

/// Encoded as the `Vec<Instruction>` it holds, so snapshots do not depend
/// on the in-memory encoding.
impl Persist for Trace {
    fn save(&self, w: &mut Writer) {
        w.usize(self.len());
        for i in self {
            i.save(w);
        }
    }
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        let n = r.usize()?;
        // A corrupt length must not reserve memory before the per-element
        // reads hit Truncated.
        let mut buf = TraceBuf::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            buf.push(Instruction::restore(r)?);
        }
        Ok(buf.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{restore_container, save_container};

    /// Every kind, with the edge values of each field.
    fn edge_cases() -> Vec<Instruction> {
        // The highest aligned address, back to back with 0: the deltas wrap.
        const TOP: u64 = !7;
        let mut v = Vec::new();
        let addrs = [0, TOP, 0, 8, TOP, 0x1000, 0x0ff8, 1 << 63];
        let words = [0, 1, 0xff, 0x100, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for (i, &a) in addrs.iter().enumerate() {
            let addr = Addr::new(a);
            let w = words[i % words.len()];
            v.push(Instruction::load(addr, Reg(i as u8)));
            v.push(Instruction::store(addr, w));
            v.push(Instruction::atomic(addr, w, Reg(255 - i as u8)));
        }
        for w in words {
            v.push(Instruction::store(Addr::new(0), w));
            v.push(Instruction::atomic(Addr::new(TOP), w, Reg(7)));
        }
        for r in 0..=255 {
            v.push(Instruction::load(Addr::new(0x40), Reg(r)));
            v.push(Instruction::atomic(Addr::new(0x40), 1, Reg(r)));
        }
        for k in FENCES {
            v.push(Instruction::fence(k));
        }
        v.extend([Instruction::other(); 20]);
        for latency in [
            0,
            1,
            2,
            30,
            31,
            32,
            255,
            256,
            0xffff,
            0x1_0000,
            u32::MAX - 1,
            u32::MAX,
        ] {
            v.push(Instruction {
                kind: InstrKind::Other { latency },
            });
        }
        v
    }

    fn random_stream(g: &mut quickprop::Gen) -> Vec<Instruction> {
        let n = g.range_usize(0, 400);
        let mut last = g.u64();
        g.vec_of(n, |g| {
            // Mostly near the last address, sometimes anywhere.
            let addr = if g.bool() {
                last.wrapping_add(g.range_u64(0, 1 << 16))
                    .wrapping_sub(1 << 15)
            } else {
                g.u64()
            };
            last = addr;
            let addr = Addr::new(addr);
            let width = *g.choose(&[0u32, 8, 16, 32, 64]);
            let value = g.u64() & MASKS[(width / 8) as usize];
            match g.range_u64(0, 6) {
                0 => Instruction::load(addr, Reg(g.u8())),
                1 => Instruction::store(addr, value),
                2 => Instruction::atomic(addr, value, Reg(g.u8())),
                3 => Instruction::fence(*g.choose(&FENCES)),
                4 => Instruction::other(),
                _ => Instruction {
                    kind: InstrKind::Other {
                        latency: (value as u32) >> g.range_u64(0, 32),
                    },
                },
            }
        })
    }

    /// The trace built from `instrs` by every append path agrees with
    /// the plain vector on iteration, length, equality and saved bytes.
    fn assert_matches(instrs: &[Instruction]) {
        let collected: Trace = instrs.iter().copied().collect();
        // The guest frontend's path: push through `make_mut`, with a
        // copy-on-write of a shared, frozen buffer halfway.
        let mut pushed = Trace::default();
        let mut shared = None;
        for (n, &i) in instrs.iter().enumerate() {
            if n == instrs.len() / 2 {
                shared = Some(pushed.clone());
            }
            pushed.make_mut().push(i);
        }
        assert_eq!(shared.map_or(0, |t| t.len()), instrs.len() / 2);
        // The recorder's path: kind-specific calls, with each run of
        // single-cycle work appended by one `others`.
        let mut calls = TraceBuf::new();
        let mut run = 0;
        for &i in instrs {
            if i == Instruction::other() {
                run += 1;
                continue;
            }
            calls.others(run);
            run = 0;
            match i.kind {
                InstrKind::Load { addr, dst } => calls.load(addr, dst),
                InstrKind::Store { addr, value } => calls.store(addr, value),
                InstrKind::Atomic { addr, add, dst } => calls.atomic(addr, add, dst),
                InstrKind::Fence(k) => calls.fence(k),
                InstrKind::Other { latency } => calls.other(latency),
            }
        }
        calls.others(run);
        let calls = Trace::from(calls);
        // The store count kept while encoding equals a decode count.
        let decoded_stores = |t: &Trace| {
            t.iter()
                .filter(|i| matches!(i.kind, InstrKind::Store { .. }))
                .count()
        };
        for t in [&collected, &pushed, &calls] {
            assert_eq!(t.len(), instrs.len());
            assert_eq!(t.stores(), decoded_stores(t));
            assert_eq!(t.is_empty(), instrs.is_empty());
            assert_eq!(t.iter().len(), instrs.len());
            assert!(t.iter().eq(instrs.iter().copied()));
            assert_eq!(save_container(t), save_container(&instrs.to_vec()));
            assert_eq!(format!("{t:?}"), format!("{instrs:?}"));
        }
        assert_eq!(collected, pushed);
        assert_eq!(collected, calls);
        let back: Trace = restore_container(&save_container(&collected)).unwrap();
        assert_eq!(back, collected);
        assert_eq!(back.stores(), decoded_stores(&back));
    }

    #[test]
    fn edge_cases_round_trip() {
        assert_matches(&[]);
        assert_matches(&edge_cases());
    }

    #[test]
    fn random_streams_round_trip() {
        quickprop::check(200, |g| assert_matches(&random_stream(g)));
    }

    #[test]
    fn different_streams_are_unequal() {
        let a: Trace = edge_cases().into();
        let mut shorter = edge_cases();
        shorter.pop();
        assert_ne!(a, Trace::from(shorter));
        let mut changed = edge_cases();
        changed[0] = Instruction::load(Addr::new(0), Reg(1));
        assert_ne!(a, Trace::from(changed));
    }

    #[test]
    fn runs_of_single_cycle_work_take_one_byte_each() {
        let mut b = TraceBuf::new();
        b.others(1000);
        b.other(1);
        assert_eq!(b.len(), 1001);
        assert_eq!(b.encoded_bytes(), 1001);
        let t = Trace::from(b);
        assert!(t.iter().all(|i| i == Instruction::other()));
    }

    #[test]
    fn cursor_saved_at_every_position_resumes_there() {
        // A short trace with every kind in it.
        let instrs: Vec<Instruction> = edge_cases().into_iter().step_by(11).collect();
        let t: Trace = instrs.clone().into();
        let mut c = t.iter();
        for at in 0..=instrs.len() {
            assert_eq!(c.position(), at);
            let mut w = Writer::container();
            w.usize(c.position());
            let bytes = w.finish();
            let mut back = t.iter();
            back.seek(Reader::container(&bytes).unwrap().usize().unwrap())
                .unwrap();
            assert!(back.eq(instrs[at..].iter().copied()), "resumed at {at}");
            c.next();
        }
        assert!(matches!(
            t.iter().seek(instrs.len() + 1),
            Err(PersistError::Corrupt("trace cursor beyond end"))
        ));
    }

    #[test]
    fn freezing_and_sharing_keep_one_buffer() {
        let mut b = TraceBuf::new();
        b.store(Addr::new(0x1000), 7);
        let recorded = b.bytes.as_ptr();
        let t = Trace::from(b);
        assert_eq!(t.bytes.as_ptr(), recorded, "freezing copied the buffer");
        let c = t.clone();
        assert!(Trace::ptr_eq(&t, &c), "a clone copied the buffer");
        assert!(
            Trace::ptr_eq(&t, &TraceCursor::new(c.clone()).trace),
            "a cursor copied the buffer"
        );
        let mut grown = c.clone();
        grown.make_mut().other(1);
        assert!(
            !Trace::ptr_eq(&t, &grown),
            "appending wrote into a shared buffer"
        );
        assert_eq!((t.len(), grown.len()), (1, 2));
    }
}
