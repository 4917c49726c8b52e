//! FIFO tapes with random-access pushes, pointer adjustment, and the
//! column-major reorder modes used by the SAGU tape optimization.
//!
//! Storage is a flat power-of-two ring indexed by monotonic absolute
//! counters (`read <= committed_end <= filled_end`), so steady-state
//! traffic is masked index arithmetic over one allocation instead of
//! `VecDeque` element churn, and vector transfers degrade to at most two
//! contiguous slice copies (see [`Tape::vpop_slices`] /
//! [`Tape::push_slice`]).
//!
//! A slot holds a token's *register image* ([`raw_of`]): the 8 bytes a
//! bytecode register holds for it, whatever the element type. The compiled
//! engine, the native nodes and the threaded runtime's rings move images
//! (`*_raw`, spans of `u64`) and never convert; the [`Value`] methods are
//! typed views over the same storage for the tree-walker, sinks, the
//! configuration-swap carrier and tests.

use crate::lanes;
use macross_sagu::column_major_index;
use macross_streamir::types::{ScalarTy, Value};

/// The register image of `v`: an `i32` sign-extended, an `i64` as is, an
/// `f32` exactly widened to `f64` bits, an `f64`'s bits. Zero of every
/// type is image 0.
#[inline]
pub fn raw_of(v: Value) -> u64 {
    match v {
        Value::I32(x) => x as i64 as u64,
        Value::I64(x) => x as u64,
        Value::F32(x) => (x as f64).to_bits(),
        Value::F64(x) => x.to_bits(),
    }
}

/// The `elem` value whose image is `raw` — [`raw_of`]'s inverse, bit for
/// bit except that widening quiets an `f32` signalling NaN (DESIGN §10).
#[inline]
pub fn value_of(elem: ScalarTy, raw: u64) -> Value {
    match elem {
        ScalarTy::I32 => Value::I32(raw as i32),
        ScalarTy::I64 => Value::I64(raw as i64),
        ScalarTy::F32 => Value::F32(f64::from_bits(raw) as f32),
        ScalarTy::F64 => Value::F64(f64::from_bits(raw)),
    }
}

/// [`raw_of`] for a value entering a tape of `elem` tokens.
///
/// # Panics
/// Panics if `v` is of another type: an image does not carry its type, so
/// the mismatch is a fault of the producer, raised where it pushes.
#[inline]
fn image_for(elem: ScalarTy, v: Value) -> u64 {
    assert!(v.ty() == elem, "pushed {v:?} on a tape of {elem} tokens");
    raw_of(v)
}

/// The `Value` view of a span of `elem` images.
fn span_values(elem: ScalarTy, (a, b): (&[u64], &[u64])) -> Vec<Value> {
    a.iter().chain(b).map(|&raw| value_of(elem, raw)).collect()
}

/// A tape (FIFO channel) between two actors.
///
/// Beyond plain push/pop the tape supports the paper's access repertoire:
///
/// - `peek(k)`: non-destructive read `k` elements past the read pointer;
/// - `rpush(v, off)`: write `off` elements past the write pointer without
///   advancing it;
/// - `advance_read`/`advance_write`: bulk pointer adjustment emitted by the
///   SIMDizer;
/// - vector push/pop of `w` contiguous elements;
/// - **reorder modes**: when one end is vectorized and uses whole-vector
///   accesses while the other end stays scalar, the scalar end accesses the
///   tape in column-major block order (resolved by a SAGU or the Figure-8
///   software sequence — the *cost* of which is charged by the executor;
///   this type implements the functional remapping).
#[derive(Debug, Clone)]
pub struct Tape {
    /// Ring storage, one register image per slot; `buf.len()` is the
    /// capacity, zero or a power of two.
    buf: Vec<u64>,
    /// `buf.len() - 1` when allocated, 0 while empty.
    mask: usize,
    /// Absolute read pointer (monotonic).
    read: usize,
    /// Absolute write pointer: committed elements live in
    /// `[read, committed_end)`.
    committed_end: usize,
    /// Zero-filled high-water mark (`>= committed_end`; the gap holds
    /// rpush-staged elements not yet committed by `advance_write`).
    filled_end: usize,
    /// Element type every image is one of (the `Value` views convert by
    /// it; the firing boundary checks compiled filters against it).
    elem: ScalarTy,
    /// Column-major read remapping: (rate, simd width).
    read_reorder: Option<(usize, usize)>,
    /// Logical position within the current read block.
    read_block_pos: usize,
    /// Column-major write remapping: (rate, simd width).
    write_reorder: Option<(usize, usize)>,
    /// Staging buffer for one write block.
    write_stage: Vec<u64>,
    /// Logical position within the current write block.
    write_block_pos: usize,
    /// Lifetime statistics.
    total_pushed: u64,
    total_popped: u64,
    /// Set by fault injection or a failed firing: the contents can no
    /// longer be trusted. Checked once per firing at the firing boundary
    /// (not per access), so the steady-state hot path is unaffected.
    poisoned: bool,
}

/// A tape's pointers at one instant — see [`Tape::mark`]. A handful of
/// words, whatever the tape holds.
#[derive(Debug, Clone, Copy)]
pub struct TapeMark {
    read: usize,
    read_block_pos: usize,
    committed_end: usize,
    write_block_pos: usize,
    total_pushed: u64,
    total_popped: u64,
}

impl Default for Tape {
    /// An empty `f32` tape (used when temporarily moving tapes out of the
    /// executor's storage).
    fn default() -> Tape {
        Tape::new(ScalarTy::F32)
    }
}

impl Tape {
    /// Create an empty tape carrying elements of type `elem`.
    pub fn new(elem: ScalarTy) -> Tape {
        Tape {
            buf: Vec::new(),
            mask: 0,
            read: 0,
            committed_end: 0,
            filled_end: 0,
            elem,
            read_reorder: None,
            read_block_pos: 0,
            write_reorder: None,
            write_stage: Vec::new(),
            write_block_pos: 0,
            total_pushed: 0,
            total_popped: 0,
            poisoned: false,
        }
    }

    /// Mark the tape's contents as untrustworthy. Firing primitives refuse
    /// to run a filter against a poisoned tape
    /// ([`crate::VmError::Poisoned`]); the data itself is left in place for
    /// post-mortem inspection.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// True when [`Tape::poison`] was called and not cleared since.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Clear the poison mark (replay tooling re-arms tapes between runs).
    pub fn clear_poison(&mut self) {
        self.poisoned = false;
    }

    /// Record the read and write pointers, so that whatever one node's
    /// firings do to the tape afterwards can be undone by
    /// [`Tape::rollback`]. Take it at a firing boundary.
    pub fn mark(&self) -> TapeMark {
        TapeMark {
            read: self.read,
            read_block_pos: self.read_block_pos,
            committed_end: self.committed_end,
            write_block_pos: self.write_block_pos,
            total_pushed: self.total_pushed,
            total_popped: self.total_popped,
        }
    }

    /// Undo everything done since `mark`: the tape again holds exactly the
    /// tokens it held then, and a write-reordered tape the same partial
    /// block.
    ///
    /// Nothing is copied when the mark is taken, so this relies on what
    /// the ring keeps by itself. Popped tokens stay in their slots until
    /// a write reuses them, so pops can be undone only on a tape that was
    /// not written since the mark — true of a node's input tapes, which
    /// only its (idle) producer writes. Written slots are simply
    /// abandoned: everything past the restored write pointer, `rpush`
    /// staging included, is zero-filled again before its next use. The
    /// staging block of a write-reordered tape is overwritten in place,
    /// but the first block committed after the mark holds a full image of
    /// it, so it is reloaded from there (positions at or past the
    /// restored block cursor are rewritten before the next commit reads
    /// them). The poison flag is the caller's to clear.
    pub fn rollback(&mut self, mark: &TapeMark) {
        debug_assert!(
            mark.read <= self.read && mark.committed_end <= self.committed_end,
            "mark is newer than the tape"
        );
        debug_assert!(
            (mark.read, mark.read_block_pos) == (self.read, self.read_block_pos)
                || mark.total_pushed == self.total_pushed,
            "pops cannot be undone on a tape written since the mark"
        );
        if self.write_reorder.is_some() && self.committed_end > mark.committed_end {
            for i in 0..self.write_stage.len() {
                self.write_stage[i] = self.buf[(mark.committed_end + i) & self.mask];
            }
        }
        self.read = mark.read;
        self.read_block_pos = mark.read_block_pos;
        self.committed_end = mark.committed_end;
        self.filled_end = mark.committed_end;
        self.write_block_pos = mark.write_block_pos;
        self.total_pushed = mark.total_pushed;
        self.total_popped = mark.total_popped;
    }

    /// Tokens written so far, committed or staged in a write-reorder block
    /// — the position [`Tape::unwrite_to`] rewinds to.
    pub fn written(&self) -> usize {
        self.committed_end + self.write_block_pos
    }

    /// Undo every write past the first `written` ([`Tape::written`]), as
    /// [`Tape::rollback`] would to a mark taken then: what a failed firing
    /// wrote after the firings before it is gone, a write-reordered tape
    /// again holds their partial block, and reads are not touched. A
    /// position at or past the current one changes nothing.
    pub fn unwrite_to(&mut self, written: usize) {
        let now = self.written();
        if written >= now {
            return;
        }
        // Committed writes come in whole blocks on a write-reordered tape.
        let block = self.write_reorder.map_or(1, |(rate, sw)| rate * sw);
        let mark = TapeMark {
            committed_end: written / block * block,
            write_block_pos: written % block,
            total_pushed: self.total_pushed - (now - written) as u64,
            ..self.mark()
        };
        self.rollback(&mark);
    }

    /// Enable column-major *read* remapping (vectorized producer, scalar
    /// consumer): logical read `k` resolves to physical slot
    /// `column_major_index(k, rate, sw)` within the current block.
    ///
    /// # Panics
    /// Panics if a write reorder is already set (a tape reorders one end).
    pub fn set_read_reorder(&mut self, rate: usize, sw: usize) {
        assert!(
            self.write_reorder.is_none(),
            "tape cannot reorder both ends"
        );
        self.read_reorder = Some((rate, sw));
    }

    /// Enable column-major *write* remapping (scalar producer, vectorized
    /// consumer): logical writes are staged and committed one block at a
    /// time in the layout the consumer's vector pops expect.
    ///
    /// # Panics
    /// Panics if a read reorder is already set.
    pub fn set_write_reorder(&mut self, rate: usize, sw: usize) {
        assert!(self.read_reorder.is_none(), "tape cannot reorder both ends");
        self.write_reorder = Some((rate, sw));
        self.write_stage = vec![0; rate * sw];
    }

    /// Element type carried by this tape.
    pub fn elem(&self) -> ScalarTy {
        self.elem
    }

    /// Export the committed resident tokens in FIFO order — the tape half
    /// of the configuration-swap carrier (parameterized dataflow).
    ///
    /// Returns `None` when the resident state cannot be expressed as a
    /// plain token sequence: a partially consumed/produced reorder block,
    /// rpush-staged elements not yet committed, or any resident tokens on
    /// a reordered tape (their physical layout encodes a permutation the
    /// importing configuration may not share). Template validation
    /// rejects dynamic programs whose quiescent points can reach those
    /// states, so a swap never observes `None` at runtime.
    pub fn export_resident(&self) -> Option<Vec<Value>> {
        if self.read_block_pos != 0
            || self.write_block_pos != 0
            || self.filled_end != self.committed_end
        {
            return None;
        }
        if !self.is_empty() && (self.read_reorder.is_some() || self.write_reorder.is_some()) {
            return None;
        }
        Some(
            (self.read..self.committed_end)
                .map(|i| value_of(self.elem, self.at(i)))
                .collect(),
        )
    }

    /// Preload tokens exported by [`Tape::export_resident`] into this
    /// (still pristine) tape, in FIFO order. Counterpart of the export:
    /// returns `false` — importing nothing — when this tape already holds
    /// data, has block state in flight, would need a reorder-aware
    /// layout for a non-empty carrier, or carries another element type
    /// than the tokens. Lifetime push/pop statistics are
    /// not disturbed: carried tokens were already counted by the
    /// configuration that produced them.
    pub fn import_resident(&mut self, vals: &[Value]) -> bool {
        if !self.is_empty()
            || self.read_block_pos != 0
            || self.write_block_pos != 0
            || self.filled_end != self.committed_end
        {
            return false;
        }
        if !vals.is_empty() && (self.read_reorder.is_some() || self.write_reorder.is_some()) {
            return false;
        }
        if vals.iter().any(|v| v.ty() != self.elem) {
            return false;
        }
        for &v in vals {
            self.write_at(self.committed_end, raw_of(v));
            self.committed_end += 1;
        }
        true
    }

    /// Committed (readable) element count.
    pub fn len(&self) -> usize {
        self.committed_end - self.read
    }

    /// True when no committed elements remain.
    pub fn is_empty(&self) -> bool {
        self.committed_end == self.read
    }

    /// Lifetime totals `(pushed, popped)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.total_pushed, self.total_popped)
    }

    /// Make room for `live` resident tokens now: a caller that knows the
    /// tape's peak sizes the ring once instead of letting the first pushes
    /// double it up.
    pub fn reserve(&mut self, live: usize) {
        if live > self.buf.len() {
            self.grow(live);
        }
    }

    /// Reallocate so at least `min_live` slots fit, re-ringing the live
    /// region `[read, filled_end)` under the new mask.
    #[cold]
    fn grow(&mut self, min_live: usize) {
        let new_cap = min_live.next_power_of_two().max(8);
        let new_mask = new_cap - 1;
        let mut new_buf = vec![0; new_cap];
        for i in self.read..self.filled_end {
            new_buf[i & new_mask] = self.buf[i & self.mask];
        }
        self.buf = new_buf;
        self.mask = new_mask;
    }

    /// Zero-fill up through absolute index `idx`, growing the ring when
    /// the live region would exceed capacity.
    fn ensure_filled(&mut self, idx: usize) {
        let need = idx + 1 - self.read;
        if need > self.buf.len() {
            self.grow(need);
        }
        while self.filled_end <= idx {
            let slot = self.filled_end & self.mask;
            self.buf[slot] = 0;
            self.filled_end += 1;
        }
    }

    /// Write `v` at absolute index `idx` (filling any gap with zeros).
    fn write_at(&mut self, idx: usize, v: u64) {
        self.ensure_filled(idx);
        let slot = idx & self.mask;
        self.buf[slot] = v;
    }

    /// Read the element at absolute index `idx`.
    fn at(&self, idx: usize) -> u64 {
        assert!(idx < self.filled_end, "tape read past filled region");
        self.buf[idx & self.mask]
    }

    /// Push one element, advancing the write pointer.
    ///
    /// # Panics
    /// Panics if `v` is not of the tape's element type (as do
    /// [`Tape::rpush`] and [`Tape::vpush`]).
    pub fn push(&mut self, v: Value) {
        self.push_raw(image_for(self.elem, v));
    }

    /// [`Tape::push`] of a register image.
    #[inline]
    pub fn push_raw(&mut self, raw: u64) {
        // The common case in one branch: a plain tape with no staged
        // `rpush` gap and a free slot takes a single store. `&` rather
        // than `&&` keeps the three tests one condition.
        let plain = self.write_reorder.is_none()
            & (self.filled_end == self.committed_end)
            & (self.committed_end - self.read < self.buf.len());
        if plain {
            self.buf[self.committed_end & self.mask] = raw;
            self.committed_end += 1;
            self.filled_end += 1;
            self.total_pushed += 1;
        } else {
            self.push_slow(raw);
        }
    }

    /// [`Tape::push_raw`] in full: reordered writes, a staged gap to fill
    /// and a ring to grow end up here.
    #[inline(never)]
    fn push_slow(&mut self, raw: u64) {
        self.total_pushed += 1;
        if let Some((rate, sw)) = self.write_reorder {
            let block = rate * sw;
            let phys = column_major_index(self.write_block_pos, rate, sw);
            self.write_stage[phys] = raw;
            self.write_block_pos += 1;
            if self.write_block_pos == block {
                self.write_block_pos = 0;
                let stage = std::mem::take(&mut self.write_stage);
                for &val in &stage {
                    self.write_at(self.committed_end, val);
                    self.committed_end += 1;
                }
                self.write_stage = stage;
            }
            return;
        }
        self.write_at(self.committed_end, raw);
        self.committed_end += 1;
    }

    /// Random-access push `off` elements past the write pointer (does not
    /// advance it). Not available on write-reordered tapes.
    ///
    /// # Panics
    /// Panics on a write-reordered tape.
    pub fn rpush(&mut self, v: Value, off: usize) {
        self.rpush_raw(image_for(self.elem, v), off);
    }

    /// [`Tape::rpush`] of a register image.
    pub fn rpush_raw(&mut self, raw: u64, off: usize) {
        assert!(
            self.write_reorder.is_none(),
            "rpush on a write-reordered tape"
        );
        self.total_pushed += 1;
        self.write_at(self.committed_end + off, raw);
    }

    /// Advance the write pointer over `n` slots previously filled by
    /// `rpush`.
    pub fn advance_write(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.ensure_filled(self.committed_end + n - 1);
        self.committed_end += n;
    }

    /// Push `w` contiguous elements (a vector push).
    pub fn vpush(&mut self, vals: &[Value]) {
        let elem = self.elem;
        self.vpush_many(vals.len(), |k| image_for(elem, vals[k]));
    }

    /// Push the `w` images `f(lane)` without materializing them (how the
    /// horizontal splitter packs lanes straight off its input tape).
    ///
    /// # Panics
    /// Panics on a write-reordered tape.
    #[inline]
    pub fn vpush_many(&mut self, w: usize, mut f: impl FnMut(usize) -> u64) {
        assert!(
            self.write_reorder.is_none(),
            "vpush on a write-reordered tape"
        );
        if w == 0 {
            return;
        }
        self.ensure_filled(self.committed_end + w - 1);
        for lane in 0..w {
            let slot = (self.committed_end + lane) & self.mask;
            self.buf[slot] = f(lane);
        }
        self.total_pushed += w as u64;
        self.committed_end += w;
    }

    /// Push a span of images with one capacity check and at most two
    /// window moves — a compiled vector push, a native node's tokens, a
    /// ring's tokens landing on the consuming core's tape half. A
    /// write-reordered tape stages them one by one.
    #[inline(always)]
    pub fn push_slice(&mut self, vals: &[u64]) {
        // One branch for the common case, like [`Tape::push_raw`]: a plain
        // tape with room, the span short of the ring's seam.
        let s = self.committed_end & self.mask;
        let end = self.committed_end + vals.len();
        let plain = self.write_reorder.is_none()
            & (end - self.read <= self.buf.len())
            & (s + vals.len() <= self.buf.len());
        if plain {
            lanes::put(&mut self.buf, s, vals);
            self.total_pushed += vals.len() as u64;
            self.committed_end = end;
            self.filled_end = self.filled_end.max(end);
        } else {
            self.push_slice_slow(vals);
        }
    }

    /// [`Tape::push_slice`] in full: reordered writes, a ring to grow and
    /// a span that wraps end up here.
    #[inline(never)]
    fn push_slice_slow(&mut self, vals: &[u64]) {
        if self.write_reorder.is_some() {
            return vals.iter().for_each(|&raw| self.push_slow(raw));
        }
        let end = self.committed_end + vals.len();
        if end - self.read > self.buf.len() {
            self.grow(end - self.read);
        }
        let s = self.committed_end & self.mask;
        let first = vals.len().min(self.buf.len() - s);
        self.buf[s..s + first].copy_from_slice(&vals[..first]);
        self.buf[..vals.len() - first].copy_from_slice(&vals[first..]);
        self.total_pushed += vals.len() as u64;
        self.committed_end = end;
        self.filled_end = self.filled_end.max(end);
    }

    /// Pop one element.
    ///
    /// # Panics
    /// Panics if the tape is empty (the schedule guarantees availability).
    pub fn pop(&mut self) -> Value {
        value_of(self.elem, self.pop_raw())
    }

    /// [`Tape::pop`] as a register image.
    #[inline]
    pub fn pop_raw(&mut self) -> u64 {
        // One branch for the common case, like [`Tape::push_raw`].
        if self.read_reorder.is_none() & (self.committed_end > self.read) {
            let v = self.buf[self.read & self.mask];
            self.read += 1;
            self.total_popped += 1;
            v
        } else {
            self.pop_slow()
        }
    }

    /// [`Tape::pop_raw`] in full: read-reordered tapes and the empty-tape
    /// panic end up here.
    #[inline(never)]
    fn pop_slow(&mut self) -> u64 {
        self.total_popped += 1;
        if let Some((rate, sw)) = self.read_reorder {
            let block = rate * sw;
            let phys = column_major_index(self.read_block_pos, rate, sw);
            let v = self.at(self.read + phys);
            self.read_block_pos += 1;
            if self.read_block_pos == block {
                self.read_block_pos = 0;
                self.read += block;
            }
            return v;
        }
        assert!(self.committed_end > self.read, "pop from empty tape");
        let v = self.buf[self.read & self.mask];
        self.read += 1;
        v
    }

    /// Pop `n` elements in stream order, handed to `sink` as spans of
    /// images: the one or two ring slices they occupy on a plain tape, one
    /// at a time through the remapping on a read-reordered one.
    ///
    /// # Panics
    /// Panics if fewer than `n` are committed.
    #[inline]
    pub fn pop_spans(&mut self, n: usize, mut sink: impl FnMut(&[u64])) {
        if self.read_reorder.is_some() {
            return (0..n).for_each(|_| sink(&[self.pop_slow()]));
        }
        let (a, b) = self.vpop_slices(n);
        sink(a);
        if !b.is_empty() {
            sink(b);
        }
    }

    /// Non-destructive read `off` elements past the read pointer.
    pub fn peek(&self, off: usize) -> Value {
        value_of(self.elem, self.peek_raw(off))
    }

    /// [`Tape::peek`] as a register image.
    #[inline]
    pub fn peek_raw(&self, off: usize) -> u64 {
        if let Some((rate, sw)) = self.read_reorder {
            let phys = column_major_index(self.read_block_pos + off, rate, sw);
            return self.at(self.read + phys);
        }
        assert!(
            off < self.len(),
            "peek({off}) beyond committed {}",
            self.len()
        );
        self.buf[(self.read + off) & self.mask]
    }

    /// Advance the read pointer by `n` (elements were consumed logically by
    /// strided peeks).
    pub fn advance_read(&mut self, n: usize) {
        self.total_popped += n as u64;
        if let Some((rate, sw)) = self.read_reorder {
            let block = rate * sw;
            self.read_block_pos += n;
            while self.read_block_pos >= block {
                self.read_block_pos -= block;
                self.read += block;
            }
            return;
        }
        assert!(
            n <= self.len(),
            "advance_read({n}) beyond committed {}",
            self.len()
        );
        self.read += n;
    }

    /// Pop `w` contiguous elements as a vector.
    pub fn vpop(&mut self, w: usize) -> Vec<Value> {
        span_values(self.elem, self.vpop_slices(w))
    }

    /// Pop `w` contiguous elements, returned as at most two contiguous
    /// slices of the ring (counters and the read pointer are updated
    /// before the borrows are handed out).
    ///
    /// # Panics
    /// Panics like [`Tape::vpop`].
    #[inline]
    pub fn vpop_slices(&mut self, w: usize) -> (&[u64], &[u64]) {
        assert!(self.read_reorder.is_none(), "vpop on a read-reordered tape");
        assert!(w <= self.len(), "vpop({w}) beyond committed {}", self.len());
        self.total_popped += w as u64;
        let start = self.read;
        self.read += w;
        self.ring_slices(start, w)
    }

    /// Non-destructive read of `w` contiguous elements at scalar offset
    /// `off`.
    pub fn vpeek(&self, off: usize, w: usize) -> Vec<Value> {
        span_values(self.elem, self.vpeek_slices(off, w))
    }

    /// [`Tape::vpeek`] as at most two contiguous ring slices.
    ///
    /// # Panics
    /// Panics like [`Tape::vpeek`].
    #[inline]
    pub fn vpeek_slices(&self, off: usize, w: usize) -> (&[u64], &[u64]) {
        assert!(
            self.read_reorder.is_none(),
            "vpeek on a read-reordered tape"
        );
        assert!(
            self.read + off + w <= self.filled_end,
            "vpeek beyond buffer"
        );
        self.ring_slices(self.read + off, w)
    }

    /// The `w` elements starting at absolute index `start`, as one or two
    /// contiguous slices (two when the span wraps the ring boundary).
    #[inline]
    fn ring_slices(&self, start: usize, w: usize) -> (&[u64], &[u64]) {
        if w == 0 {
            return (&[], &[]);
        }
        let s = start & self.mask;
        let first = w.min(self.buf.len() - s);
        let (a, b) = (&self.buf[s..s + first], &self.buf[..w - first]);
        debug_assert_eq!(a.len() + b.len(), w, "ring slices must cover w");
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(x: i32) -> Value {
        Value::I32(x)
    }

    fn raw(x: i32) -> u64 {
        raw_of(iv(x))
    }

    #[test]
    fn fifo_order() {
        let mut t = Tape::new(ScalarTy::I32);
        for i in 0..5 {
            t.push(iv(i));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.peek(3), iv(3));
        for i in 0..5 {
            assert_eq!(t.pop(), iv(i));
        }
        assert!(t.is_empty());
        assert_eq!(t.stats(), (5, 5));
    }

    #[test]
    fn rpush_then_advance() {
        // The SIMDized-actor pattern: 3 rpushes + 1 push per lane set,
        // then advance_write over the strided region.
        let mut t = Tape::new(ScalarTy::I32);
        // Writes of Figure 3b for q=2, SW=4: r0 lanes at offsets 6,4,2,push;
        // r1 lanes at offsets 6,4,2,push; then advance 6.
        t.rpush(iv(6), 6);
        t.rpush(iv(4), 4);
        t.rpush(iv(2), 2);
        t.push(iv(0));
        t.rpush(iv(7), 6);
        t.rpush(iv(5), 4);
        t.rpush(iv(3), 2);
        t.push(iv(1));
        t.advance_write(6);
        assert_eq!(t.len(), 8);
        let got: Vec<Value> = (0..8).map(|_| t.pop()).collect();
        assert_eq!(got, (0..8).map(iv).collect::<Vec<_>>());
    }

    #[test]
    fn advance_write_of_nothing_is_a_no_op() {
        // `committed_end + 0 - 1` underflowed on a tape still at 0, and
        // in release zero-filled over the staged slot.
        let mut t = Tape::new(ScalarTy::I32);
        t.rpush(iv(5), 2);
        t.advance_write(0);
        assert_eq!((t.len(), t.stats()), (0, (1, 0)));
        t.advance_write(3);
        assert_eq!(t.vpop(3), vec![iv(0), iv(0), iv(5)]);
    }

    #[test]
    fn vector_ops_roundtrip() {
        let mut t = Tape::new(ScalarTy::I32);
        t.vpush(&[iv(1), iv(2), iv(3), iv(4)]);
        assert_eq!(t.vpeek(1, 2), vec![iv(2), iv(3)]);
        assert_eq!(t.vpop(4), vec![iv(1), iv(2), iv(3), iv(4)]);
    }

    #[test]
    fn read_reorder_recovers_logical_order() {
        // Producer is vectorized with rate 3, SW 4: its 4 parallel firings
        // push rows [e0 e3 e6 e9][e1 e4 e7 e10][e2 e5 e8 e11] — i.e. vector
        // i holds lanes' i-th pushes. Consumer must read e0..e11.
        let mut t = Tape::new(ScalarTy::I32);
        t.set_read_reorder(3, 4);
        // Physical layout written by 3 vpushes: row i lane j = element j*3+i.
        for i in 0..3 {
            let row: Vec<Value> = (0..4).map(|j| iv(j * 3 + i)).collect();
            t.vpush(&row);
        }
        let got: Vec<Value> = (0..12).map(|_| t.pop()).collect();
        assert_eq!(got, (0..12).map(iv).collect::<Vec<_>>());
        assert!(t.is_empty());
    }

    #[test]
    fn read_reorder_peek() {
        let mut t = Tape::new(ScalarTy::I32);
        t.set_read_reorder(2, 4);
        for i in 0..2 {
            let row: Vec<Value> = (0..4).map(|j| iv(j * 2 + i)).collect();
            t.vpush(&row);
        }
        assert_eq!(t.peek(0), iv(0));
        assert_eq!(t.peek(5), iv(5));
        assert_eq!(t.pop(), iv(0));
        assert_eq!(t.peek(0), iv(1));
    }

    #[test]
    fn write_reorder_produces_vector_layout() {
        // Scalar producer pushes e0..e11; vectorized consumer with rate 3,
        // SW 4 vpops rows whose lane j is element j*3+i.
        let mut t = Tape::new(ScalarTy::I32);
        t.set_write_reorder(3, 4);
        for k in 0..12 {
            t.push(iv(k));
        }
        for i in 0..3 {
            let want: Vec<Value> = (0..4).map(|j| iv(j * 3 + i)).collect();
            assert_eq!(t.vpop(4), want, "row {i}");
        }
    }

    #[test]
    fn write_reorder_commits_only_full_blocks() {
        let mut t = Tape::new(ScalarTy::I32);
        t.set_write_reorder(2, 4);
        for k in 0..7 {
            t.push(iv(k));
        }
        assert_eq!(t.len(), 0, "partial block must not be visible");
        t.push(iv(7));
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn advance_read_under_reorder() {
        let mut t = Tape::new(ScalarTy::I32);
        t.set_read_reorder(2, 4);
        for i in 0..2 {
            let row: Vec<Value> = (0..4).map(|j| iv(j * 2 + i)).collect();
            t.vpush(&row);
        }
        // Strided-peek consumption: peek ahead, then advance.
        assert_eq!(t.peek(2), iv(2));
        t.advance_read(8);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "pop from empty tape")]
    fn pop_empty_panics() {
        let mut t = Tape::new(ScalarTy::F32);
        let _ = t.pop();
    }

    #[test]
    #[should_panic(expected = "cannot reorder both ends")]
    fn double_reorder_rejected() {
        let mut t = Tape::new(ScalarTy::F32);
        t.set_read_reorder(2, 4);
        t.set_write_reorder(2, 4);
    }

    #[test]
    fn ring_wraps_without_growing() {
        // Interleaved push/pop far beyond the initial capacity must stay
        // FIFO-correct while the absolute pointers wrap the ring mask.
        let mut t = Tape::new(ScalarTy::I32);
        for i in 0..4 {
            t.push(iv(i));
        }
        for i in 4..1000 {
            t.push(iv(i));
            assert_eq!(t.pop(), iv(i - 4));
            assert_eq!(t.len(), 4);
        }
        for i in 996..1000 {
            assert_eq!(t.pop(), iv(i));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn slice_fast_paths_match_vec_paths() {
        let mut t = Tape::new(ScalarTy::I32);
        // Rotate the read pointer so the vector spans wrap.
        for i in 0..6 {
            t.push(iv(i));
        }
        for _ in 0..5 {
            t.pop();
        }
        for i in 6..12 {
            t.push(iv(i));
        }
        let (a, b) = t.vpeek_slices(1, 4);
        assert_eq!(span_values(ScalarTy::I32, (a, b)), t.vpeek(1, 4));
        let want = t.vpeek(0, 7);
        let (a, b) = t.vpop_slices(7);
        assert_eq!(span_values(ScalarTy::I32, (a, b)), want);
        assert!(t.is_empty());
    }

    #[test]
    fn push_slice_matches_push_across_wrap_and_growth() {
        let mut a = Tape::new(ScalarTy::I32);
        let mut b = Tape::new(ScalarTy::I32);
        let vals: Vec<Value> = (0..40).map(iv).collect();
        let raws: Vec<u64> = (0..40).map(raw).collect();
        // Empty span on an unallocated tape, then spans that wrap the
        // 8-slot ring and one that outgrows it.
        b.push_slice(&[]);
        for (lo, hi, pops) in [(0, 6, 5), (6, 12, 3), (12, 40, 0)] {
            vals[lo..hi].iter().for_each(|&v| a.push(v));
            b.push_slice(&raws[lo..hi]);
            for _ in 0..pops {
                assert_eq!(a.pop(), b.pop());
            }
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.vpop(a.len()), b.vpop(b.len()));
    }

    #[test]
    fn rollback_restores_either_side_of_a_plain_tape() {
        let mut t = Tape::new(ScalarTy::I32);
        (0..4).for_each(|i| t.push(iv(i)));
        let m = t.mark();
        // A consumer's firings: pops only.
        assert_eq!((t.pop(), t.pop()), (iv(0), iv(1)));
        t.rollback(&m);
        assert_eq!((t.len(), t.stats()), (4, (4, 0)));
        // A producer's firings: pushes only.
        (10..13).for_each(|i| t.push(iv(i)));
        t.rollback(&m);
        assert_eq!((t.len(), t.stats()), (4, (4, 0)));
        t.push(iv(4));
        assert_eq!(t.vpop(5), (0..5).map(iv).collect::<Vec<_>>());
    }

    #[test]
    fn rollback_rezeroes_an_rpush_gap() {
        let mut t = Tape::new(ScalarTy::I32);
        t.push(iv(7));
        let m = t.mark();
        // The abandoned firing staged a value three slots ahead.
        t.rpush(iv(9), 3);
        t.push(iv(1));
        t.rollback(&m);
        assert_eq!((t.len(), t.stats()), (1, (1, 0)));
        // The retry stages nothing there: the slot must read zero again.
        t.push(iv(1));
        t.advance_write(3);
        assert_eq!(t.vpop(5), vec![iv(7), iv(1), iv(0), iv(0), iv(0)]);
    }

    /// A write-reordered tape (block 8) that had `before` pushes at the
    /// mark, then `torn` pushes that are rolled back, then the rest of
    /// `total`: must equal one that was pushed `0..total` undisturbed.
    fn write_reorder_rollback_case(before: i32, torn: i32, total: i32) {
        let mut want = Tape::new(ScalarTy::I32);
        want.set_write_reorder(2, 4);
        (0..total).for_each(|i| want.push(iv(i)));

        let mut t = Tape::new(ScalarTy::I32);
        t.set_write_reorder(2, 4);
        (0..before).for_each(|i| t.push(iv(i)));
        let m = t.mark();
        (0..torn).for_each(|i| t.push(iv(1000 + i)));
        t.rollback(&m);
        assert_eq!(t.len(), (before as usize / 8) * 8);
        (before..total).for_each(|i| t.push(iv(i)));
        assert_eq!(t.stats(), want.stats());
        assert_eq!(t.vpop(t.len()), want.vpop(want.len()));
    }

    #[test]
    fn rollback_of_a_write_reorder_block_left_partial() {
        write_reorder_rollback_case(3, 2, 16);
    }

    #[test]
    fn rollback_of_a_write_reorder_block_completed_mid_firing() {
        // 8 torn pushes complete the block and then overwrite exactly the
        // three staged entries from before the mark.
        write_reorder_rollback_case(3, 8, 16);
        // Three blocks committed since the mark (and the ring regrown).
        write_reorder_rollback_case(11, 24, 24);
    }

    /// A block's firings write from a recorded position; one of them fails
    /// mid-write. Unwriting to the position plus what the completed ones
    /// wrote keeps exactly their tokens, plain or write-reordered, with
    /// the failed firing's writes inside, completing or past a block.
    #[test]
    fn unwrite_to_keeps_what_the_completed_firings_wrote() {
        for reorder in [false, true] {
            for (start, kept, torn) in [(0, 0, 3), (3, 4, 2), (3, 5, 8), (11, 13, 24)] {
                let tape = || {
                    let mut t = Tape::new(ScalarTy::I32);
                    if reorder {
                        t.set_write_reorder(2, 4);
                    }
                    t
                };
                let (mut t, mut want) = (tape(), tape());
                (0..start).for_each(|i| t.push(iv(i)));
                let at = t.written();
                (start..start + kept).for_each(|i| t.push(iv(i)));
                (0..torn).for_each(|i| t.push(iv(1000 + i)));
                t.unwrite_to(at + kept as usize);
                t.unwrite_to(t.written() + 5);
                (0..40).for_each(|i| want.push(iv(i)));
                (start + kept..40).for_each(|i| t.push(iv(i)));
                let ctx = format!("reorder {reorder}, {start} + {kept} + {torn}");
                assert_eq!(t.stats(), want.stats(), "{ctx}");
                assert_eq!(t.vpop(t.len()), want.vpop(want.len()), "{ctx}");
            }
        }
    }

    #[test]
    fn rollback_survives_ring_growth() {
        let mut t = Tape::new(ScalarTy::I32);
        (0..6).for_each(|i| t.push(iv(i)));
        t.pop();
        t.pop();
        let m = t.mark();
        // 100 pushes outgrow the 8-slot ring twice over.
        (0..100).for_each(|i| t.push(iv(100 + i)));
        t.rollback(&m);
        assert_eq!((t.len(), t.stats()), (4, (6, 2)));
        t.push(iv(6));
        assert_eq!(t.vpop(5), (2..7).map(iv).collect::<Vec<_>>());
    }

    /// Everything two tapes driven by the same calls must agree on: the
    /// pointers, the statistics, the ring itself and the staging block.
    fn same_state(a: &Tape, b: &Tape, what: &str) {
        let key = |t: &Tape| {
            (
                (t.read, t.committed_end, t.filled_end, t.mask),
                (t.read_block_pos, t.write_block_pos),
                (t.total_pushed, t.total_popped),
                (t.buf.clone(), t.write_stage.clone()),
            )
        };
        assert_eq!(key(a), key(b), "{what}");
    }

    /// Drive `fast` through `push`/`pop` and `slow` through the full
    /// bodies they fall back to, under one seeded call sequence, and
    /// require identical state after every call. `rpush`-staged gaps,
    /// ring growth, vector transfers and `mark`/`rollback` around runs of
    /// pushes or pops are all in the mix; `block` is the reorder block
    /// (1 for a plain tape).
    fn push_pop_paths_agree(mut fast: Tape, mut slow: Tape, block: usize, seed: u64) {
        let plain_write = fast.write_reorder.is_none();
        let plain_read = fast.read_reorder.is_none();
        let mut x = seed | 1;
        let mut rnd = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let mut next = 0i32;
        // A pending mark and whether pushes (true) or pops (false) may
        // follow it: a rollback undoes one kind, never a mix.
        let mut marked: Option<(TapeMark, TapeMark, bool)> = None;
        for step in 0..4000 {
            let what = format!("seed {seed} step {step}");
            let may_push = marked.as_ref().is_none_or(|m| m.2);
            let may_pop = marked.as_ref().is_none_or(|m| !m.2);
            // A read-reordered pop addresses its whole block.
            let poppable = fast.len() >= block.max(1) && may_pop;
            match rnd(10) {
                0..=3 if may_push => {
                    next += 1;
                    fast.push(iv(next));
                    slow.push_slow(raw(next));
                }
                4 | 5 if poppable => assert_eq!(fast.pop_raw(), slow.pop_slow(), "{what}"),
                6 if may_push && plain_write => {
                    // Stage a gap, sometimes commit it: the next pushes
                    // must fill, not overwrite.
                    next += 1;
                    let off = 1 + rnd(5);
                    fast.rpush(iv(next), off);
                    slow.rpush(iv(next), off);
                    if rnd(2) == 0 {
                        let n = rnd(off + 2);
                        fast.advance_write(n);
                        slow.advance_write(n);
                    }
                }
                7 if may_push && plain_write => {
                    let w = rnd(6);
                    let base = next;
                    next += w as i32;
                    fast.vpush_many(w, |k| raw(base + 1 + k as i32));
                    slow.vpush_many(w, |k| raw(base + 1 + k as i32));
                }
                8 if may_pop && plain_read => {
                    let w = rnd(fast.len() + 1);
                    assert_eq!(fast.vpop(w), slow.vpop(w), "{what}");
                }
                9 => match marked.take() {
                    Some((mf, ms, _)) if rnd(2) == 0 => {
                        fast.rollback(&mf);
                        slow.rollback(&ms);
                    }
                    Some(_) => {}
                    None => marked = Some((fast.mark(), slow.mark(), rnd(2) == 0)),
                },
                _ => {}
            }
            same_state(&fast, &slow, &what);
        }
        assert!(fast.stats().0 > 500, "the mix must actually push");
    }

    #[test]
    fn push_fast_path_matches_the_full_path_on_plain_tapes() {
        for seed in [1, 7, 99, 2026] {
            let t = Tape::new(ScalarTy::I32);
            push_pop_paths_agree(t.clone(), t, 1, seed);
        }
    }

    #[test]
    fn push_fast_path_matches_the_full_path_on_reordered_tapes() {
        for seed in [3, 11, 404] {
            let mut w = Tape::new(ScalarTy::I32);
            w.set_write_reorder(2, 4);
            push_pop_paths_agree(w.clone(), w, 1, seed);
            let mut r = Tape::new(ScalarTy::I32);
            r.set_read_reorder(3, 4);
            push_pop_paths_agree(r.clone(), r, 12, seed);
        }
    }

    #[test]
    fn push_fast_path_hands_over_exactly_at_capacity() {
        // Pushes 1..=8 land on the fast path once the ring exists, the
        // 9th finds it full and must grow it; both tapes see the same.
        let (mut fast, mut slow) = (Tape::new(ScalarTy::I32), Tape::new(ScalarTy::I32));
        for i in 0..40 {
            fast.push(iv(i));
            slow.push_slow(raw(i));
            same_state(&fast, &slow, &format!("push {i}"));
            if i % 5 == 4 {
                assert_eq!(fast.pop_raw(), slow.pop_slow());
            }
        }
        assert_eq!(fast.buf.len(), 64);
    }

    #[test]
    fn vpush_many_matches_vpush() {
        let mut t = Tape::new(ScalarTy::I32);
        t.vpush_many(4, |lane| raw(lane as i32 * 10));
        assert_eq!(t.vpop(4), vec![iv(0), iv(10), iv(20), iv(30)]);
        assert_eq!(t.stats(), (4, 4));
    }
}
