//! Bounded lock-free SPSC ring buffer: the inter-core tape segment.
//!
//! One producer worker and one consumer worker share a ring per cut edge.
//! A slot holds a token's register image (`macross_vm::tape::raw_of`), the
//! same 8 bytes the tape halves on either side hold, so a token crosses
//! cores by copy, never by conversion. The data path is wait-free on both sides — a single release store of
//! the head or tail index publishes a whole batch (one firing's worth of
//! elements). Head and tail live on separate cache lines so the producer
//! and consumer don't false-share. When the ring is full (producer) or
//! empty (consumer), the stalled side waits in three phases bounded by
//! elapsed time — spin, then yield the core, then park (see
//! `SPIN_FOR`); the peer unparks it on the next batch. Parks use a
//! timeout so an abort raised by a failing worker is always noticed.

use macross_telemetry::{EventKind, WorkerTrace};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Bucket count of the occupancy histogram kept per ring.
pub const OCC_BUCKETS: usize = 8;

/// The run was aborted by another worker while this one was blocked on a
/// ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

/// Pad to a cache line so head and tail never share one.
#[repr(align(64))]
struct CachePadded<T>(T);

/// How long a stalled side busy-waits before it starts yielding. The
/// phases are bounded by the clock, not by an iteration count: one
/// `spin_loop` is a `pause`, whose latency differs by about 10x between
/// x86 generations, so a count means a different wait on every host.
/// A peer that is merely finishing a firing publishes within this.
const SPIN_FOR: Duration = Duration::from_micros(4);
/// How long it then yields the core between polls before it parks. With
/// more runnable workers than cores this is what lets the peer it waits
/// for run; with a core to itself it is a slower spin. Parking halts the
/// (virtual) CPU and the wake-up costs tens of microseconds on both
/// sides, so it pays only for waits well beyond that.
const YIELD_FOR: Duration = Duration::from_micros(120);
/// Park timeout — bounds abort-detection latency if an unpark is lost.
const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// The side of a ring that is waiting on its peer.
#[derive(Clone, Copy)]
enum Side {
    Producer,
    Consumer,
}

/// Bounded single-producer single-consumer ring of tape elements.
pub struct Ring {
    buf: Box<[UnsafeCell<u64>]>,
    mask: usize,
    /// The cut edge this ring carries (trace subject; 0 when standalone).
    edge: u32,
    /// Next slot the consumer reads. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer writes. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
    /// Times the producer found the ring full and had to wait.
    full_stalls: AtomicU64,
    /// Times the consumer found the ring empty and had to wait.
    empty_stalls: AtomicU64,
    /// Nanoseconds the producer spent waiting for space.
    full_stall_nanos: AtomicU64,
    /// Nanoseconds the consumer spent waiting for data.
    empty_stall_nanos: AtomicU64,
    /// Waits of the producer that reached `park_timeout`.
    full_parks: AtomicU64,
    /// Waits of the consumer that reached `park_timeout`.
    empty_parks: AtomicU64,
    /// Highest occupancy ever observed at a publish point. Like
    /// `occ_hist`, written only by the producer.
    high_water: AtomicUsize,
    /// Occupancy histogram, one sample per published batch; bucket `i`
    /// covers occupancies in `[i, i+1) * capacity / OCC_BUCKETS`.
    occ_hist: [AtomicU64; OCC_BUCKETS],
    producer_parked: AtomicBool,
    consumer_parked: AtomicBool,
    producer: Mutex<Option<Thread>>,
    consumer: Mutex<Option<Thread>>,
    /// Fault injection: unparks left to swallow ([`Ring::arm_unpark_drops`]).
    /// Normally 0, in which case the wake paths pay a single relaxed load.
    unpark_drops: AtomicU64,
    /// Unparks actually swallowed (observability for the fault tests).
    unparks_dropped: AtomicU64,
}

// SAFETY: slots are only written by the producer between `tail` publication
// points and only read by the consumer below the published `tail`; the
// acquire/release pair on head/tail orders the accesses.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    /// A ring with at least `capacity` slots (rounded up to a power of
    /// two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Ring {
        Ring::for_edge(0, capacity)
    }

    /// Like [`Ring::with_capacity`], tagged with the cut edge it carries
    /// so trace events and ring stats can name it.
    pub fn for_edge(edge: u32, capacity: usize) -> Ring {
        let cap = capacity.max(8).next_power_of_two();
        let buf: Vec<UnsafeCell<u64>> = (0..cap).map(|_| UnsafeCell::new(0)).collect();
        Ring {
            buf: buf.into_boxed_slice(),
            mask: cap - 1,
            edge,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            full_stalls: AtomicU64::new(0),
            empty_stalls: AtomicU64::new(0),
            full_stall_nanos: AtomicU64::new(0),
            empty_stall_nanos: AtomicU64::new(0),
            full_parks: AtomicU64::new(0),
            empty_parks: AtomicU64::new(0),
            high_water: AtomicUsize::new(0),
            occ_hist: Default::default(),
            producer_parked: AtomicBool::new(false),
            consumer_parked: AtomicBool::new(false),
            producer: Mutex::new(None),
            consumer: Mutex::new(None),
            unpark_drops: AtomicU64::new(0),
            unparks_dropped: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The cut edge this ring was built for.
    pub fn edge(&self) -> u32 {
        self.edge
    }

    /// Register the calling thread as the producer (for unpark).
    pub fn register_producer(&self) {
        *self.producer.lock().unwrap() = Some(std::thread::current());
    }

    /// Register the calling thread as the consumer (for unpark).
    pub fn register_consumer(&self) {
        *self.consumer.lock().unwrap() = Some(std::thread::current());
    }

    /// Times the producer found the ring full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls.load(Ordering::Relaxed)
    }

    /// Times the consumer found the ring empty.
    pub fn empty_stalls(&self) -> u64 {
        self.empty_stalls.load(Ordering::Relaxed)
    }

    /// Nanoseconds the producer spent waiting for space.
    pub fn full_stall_nanos(&self) -> u64 {
        self.full_stall_nanos.load(Ordering::Relaxed)
    }

    /// Nanoseconds the consumer spent waiting for data.
    pub fn empty_stall_nanos(&self) -> u64 {
        self.empty_stall_nanos.load(Ordering::Relaxed)
    }

    /// Producer waits that reached `park_timeout` — the stalls that
    /// halted the core instead of being resolved by spinning.
    pub fn full_parks(&self) -> u64 {
        self.full_parks.load(Ordering::Relaxed)
    }

    /// Consumer waits that reached `park_timeout`.
    pub fn empty_parks(&self) -> u64 {
        self.empty_parks.load(Ordering::Relaxed)
    }

    /// Highest occupancy observed at any publish point.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Occupancy histogram snapshot (one sample per published batch).
    pub fn occupancy_hist(&self) -> [u64; OCC_BUCKETS] {
        std::array::from_fn(|i| self.occ_hist[i].load(Ordering::Relaxed))
    }

    /// One occupancy sample at a publish point. Only the producer
    /// publishes, so both statistics have a single writer and a plain
    /// load and store keep them exact without a read-modify-write.
    fn sample_occupancy(&self, occupied: usize) {
        if occupied > self.high_water.load(Ordering::Relaxed) {
            self.high_water.store(occupied, Ordering::Relaxed);
        }
        let bucket = (occupied * OCC_BUCKETS / self.capacity()).min(OCC_BUCKETS - 1);
        let seen = self.occ_hist[bucket].load(Ordering::Relaxed);
        self.occ_hist[bucket].store(seen + 1, Ordering::Relaxed);
    }

    /// Copy `vals` into the slots starting at absolute index `at`.
    ///
    /// # Safety
    /// The caller is the producer and `[at, at + vals.len())` lies in the
    /// unpublished region `[tail, head + capacity)`.
    unsafe fn write_slots(&self, at: usize, vals: &[u64]) {
        let s = at & self.mask;
        let first = vals.len().min(self.capacity() - s);
        let base = UnsafeCell::raw_get(self.buf.as_ptr());
        std::ptr::copy_nonoverlapping(vals.as_ptr(), base.add(s), first);
        std::ptr::copy_nonoverlapping(vals.as_ptr().add(first), base, vals.len() - first);
    }

    /// The `n` slots starting at absolute index `at`, as one or two
    /// slices (two when the span wraps the ring boundary).
    ///
    /// # Safety
    /// The caller is the consumer, `[at, at + n)` lies in the published
    /// region `[head, tail)`, and the slices are dropped before `head`
    /// advances past them.
    unsafe fn read_slots(&self, at: usize, n: usize) -> (&[u64], &[u64]) {
        let s = at & self.mask;
        let first = n.min(self.capacity() - s);
        let base = UnsafeCell::raw_get(self.buf.as_ptr()) as *const u64;
        (
            std::slice::from_raw_parts(base.add(s), first),
            std::slice::from_raw_parts(base, n - first),
        )
    }

    /// Fault injection: swallow the next `n` unparks this ring would have
    /// delivered (either side). The peer's park timeout bounds the extra
    /// latency, so a run under this fault must still complete — the
    /// property the fault differential suite pins down.
    pub fn arm_unpark_drops(&self, n: u64) {
        self.unpark_drops.fetch_add(n, Ordering::Relaxed);
    }

    /// Unparks actually swallowed so far.
    pub fn unparks_dropped(&self) -> u64 {
        self.unparks_dropped.load(Ordering::Relaxed)
    }

    /// True when an armed drop consumed this wakeup.
    fn take_unpark_drop(&self) -> bool {
        if self.unpark_drops.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let took = self
            .unpark_drops
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok();
        if took {
            self.unparks_dropped.fetch_add(1, Ordering::Relaxed);
        }
        took
    }

    /// Wake the consumer if it announced a park. Called after the `tail`
    /// store of a publish; pairs with the announcement in [`Ring::wait`]:
    /// both are sequentially consistent read-modify-writes of the flag, so
    /// one of them reads the other's value. Either this swap reads `true`
    /// and unparks (the token outlives a park not yet begun), or the
    /// announcement reads this swap's `false`, which orders the index
    /// store before the waiter's second look. With a plain store for the
    /// announcement both sides could miss each other (store buffering),
    /// and the waiter slept a whole `PARK_TIMEOUT` on a ready ring.
    fn wake_consumer(&self) {
        if self.consumer_parked.swap(false, Ordering::SeqCst) {
            if self.take_unpark_drop() {
                return;
            }
            if let Some(t) = self.consumer.lock().unwrap().as_ref() {
                t.unpark();
            }
        }
    }

    /// [`Ring::wake_consumer`]'s mirror image, after the `head` store of
    /// a pop.
    fn wake_producer(&self) {
        if self.producer_parked.swap(false, Ordering::SeqCst) {
            if self.take_unpark_drop() {
                return;
            }
            if let Some(t) = self.producer.lock().unwrap().as_ref() {
                t.unpark();
            }
        }
    }

    /// Producer: append all of `vals`, in chunks as space frees up.
    /// Deadlock-free for any capacity — the consumer always drains what is
    /// visible before it waits, so space eventually appears.
    ///
    /// # Errors
    /// Returns [`Aborted`] if `abort` is raised while waiting for space.
    pub fn push_batch(&self, vals: &[u64], abort: &AtomicBool) -> Result<(), Aborted> {
        self.push_batch_traced(vals, abort, &WorkerTrace::disabled())
    }

    /// [`Ring::push_batch`] with a trace handle: full-ring stalls are
    /// recorded as `RingPushStallBegin`/`End` spans on the producer's
    /// timeline (subject = this ring's edge).
    ///
    /// # Errors
    /// Returns [`Aborted`] if `abort` is raised while waiting for space.
    pub fn push_batch_traced(
        &self,
        vals: &[u64],
        abort: &AtomicBool,
        trace: &WorkerTrace,
    ) -> Result<(), Aborted> {
        let mut written = 0;
        while written < vals.len() {
            let n = self.push_avail(&vals[written..]);
            written += n;
            if n == 0 {
                self.full_stalls.fetch_add(1, Ordering::Relaxed);
                trace.record(EventKind::RingPushStallBegin, self.edge, 0);
                let waited = Instant::now();
                let res = self.wait(Side::Producer, abort, trace);
                let ns = waited.elapsed().as_nanos() as u64;
                self.full_stall_nanos.fetch_add(ns, Ordering::Relaxed);
                trace.record(EventKind::RingPushStallEnd, self.edge, ns);
                res?;
            }
        }
        Ok(())
    }

    /// Producer: append as many of `vals` as currently fit, without
    /// blocking, and publish them with one release store. Returns how
    /// many were written. Used directly by the drain after a failure,
    /// where a full ring whose consumer is gone must not wedge the
    /// draining worker.
    pub fn push_avail(&self, vals: &[u64]) -> usize {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        let n = (self.capacity() - (tail - head)).min(vals.len());
        if n == 0 {
            return 0;
        }
        // SAFETY: this is the producer, and `n` is at most the free space
        // past `tail`, so the slots are unpublished.
        unsafe { self.write_slots(tail, &vals[..n]) };
        self.tail.0.store(tail + n, Ordering::Release);
        // `head` is a snapshot, so this occupancy is an upper bound;
        // good enough for a histogram and exact for the high-water.
        self.sample_occupancy(tail + n - head);
        self.wake_consumer();
        n
    }

    /// Consumer: hand up to `max` available elements to `sink` as one or
    /// two slices of the ring (two when the span wraps), in order,
    /// without blocking. Returns how many were taken.
    pub fn pop_spans(&self, max: usize, sink: impl FnOnce(&[u64], &[u64])) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Relaxed);
        let avail = (tail - head).min(max);
        if avail > 0 {
            // SAFETY: this is the consumer, slots in [head, tail) are
            // published and not written again until the head advances
            // past them, which happens after `sink` returned.
            let (a, b) = unsafe { self.read_slots(head, avail) };
            sink(a, b);
            self.head.0.store(head + avail, Ordering::Release);
            self.wake_producer();
        }
        avail
    }

    /// [`Ring::pop_spans`], one element at a time.
    pub fn pop_avail(&self, mut sink: impl FnMut(u64), max: usize) -> usize {
        self.pop_spans(max, |a, b| a.iter().chain(b).for_each(|&v| sink(v)))
    }

    /// Consumer: block until at least one element is visible, counted and
    /// timed as one empty-ring stall.
    ///
    /// # Errors
    /// Returns [`Aborted`] if `abort` is raised while waiting.
    pub fn wait_nonempty(&self, abort: &AtomicBool) -> Result<(), Aborted> {
        let trace = WorkerTrace::disabled();
        let since = self.begin_empty_stall(&trace);
        let res = self.wait_nonempty_quiet(abort, &trace);
        self.end_empty_stall(since, &trace);
        res
    }

    /// Open a consumer-side stall interval: count one empty-ring stall and
    /// emit the trace span begin. Pair with [`Ring::end_empty_stall`]; any
    /// number of [`Ring::wait_nonempty_quiet`] calls may happen in between
    /// without the interval double-counting — the protocol `ensure_inputs`
    /// uses so one insufficient-input episode is exactly one stall, no
    /// matter how many partial arrivals or spurious wakeups it spans.
    pub fn begin_empty_stall(&self, trace: &WorkerTrace) -> Instant {
        self.empty_stalls.fetch_add(1, Ordering::Relaxed);
        trace.record(EventKind::RingPopStallBegin, self.edge, 0);
        Instant::now()
    }

    /// Close a stall interval opened by [`Ring::begin_empty_stall`],
    /// attributing the whole elapsed wall time to this ring.
    pub fn end_empty_stall(&self, since: Instant, trace: &WorkerTrace) {
        let ns = since.elapsed().as_nanos() as u64;
        self.empty_stall_nanos.fetch_add(ns, Ordering::Relaxed);
        trace.record(EventKind::RingPopStallEnd, self.edge, ns);
    }

    /// [`Ring::wait_nonempty`] without opening a stall interval: park and
    /// unpark events are still traced, but the stall counters and nanos
    /// are untouched — the caller owns the interval through
    /// [`Ring::begin_empty_stall`] / [`Ring::end_empty_stall`].
    ///
    /// # Errors
    /// Returns [`Aborted`] if `abort` is raised while waiting.
    pub fn wait_nonempty_quiet(
        &self,
        abort: &AtomicBool,
        trace: &WorkerTrace,
    ) -> Result<(), Aborted> {
        self.wait(Side::Consumer, abort, trace)
    }

    /// Block `side` until its peer has moved — the consumer freed a slot
    /// of a full ring, or the producer published into an empty one — in
    /// three phases bounded by elapsed time: spin for [`SPIN_FOR`], yield
    /// the core between polls until [`YIELD_FOR`], then park (counted in
    /// `full_parks` / `empty_parks`) until the peer's next publish
    /// unparks it or [`PARK_TIMEOUT`] passes.
    fn wait(&self, side: Side, abort: &AtomicBool, trace: &WorkerTrace) -> Result<(), Aborted> {
        // The waiting side's own index cannot move while it waits.
        let (mine, parked, parks) = match side {
            Side::Producer => (
                self.tail.0.load(Ordering::Relaxed),
                &self.producer_parked,
                &self.full_parks,
            ),
            Side::Consumer => (
                self.head.0.load(Ordering::Relaxed),
                &self.consumer_parked,
                &self.empty_parks,
            ),
        };
        let ready = || match side {
            Side::Producer => mine - self.head.0.load(Ordering::Acquire) < self.capacity(),
            Side::Consumer => self.tail.0.load(Ordering::Acquire) != mine,
        };
        let since = Instant::now();
        loop {
            if ready() {
                return Ok(());
            }
            if abort.load(Ordering::Relaxed) {
                return Err(Aborted);
            }
            let waited = since.elapsed();
            if waited < SPIN_FOR {
                std::hint::spin_loop();
            } else if waited < YIELD_FOR {
                std::thread::yield_now();
            } else {
                // Announce, then look once more: a publish that landed
                // before the announcement saw no one to wake. The
                // announcement is a read-modify-write, not a store, so
                // that the second look cannot pass it: it either reads the
                // peer's `wake_*` swap, and then sees the index that swap
                // followed, or precedes it, and then the peer unparks us.
                parked.swap(true, Ordering::SeqCst);
                if !ready() && !abort.load(Ordering::Relaxed) {
                    parks.fetch_add(1, Ordering::Relaxed);
                    trace.record(EventKind::Park, self.edge, 0);
                    std::thread::park_timeout(PARK_TIMEOUT);
                    trace.record(EventKind::Unpark, self.edge, 0);
                }
                parked.store(false, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// The image of `x` as an `i32` token: what a tape half ships.
    fn iv(x: i32) -> u64 {
        x as i64 as u64
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let r = Ring::with_capacity(13);
        assert_eq!(r.capacity(), 16);
        assert_eq!(Ring::with_capacity(0).capacity(), 8);
    }

    #[test]
    fn batch_roundtrip_single_thread() {
        let r = Ring::with_capacity(8);
        let abort = AtomicBool::new(false);
        r.push_batch(&(0..6).map(iv).collect::<Vec<_>>(), &abort)
            .unwrap();
        let mut got = Vec::new();
        assert_eq!(r.pop_avail(|v| got.push(v), 100), 6);
        assert_eq!(got, (0..6).map(iv).collect::<Vec<_>>());
        assert_eq!(r.pop_avail(|v| got.push(v), 100), 0);
    }

    #[test]
    fn oversized_batch_flows_in_chunks() {
        // Batch larger than capacity: requires a concurrent consumer.
        let r = Arc::new(Ring::with_capacity(8));
        let abort = Arc::new(AtomicBool::new(false));
        let vals: Vec<u64> = (0..1000).map(iv).collect();
        let rc = Arc::clone(&r);
        let ac = Arc::clone(&abort);
        let consumer = std::thread::spawn(move || {
            rc.register_consumer();
            let mut got = Vec::new();
            while got.len() < 1000 {
                if rc.pop_avail(|v| got.push(v), 64) == 0 {
                    rc.wait_nonempty(&ac).unwrap();
                }
            }
            got
        });
        r.register_producer();
        r.push_batch(&vals, &abort).unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got, vals);
        // 1000 elements through 8 slots: the producer must have stalled,
        // and stall time must have been accounted.
        assert!(r.full_stalls() > 0);
        assert!(r.full_stall_nanos() > 0);
        // Some publish point must have seen the ring completely full.
        assert_eq!(r.high_water(), r.capacity());
    }

    #[test]
    fn occupancy_stats_track_publishes() {
        let r = Ring::for_edge(3, 8);
        assert_eq!(r.edge(), 3);
        let abort = AtomicBool::new(false);
        r.push_batch(&(0..6).map(iv).collect::<Vec<_>>(), &abort)
            .unwrap();
        assert_eq!(r.high_water(), 6);
        let hist = r.occupancy_hist();
        assert_eq!(hist.iter().sum::<u64>(), 1);
        // Occupancy 6 of 8 lands in bucket 6*OCC_BUCKETS/8.
        assert_eq!(hist[6 * OCC_BUCKETS / 8], 1);
    }

    #[test]
    fn pop_spans_hands_out_a_wrapped_span_in_order() {
        let r = Ring::with_capacity(8);
        let abort = AtomicBool::new(false);
        let vals: Vec<u64> = (0..12).map(iv).collect();
        r.push_batch(&vals[..6], &abort).unwrap();
        assert_eq!(r.pop_avail(|_| {}, 5), 5);
        // Slots 6, 7 and then 0..4: the span wraps the ring boundary.
        r.push_batch(&vals[6..], &abort).unwrap();
        let mut got = Vec::new();
        let n = r.pop_spans(100, |a, b| {
            assert_eq!((a.len(), b.len()), (3, 4));
            got.extend_from_slice(a);
            got.extend_from_slice(b);
        });
        assert_eq!(n, 7);
        assert_eq!(got, vals[5..]);
        assert_eq!(r.pop_spans(100, |_, _| panic!("nothing to hand out")), 0);
    }

    #[test]
    fn spsc_stress_preserves_order() {
        let r = Arc::new(Ring::with_capacity(32));
        let abort = Arc::new(AtomicBool::new(false));
        const N: i32 = 100_000;
        let rc = Arc::clone(&r);
        let ac = Arc::clone(&abort);
        let consumer = std::thread::spawn(move || {
            rc.register_consumer();
            let mut next = 0i32;
            while next < N {
                let got = rc.pop_avail(
                    |v| {
                        assert_eq!(v, iv(next));
                        next += 1;
                    },
                    usize::MAX,
                );
                if got == 0 {
                    rc.wait_nonempty(&ac).unwrap();
                }
            }
        });
        r.register_producer();
        let mut k = 0i32;
        while k < N {
            let n = (1 + (k % 17)) as usize;
            let batch: Vec<u64> = (k..(k + n as i32).min(N)).map(iv).collect();
            r.push_batch(&batch, &abort).unwrap();
            k += batch.len() as i32;
        }
        consumer.join().unwrap();
    }

    #[test]
    fn stall_episode_counts_once_across_partial_arrivals() {
        // Consumer needs 3 tokens that arrive in 3 separate pushes. Under
        // the old per-wait accounting this produced up to 3 stall events
        // with disjoint intervals; the episode protocol records exactly
        // one interval covering the whole wait — the monotonic accounting
        // `ensure_inputs` relies on.
        let r = Arc::new(Ring::with_capacity(8));
        let abort = Arc::new(AtomicBool::new(false));
        let rc = Arc::clone(&r);
        let ac = Arc::clone(&abort);
        let consumer = std::thread::spawn(move || {
            rc.register_consumer();
            let trace = WorkerTrace::disabled();
            let mut got = Vec::new();
            let t0 = rc.begin_empty_stall(&trace);
            while got.len() < 3 {
                let want = 3 - got.len();
                if rc.pop_avail(|v| got.push(v), want) == 0 {
                    rc.wait_nonempty_quiet(&ac, &trace).unwrap();
                }
            }
            rc.end_empty_stall(t0, &trace);
            got
        });
        r.register_producer();
        for k in 0..3 {
            std::thread::sleep(Duration::from_millis(2));
            r.push_batch(&[iv(k)], &abort).unwrap();
        }
        assert_eq!(consumer.join().unwrap(), vec![iv(0), iv(1), iv(2)]);
        assert_eq!(r.empty_stalls(), 1);
        assert!(r.empty_stall_nanos() > 0);
    }

    #[test]
    fn abort_unblocks_waiters() {
        let r = Arc::new(Ring::with_capacity(8));
        let abort = Arc::new(AtomicBool::new(false));
        let rc = Arc::clone(&r);
        let ac = Arc::clone(&abort);
        let consumer = std::thread::spawn(move || {
            rc.register_consumer();
            rc.wait_nonempty(&ac)
        });
        std::thread::sleep(Duration::from_millis(20));
        abort.store(true, Ordering::Relaxed);
        assert_eq!(consumer.join().unwrap(), Err(Aborted));
        assert!(r.empty_stalls() > 0);
        // 20 ms is far past the spin and yield phases: the wait parked,
        // and only the waiting side's counter moved.
        assert!(r.empty_parks() > 0);
        assert_eq!(r.full_parks(), 0);
    }
}
