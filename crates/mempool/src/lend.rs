//! Lent, not owned: free stacks of reusable storage for per-connection
//! state that is empty almost always.
//!
//! The mbuf pool's rule (§4.2, and ixy's per-queue free stack) applied
//! to the heap buffers behind a connection's queues: storage belongs to
//! a per-shard [`Spares`] stack and is lent to whoever holds something
//! *now*. A queue starts with no buffer, borrows one on its first push
//! and hands it back the moment it drains, so an idle connection owns
//! nothing and the number of buffers in existence follows the number of
//! connections that are busy at once, not the number that are open.

use std::collections::VecDeque;
use std::sync::Arc;

use ix_testkit::{buffer_id, Bytes};

/// A LIFO stack of spare `B`s (empty queue buffers, reset state
/// blocks). A borrower that finds it dry makes its own, and a few to
/// spare; giving back never calls the allocator.
#[derive(Debug)]
pub struct Spares<B> {
    free: Vec<B>,
    /// Spares this stack has made so far. `free` has room for them all.
    made: usize,
    /// Most borrowers there have been at once
    /// ([`Spares::note_borrowers`]): no more spares than that are ever
    /// made.
    borrowers: usize,
}

impl<B> Spares<B> {
    /// Fewest spares made at a time.
    pub const MIN_BATCH: usize = 16;

    /// An empty stack that has allocated nothing.
    pub const fn new() -> Spares<B> {
        Spares { free: Vec::new(), made: 0, borrowers: 0 }
    }

    /// Notes how many borrowers there are now. Call it where borrowers
    /// are created (a connection opens, a migrated batch arrives).
    pub fn note_borrowers(&mut self, borrowers: usize) {
        self.borrowers = self.borrowers.max(borrowers);
    }

    /// The most recently returned spare. When the stack is dry, `make`s
    /// one — and with it a quarter of what it has made so far, at least
    /// [`MIN_BATCH`](Self::MIN_BATCH), never more in all than there are
    /// borrowers — so that the next record highs of concurrent borrowers
    /// find the stack stocked (the mbuf pool's block provisioning, in
    /// proportion). Here, where the allocator is being called anyway, is
    /// also where the stack's own vector grows.
    pub fn take_or_make(&mut self, make: impl Fn() -> B) -> B {
        if let Some(spare) = self.free.pop() {
            return spare;
        }
        let room = self.borrowers.saturating_sub(self.made).max(1);
        let batch = (self.made / 4).max(Self::MIN_BATCH).min(room);
        self.count_made(batch);
        self.free.extend(std::iter::repeat_with(&make).take(batch - 1));
        make()
    }

    /// Makes room for `arrivals` spares made elsewhere — they come in
    /// on loan, inside migrated connections — to be handed back here.
    pub fn adopt(&mut self, arrivals: usize) {
        self.count_made(arrivals);
    }

    /// Counts `n` more spares as this stack's and sizes its vector to
    /// hold every one of them at once.
    fn count_made(&mut self, n: usize) {
        self.made += n;
        if self.free.capacity() < self.made {
            self.free.reserve(self.made - self.free.len());
        }
    }

    /// Hands `spare` back. A stack that is full — a spare it neither
    /// made nor adopted has turned up — lets it drop rather than grow.
    pub fn give(&mut self, spare: B) {
        if self.free.len() < self.free.capacity() {
            self.free.push(spare);
        }
    }

    /// Spares on the stack.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when the stack holds no spare.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

impl<B> Default for Spares<B> {
    fn default() -> Self {
        Spares::new()
    }
}

impl<T> Spares<VecDeque<T>> {
    /// Slots of a newly made queue buffer (what a first push would
    /// allocate).
    const MIN_SLOTS: usize = 4;

    /// `queue.push_back(item)`, on a borrowed buffer if the queue has
    /// none yet.
    pub fn push_back(&mut self, queue: &mut VecDeque<T>, item: T) {
        if queue.capacity() == 0 {
            *queue = self.take_or_make(|| VecDeque::with_capacity(Self::MIN_SLOTS));
        }
        queue.push_back(item);
    }

    /// Takes `queue`'s buffer back if the queue has drained to empty.
    /// Call it wherever the queue is popped or cleared.
    pub fn reclaim(&mut self, queue: &mut VecDeque<T>) {
        if queue.is_empty() && queue.capacity() > 0 {
            self.give(std::mem::take(queue));
        }
    }

    /// Where this stack's buffers are, over `queues` — the queues that
    /// borrow from it.
    pub fn census<'a>(&self, queues: impl Iterator<Item = &'a VecDeque<T>>) -> LentQueues
    where
        T: 'a,
    {
        let mut census =
            LentQueues { spare: self.len(), list: buffer_id(&self.free), ..LentQueues::default() };
        for q in queues {
            if q.is_empty() {
                census.idle_capacity += q.capacity();
            } else {
                census.busy += 1;
            }
        }
        census
    }
}

/// Moves the blocks of `lent` that no [`Bytes`] view aliases any more —
/// the list's own handle is the last — onto `free`.
pub(crate) fn sweep_unique(lent: &mut Vec<Arc<[u8]>>, free: &mut Vec<Arc<[u8]>>) {
    let mut i = 0;
    while i < lent.len() {
        if Arc::strong_count(&lent[i]) == 1 {
            free.push(lent.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

/// A zero-filled block, in one allocation.
fn zeroed(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0u8, len).collect()
}

/// One size class of a [`Blocks`] pool. It never drops a block, so what
/// it has made is what the two lists hold.
#[derive(Debug, Default)]
struct BlockClass {
    /// Blocks no view aliases.
    free: Vec<Arc<[u8]>>,
    /// Blocks handed out inside a [`Bytes`]; swept back into `free`
    /// once the last view of them has dropped.
    lent: Vec<Arc<[u8]>>,
}

impl BlockClass {
    /// Fewest blocks made at a time.
    const MIN_BATCH: usize = 4;

    /// A block nobody else holds. A dry class first sweeps `lent` for
    /// blocks whose views are gone; when that frees no more than a quarter
    /// of the class it makes a quarter more, at least
    /// [`MIN_BATCH`](Self::MIN_BATCH) — so a sweep costs a few
    /// reference-count reads per block handed out however many are in
    /// flight, and a class of rare messages is not one coincidence away
    /// from growing. Here, where the allocator is being called anyway,
    /// is also where the two lists grow to hold every block.
    fn take(&mut self, size: usize) -> Arc<[u8]> {
        if let Some(block) = self.free.pop() {
            return block;
        }
        sweep_unique(&mut self.lent, &mut self.free);
        let made = self.free.len() + self.lent.len();
        if self.free.len() <= made / 4 {
            let total = made + (made / 4).max(Self::MIN_BATCH);
            self.free.reserve(total - self.free.len());
            self.lent.reserve(total - self.lent.len());
            self.free.extend(std::iter::repeat_with(|| zeroed(size)).take(total - made));
        }
        self.free.pop().expect("swept or restocked")
    }
}

/// Recycled message blocks: the application's side of the `sendv`
/// contract (§3: a transmitted buffer stays immutable until the peer
/// has acknowledged it). An application builds each message in place in
/// a block it owns and hands TCP a [`Bytes`] view of it; the block is
/// writable again once the retransmit queue has dropped the last view.
/// Blocks come in power-of-two classes from [`MIN_BLOCK`](Self::MIN_BLOCK)
/// to [`MAX_BLOCK`](Self::MAX_BLOCK) bytes — memcached's slab classes —
/// and a class grows only while three quarters of it are in flight, so
/// it settles within two thirds above its busiest moment.
#[derive(Debug, Default)]
pub struct Blocks {
    classes: [BlockClass; Blocks::CLASSES],
}

impl Blocks {
    /// Smallest block, bytes.
    pub const MIN_BLOCK: usize = 64;
    /// Largest recycled block, bytes. A longer message gets a heap
    /// block of its own, dropped with its last view.
    pub const MAX_BLOCK: usize = 2048;
    const CLASSES: usize = (Self::MAX_BLOCK / Self::MIN_BLOCK).ilog2() as usize + 1;

    /// A pool that has allocated nothing.
    pub fn new() -> Blocks {
        Blocks::default()
    }

    /// One `len`-byte message, written by `fill` into a block no live
    /// view aliases. `fill` must write every byte: the slice holds
    /// whatever the block carried last.
    pub fn build(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        let size = len.next_power_of_two().max(Self::MIN_BLOCK);
        if size > Self::MAX_BLOCK {
            let mut block = zeroed(len);
            fill(Arc::get_mut(&mut block).expect("a block just made has one owner"));
            return Bytes::from_shared(block, 0, len);
        }
        let class = &mut self.classes[(size / Self::MIN_BLOCK).ilog2() as usize];
        let mut block = class.take(size);
        fill(&mut Arc::get_mut(&mut block).expect("free blocks have no views")[..len]);
        let view = Bytes::from_shared(Arc::clone(&block), 0, len);
        class.lent.push(block);
        view
    }

    /// Blocks made so far, over all classes. Constant once every class
    /// has seen its high-water mark of messages in flight.
    pub fn made(&self) -> usize {
        self.classes.iter().map(|c| c.free.len() + c.lent.len()).sum()
    }
}

/// Where one [`Spares`] stack's queue buffers are at one instant, for
/// the tests that pin the lending discipline (DESIGN.md §13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LentQueues {
    /// Queues holding something: each has one buffer on loan.
    pub busy: usize,
    /// Summed capacity of the empty queues. Zero when the discipline
    /// holds: an idle connection owns no buffer.
    pub idle_capacity: usize,
    /// Buffers on the spare stack.
    pub spare: usize,
    /// Identity of the spare stack's own vector (see
    /// [`ix_testkit::buffer_id`]).
    pub list: (usize, usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_queue_borrows_on_first_push_and_returns_on_empty() {
        let mut spares: Spares<VecDeque<u32>> = Spares::new();
        spares.note_borrowers(2);
        let (mut a, mut b) = (VecDeque::new(), VecDeque::new());
        spares.push_back(&mut a, 1);
        spares.push_back(&mut a, 2);
        spares.reclaim(&mut a);
        // Two borrowers, so two buffers were made: one lent, one spare.
        assert_eq!((a.len(), spares.len()), (2, 1), "a busy queue keeps its buffer");
        a.clear();
        spares.reclaim(&mut a);
        assert_eq!((a.capacity(), spares.len()), (0, 2));
        // The next borrower gets a returned buffer, not a fresh one.
        spares.push_back(&mut b, 3);
        let census = spares.census([&a, &b].into_iter());
        assert_eq!((census.busy, census.idle_capacity, census.spare), (1, 0, 1));
    }

    #[test]
    fn a_dry_stack_restocks_in_proportion_and_within_its_borrowers() {
        let mut spares: Spares<Box<u64>> = Spares::new();
        spares.note_borrowers(100);
        let mut out = vec![spares.take_or_make(Box::default)];
        assert_eq!(spares.len(), Spares::<Box<u64>>::MIN_BATCH - 1);
        while out.len() < 80 {
            out.push(spares.take_or_make(Box::default));
        }
        // Five batches of 16 (a quarter of 64 is 16 too): 80 made, all taken.
        assert_eq!(spares.len(), 0);
        out.push(spares.take_or_make(Box::default));
        assert_eq!(spares.len(), 19, "a quarter of 80, less the one taken");
        out.extend((0..19).map(|_| spares.take_or_make(Box::default)));
        // One hundred made for one hundred borrowers; a further taker
        // gets its own and nothing is stocked.
        out.push(spares.take_or_make(Box::default));
        assert_eq!(spares.len(), 0);
    }

    #[test]
    fn giving_back_never_grows_the_stack() {
        let mut spares: Spares<VecDeque<u32>> = Spares::new();
        spares.note_borrowers(1);
        let mut q = VecDeque::new();
        spares.push_back(&mut q, 1);
        q.clear();
        spares.reclaim(&mut q);
        let list = spares.census(std::iter::empty()).list;
        // Buffers that arrive from elsewhere and find no room are dropped.
        for _ in 0..list.1 + 3 {
            spares.give(VecDeque::with_capacity(4));
        }
        assert_eq!(spares.len(), list.1);
        assert_eq!(spares.census(std::iter::empty()).list, list);
    }

    #[test]
    fn a_block_is_rewritten_only_after_its_last_view_drops() {
        let mut blocks = Blocks::new();
        let a = blocks.build(5, |b| b.copy_from_slice(b"hello"));
        let b = blocks.build(5, |b| b.copy_from_slice(b"world"));
        assert!(!a.ptr_eq(&b), "a lent block is not handed out again");
        let made = blocks.made();
        assert_eq!((&a[..], &b[..], made), (&b"hello"[..], &b"world"[..], BlockClass::MIN_BATCH));
        let held = a.slice(1..3);
        drop(a);
        let c = blocks.build(5, |b| b.copy_from_slice(b"again"));
        assert_eq!((&held[..], &b[..], &c[..]), (&b"el"[..], &b"world"[..], &b"again"[..]));
        drop((held, b, c));
        // All are back: the next dry sweep finds them, so as many
        // messages at once as there are blocks make nothing.
        let views: Vec<Bytes> = (0..made).map(|i| blocks.build(64, |b| b.fill(i as u8))).collect();
        assert_eq!(blocks.made(), made);
        assert!(views.iter().enumerate().all(|(i, v)| v.iter().all(|&x| x == i as u8)));
    }

    #[test]
    fn classes_are_powers_of_two_and_long_messages_are_not_pooled() {
        let mut blocks = Blocks::new();
        let mut held = Vec::new();
        // Four messages at once from each of three classes: one batch
        // of blocks each.
        let classes = [[0, 1, 63, 64], [65, 100, 127, 128], [1025, 1500, 2047, 2048]];
        for (n, lens) in classes.iter().enumerate() {
            held.extend(lens.iter().map(|&len| blocks.build(len, |b| b.fill(7))));
            assert_eq!(blocks.made(), (n + 1) * BlockClass::MIN_BATCH, "{lens:?} share a class");
        }
        assert!(held.iter().all(|view| view.iter().all(|&x| x == 7)));
        let long = blocks.build(Blocks::MAX_BLOCK + 1, |b| b.fill(9));
        assert_eq!((long.len(), long.ref_count(), blocks.made()), (2049, 1, held.len()));
    }

    #[test]
    fn a_class_settles_above_its_high_water_mark() {
        let mut blocks = Blocks::new();
        // Forty in flight at once, each acknowledged forty builds later.
        let mut flight = VecDeque::new();
        for i in 0..1_000u32 {
            flight.push_back(blocks.build(100, |b| b.fill(i as u8)));
            if flight.len() > 40 {
                flight.pop_front();
            }
        }
        let made = blocks.made();
        assert!((41..=40 * 5 / 3 + 2).contains(&made), "{made} blocks for 40 in flight");
        for i in 0..10_000u32 {
            flight.push_back(blocks.build(100, |b| b.fill(i as u8)));
            flight.pop_front();
        }
        assert_eq!(blocks.made(), made, "steady state makes nothing");
    }
}
