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

use ix_testkit::buffer_id;

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

/// Where one [`Spares`] stack's queue buffers are at one instant, for
/// the tests that pin the lending discipline (DESIGN.md §5k).
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
}
