//! Connection-scale flow demux: an open-addressing flow table plus a
//! slab of flow state, replacing `HashMap<u64, Tcb>` on the per-packet
//! hot path.
//!
//! Every received segment demuxes through exactly one table lookup, so
//! at 250k connections the demux structure — not protocol logic —
//! decides throughput (the *User Space Network Drivers* and *NFV
//! dataplane benchmarking* observation). Three properties matter:
//!
//! * **No SipHash.** The key is the already-packed [`FlowId`] word
//!   (remote ip/port, local port — the same bits RSS hashed on the
//!   NIC), so the table finishes it with one splitmix64-style mix
//!   instead of re-hashing through `std`'s DoS-resistant SipHash.
//!   Collision resistance against adversarial peers is the NIC RSS
//!   layer's problem, not the per-shard table's: a shard only ever
//!   holds flows RSS already steered to it.
//! * **Open addressing, tombstone-free.** Linear probing with
//!   backward-shift deletion keeps probe chains short forever (no
//!   tombstone accumulation across connection churn) and scans
//!   contiguous memory. Capacity is a power of two, grown at 7/8
//!   load, so footprint stays linear in *live* flows.
//! * **Indices, not values.** The table stores `u32` slots into a
//!   [`FlowMap`] slab, so 250k TCBs are contiguous and flow-group
//!   migration (`extract_bucket_into`/`absorb_flows`, paper §4.4) moves
//!   indices and re-probes small keys — it never memmoves TCBs during
//!   rehash.
//!
//! [`FlowId`]: crate::event::FlowId

use ix_net::rss::RSS_BUCKETS;

/// Slot index sentinel for an empty table slot. Keys are *not* used to
/// mark emptiness, so a key of 0 is a perfectly valid flow.
const EMPTY: u32 = u32::MAX;

/// One probe slot: the full key (for verification) and the slab index.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    idx: u32,
}

const VACANT: Slot = Slot { key: 0, idx: EMPTY };

/// Finish an already-structured key into a table distribution.
///
/// The splitmix64 finisher: two multiply-xorshift rounds, full 64-bit
/// avalanche. One multiplication per lookup vs SipHash's four rounds
/// per 8-byte block plus finalization.
#[inline]
pub(crate) fn mix(key: u64) -> u64 {
    let mut x = key;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Open-addressing `u64 → u32` map: linear probing, backward-shift
/// deletion, power-of-two capacity grown at 7/8 load.
pub struct FlowTable {
    slots: Vec<Slot>,
    /// `slots.len() - 1`; probing is `(home + k) & mask`.
    mask: usize,
    len: usize,
}

impl FlowTable {
    /// An empty table. The first insert allocates the initial slots.
    pub fn new() -> Self {
        FlowTable { slots: Vec::new(), mask: 0, len: 0 }
    }

    /// A table pre-sized so `n` entries fit without growing.
    pub fn with_capacity(n: usize) -> Self {
        let mut t = FlowTable::new();
        if n > 0 {
            t.rebuild(Self::slots_for(n));
        }
        t
    }

    /// Smallest power-of-two slot count that holds `n` at 7/8 load.
    fn slots_for(n: usize) -> usize {
        let min = n.saturating_mul(8).div_ceil(7).max(8);
        min.next_power_of_two()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count (a power of two, or 0 before first insert).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Resident bytes of the probe array.
    pub fn mem_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Probe for `key`. Returns `Ok(slot_position)` if present,
    /// `Err(first_free_position)` if absent.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        debug_assert!(!self.slots.is_empty());
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let s = self.slots[i];
            if s.idx == EMPTY {
                return Err(i);
            }
            if s.key == key {
                return Ok(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up the slab index stored for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        self.probe(key).ok().map(|i| self.slots[i].idx)
    }

    /// True iff `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert or replace; returns the previous index for `key` if any.
    #[inline]
    pub fn insert(&mut self, key: u64, idx: u32) -> Option<u32> {
        debug_assert_ne!(idx, EMPTY, "u32::MAX is the vacancy sentinel");
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.rebuild(Self::slots_for(self.len + 1));
        }
        match self.probe(key) {
            Ok(i) => {
                let old = self.slots[i].idx;
                self.slots[i].idx = idx;
                Some(old)
            }
            Err(i) => {
                self.slots[i] = Slot { key, idx };
                self.len += 1;
                None
            }
        }
    }

    /// Single-probe upsert: returns the index already stored for `key`,
    /// or inserts (and returns) the one produced by `make`. This is the
    /// hot-path primitive [`FlowMap`] builds on — a separate
    /// `get`-then-`insert` would probe the chain twice.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> u32) -> u32 {
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.rebuild(Self::slots_for(self.len + 1));
        }
        match self.probe(key) {
            Ok(i) => self.slots[i].idx,
            Err(i) => {
                let idx = make();
                debug_assert_ne!(idx, EMPTY, "u32::MAX is the vacancy sentinel");
                self.slots[i] = Slot { key, idx };
                self.len += 1;
                idx
            }
        }
    }

    /// Bulk-insert `(key, idx)` pairs whose keys are all absent — the
    /// migration-absorb fill. The table is sized once for the whole
    /// batch, then the probe-array writes are grouped by home-slot
    /// region: a stable 256-bin counting sort (two streaming O(n)
    /// passes, no comparison sort) walks the probe array region by
    /// region, so a 250k-entry fill stays within one cache-resident
    /// window at a time instead of hopping to a cold line per key.
    /// Within a bin the batch order is kept, so the resulting layout is
    /// a deterministic function of (batch order, table capacity).
    ///
    /// # Panics
    ///
    /// Panics if a key is already present (or staged twice): a flow
    /// lives in exactly one shard, so an absorb that finds its key
    /// live means connection state was duplicated, not migrated.
    pub fn insert_absent_batch(&mut self, items: &mut Vec<(u64, u32)>) {
        if items.is_empty() {
            return;
        }
        if self.slots.is_empty() || (self.len + items.len()) * 8 > self.slots.len() * 7 {
            self.rebuild(Self::slots_for(self.len + items.len()));
        }
        // Bin by the home slot's top 8 bits (each bin covers a
        // `slots/256` region of the probe array — 32 KB of slots at
        // 250k flows).
        let shift = (self.mask + 1).trailing_zeros().saturating_sub(8);
        let order: Vec<(u32, u32)> = items
            .iter()
            .enumerate()
            .map(|(j, &(k, _))| (((mix(k) as usize) & self.mask) as u32, j as u32))
            .collect();
        let mut bins = [0u32; 257];
        for &(h, _) in &order {
            bins[(h >> shift) as usize + 1] += 1;
        }
        for b in 0..256 {
            bins[b + 1] += bins[b];
        }
        let mut grouped: Vec<(u32, u32)> = vec![(0, 0); order.len()];
        for &(h, j) in &order {
            let b = (h >> shift) as usize;
            grouped[bins[b] as usize] = (h, j);
            bins[b] += 1;
        }
        for (_, j) in grouped {
            let (key, idx) = items[j as usize];
            match self.probe(key) {
                Ok(_) => panic!("insert_absent_batch: key {key:#x} already present"),
                Err(i) => {
                    self.slots[i] = Slot { key, idx };
                    self.len += 1;
                }
            }
        }
        items.clear();
    }

    /// Remove `key`, backward-shifting the probe chain so no tombstone
    /// is ever left behind.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut hole = self.probe(key).ok()?;
        let removed = self.slots[hole].idx;
        // Backward shift: walk the chain after the hole; any entry whose
        // home position means it may only be found *through* the hole
        // slides back into it.
        let mut j = (hole + 1) & self.mask;
        loop {
            let s = self.slots[j];
            if s.idx == EMPTY {
                break;
            }
            let home = (mix(s.key) as usize) & self.mask;
            // Movable iff the hole lies cyclically between home and j.
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.slots[hole] = s;
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.slots[hole] = VACANT;
        self.len -= 1;
        Some(removed)
    }

    /// Iterate `(key, idx)` pairs in slot order. Deterministic for a
    /// given insertion/removal history (the hash has no per-process
    /// randomness), but *not* insertion order — callers that need a
    /// canonical order sort, exactly as they did over `HashMap`.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.slots.iter().filter(|s| s.idx != EMPTY).map(|s| (s.key, s.idx))
    }

    /// Pre-size the probe array so `additional` more entries fit
    /// without growing. Bulk absorb ([`FlowMap::reserve`]) calls this
    /// once per migration instead of paying incremental rebuilds
    /// (re-probing the whole table at every 7/8 crossing) while 250k
    /// entries stream in.
    pub fn reserve(&mut self, additional: usize) {
        let need = Self::slots_for(self.len + additional);
        if need > self.slots.len() {
            self.rebuild(need);
        }
    }

    /// Re-probe every live entry into a fresh power-of-two array.
    fn rebuild(&mut self, new_slots: usize) {
        debug_assert!(new_slots.is_power_of_two());
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_slots]);
        self.mask = new_slots - 1;
        for s in old.into_iter().filter(|s| s.idx != EMPTY) {
            let mut i = (mix(s.key) as usize) & self.mask;
            while self.slots[i].idx != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = s;
        }
    }
}

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable::new()
    }
}

/// Bucket sentinel for entries outside the bucket index (app-side maps,
/// non-flow cookies). Unbucketed entries pay two untaken branches at
/// insert/remove and are invisible to [`FlowMap::bucket_keys`].
pub const NO_BUCKET: u16 = u16::MAX;

/// Intrusive per-bucket list node, parallel to the slab. Carries the
/// key so a bucket walk never touches the (cache-line-heavy) value
/// slab, and the bucket so unlink needs no extra lookup.
#[derive(Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
    key: u64,
    bucket: u16,
}

const UNLINKED: Link = Link { prev: EMPTY, next: EMPTY, key: 0, bucket: NO_BUCKET };

/// `u64 → T` map backed by a [`FlowTable`] of slab indices: the drop-in
/// replacement for `HashMap<u64, Tcb>` in [`TcpShard`], generic so the
/// differential tests exercise it with small payloads.
///
/// Values live in a contiguous slab (`Vec<Option<T>>`) with a LIFO free
/// list; the table maps keys to `u32` slots. Removing a value never
/// moves any other value, and growing the table re-probes 16-byte
/// entries — the slab itself only grows, amortized, at the tail.
///
/// Entries inserted via [`FlowMap::insert_in_bucket`] are additionally
/// threaded onto an intrusive doubly-linked list per RSS bucket
/// (`Link` records parallel to the slab), kept in insertion order.
/// Flow-group migration walks exactly the migrating bucket's list —
/// O(bucket population) — instead of scanning and sorting the whole
/// table.
///
/// [`TcpShard`]: crate::stack::TcpShard
pub struct FlowMap<T> {
    table: FlowTable,
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    /// Per-slot bucket-list nodes, parallel to the slab — once the map
    /// is threaded (see `heads`). A map that never sees a bucketed
    /// entry keeps this empty: app-side maps pay for a slab and a probe
    /// table, not for 24 bytes of list node per slot.
    links: Vec<Link>,
    /// Per-bucket list heads/tails (`EMPTY` = empty list). Non-empty
    /// means the map is *threaded*: the first bucketed insert (or slab
    /// adoption) allocates these and brings `links` level with the slab.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Per-bucket populations, maintained at link/unlink so
    /// [`FlowMap::bucket_len`] is O(1) — the control plane pre-sizes
    /// migration batches from these without walking any list.
    counts: Vec<u32>,
    /// `(key, slot)` pairs threaded by [`FlowMap::stage_adopted`] but
    /// not yet probed into the table; drained by
    /// [`FlowMap::commit_staged`].
    staged: Vec<(u64, u32)>,
    /// Slabs replaced by [`FlowMap::adopt_slab`] (or the reserve-time
    /// compaction), awaiting incremental drop-glue reclamation. A
    /// drained 250k-slot slab is ~94 MB of all-`None` options; running
    /// its drop glue inline would put a full sequential DRAM pass
    /// inside the migration blackout window, so it is deferred to
    /// quiescent dataplane cycles ([`FlowMap::reclaim_retired`]).
    retired: Vec<Vec<Option<T>>>,
}

impl<T> FlowMap<T> {
    /// An empty map; the first insert allocates.
    pub fn new() -> Self {
        FlowMap {
            table: FlowTable::new(),
            slab: Vec::new(),
            free: Vec::new(),
            links: Vec::new(),
            heads: Vec::new(),
            tails: Vec::new(),
            counts: Vec::new(),
            staged: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// A map pre-sized for `n` entries: it allocates nothing more while
    /// it holds at most `n` unbucketed entries.
    pub fn with_capacity(n: usize) -> Self {
        FlowMap {
            table: FlowTable::with_capacity(n),
            slab: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            links: Vec::new(),
            heads: Vec::new(),
            tails: Vec::new(),
            counts: Vec::new(),
            staged: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// Pre-size the probe table, slab, and link array for `additional`
    /// more entries — one rebuild up front instead of log₂(additional)
    /// incremental ones mid-absorb.
    pub fn reserve(&mut self, additional: usize) {
        // An empty map about to adopt a bulk batch: drop the free list
        // and let the batch lay out contiguously from the slab tail.
        // LIFO slot reuse would scatter a 250k-TCB absorb across the
        // old slab's footprint (one cold miss per value write); a
        // compacted slab takes sequential appends instead, and leaves
        // the adopted flows contiguous in arrival order.
        if self.table.is_empty() && !self.free.is_empty() {
            self.retire_slab();
            self.links.clear();
            self.free.clear();
        }
        self.table.reserve(additional);
        let grow = additional.saturating_sub(self.free.len());
        self.slab.reserve(grow);
        if self.threaded() {
            self.links.reserve(grow);
        }
    }

    /// True once the map carries bucket lists.
    fn threaded(&self) -> bool {
        !self.heads.is_empty()
    }

    /// Gives the map its bucket lists: heads, tails, counters, and a
    /// list node for every slab slot there is so far.
    fn thread(&mut self) {
        if !self.threaded() {
            self.heads = vec![EMPTY; RSS_BUCKETS];
            self.tails = vec![EMPTY; RSS_BUCKETS];
            self.counts = vec![0; RSS_BUCKETS];
            self.links.reserve(self.slab.capacity());
            self.links.resize(self.slab.len(), UNLINKED);
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True iff no entries are live.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// True iff `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.table.contains_key(key)
    }

    /// Borrows the value stored for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        let idx = self.table.get(key)?;
        self.slab[idx as usize].as_ref()
    }

    /// Mutably borrows the value stored for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let idx = self.table.get(key)?;
        self.slab[idx as usize].as_mut()
    }

    /// Resolves `key` to its slab-slot handle without borrowing the
    /// value. The handle feeds [`FlowMap::slot_mut`] so a batch of
    /// operations against one flow probes the hash chain exactly once;
    /// it stays valid until the entry is removed or the slab is
    /// replaced (`adopt_slab`/`extract`).
    #[inline]
    pub fn slot_of(&self, key: u64) -> Option<u32> {
        self.table.get(key)
    }

    /// Insert or replace; returns the displaced value if any. Probes
    /// the chain exactly once either way. The entry is *unbucketed*
    /// (invisible to [`FlowMap::bucket_keys`]).
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        self.insert_in_bucket(key, NO_BUCKET, value).1
    }

    /// Insert or replace, threading the entry onto `bucket`'s intrusive
    /// list (appended, so bucket walks run in insertion order). Returns
    /// the slab slot index — the handle timer-arming uses instead of
    /// re-probing — and the displaced value if any.
    pub fn insert_in_bucket(&mut self, key: u64, bucket: u16, value: T) -> (u32, Option<T>) {
        debug_assert!(bucket == NO_BUCKET || (bucket as usize) < RSS_BUCKETS);
        let mut pending = Some(value);
        let threaded = self.threaded();
        let (slab, free, links) = (&mut self.slab, &mut self.free, &mut self.links);
        let idx = self.table.get_or_insert_with(key, || {
            alloc_slot(slab, free, links, threaded, key, pending.take().expect("make called once"))
        });
        match pending.take() {
            // The closure never ran: `key` already had a slab slot.
            Some(v) => {
                let old = self.slab[idx as usize].replace(v);
                if self.bucket_at(idx) != bucket {
                    self.unlink(idx);
                    self.link_tail(idx, key, bucket);
                }
                (idx, old)
            }
            None => {
                self.link_tail(idx, key, bucket);
                (idx, None)
            }
        }
    }

    /// Adopt `values` wholesale as the slab of an *empty* map: the
    /// vector's buffer becomes the value storage (when `Option<T>` has
    /// a niche — every TCB does — the in-place `collect` reuses the
    /// allocation, so a 250k-TCB absorb performs zero per-value
    /// copies). Slot `i` holds `values[i]`; the caller reads each value
    /// through [`FlowMap::slot_mut`] and threads it with
    /// [`FlowMap::stage_adopted`], then commits.
    ///
    /// # Panics
    ///
    /// Panics if the map holds any live or staged entries — adoption
    /// replaces the slab, which is only sound when nothing points into
    /// the old one.
    pub fn adopt_slab(&mut self, values: Vec<T>) {
        assert!(
            self.table.is_empty() && self.staged.is_empty(),
            "adopt_slab on a map with live or staged entries"
        );
        let n = values.len();
        self.free.clear();
        self.retire_slab();
        self.slab = values.into_iter().map(Some).collect();
        self.links.clear();
        self.thread();
        self.links.resize(n, UNLINKED);
        self.table.reserve(n);
        self.staged.reserve(n);
    }

    /// Move the current slab onto the retired list for deferred
    /// reclamation. Even fully drained, a big slab is all-`None` drop
    /// glue over its whole footprint — a sequential DRAM pass that does
    /// not belong in the migration blackout window.
    fn retire_slab(&mut self) {
        if self.slab.capacity() == 0 {
            return;
        }
        // Bound the backlog: two retired slabs cover a steady migration
        // ping-pong with quiescent cycles in between; a third arriving
        // means no cycles ran, so pay for the oldest inline rather than
        // grow without bound.
        if self.retired.len() >= 2 {
            self.retired.remove(0);
        }
        self.retired.push(std::mem::take(&mut self.slab));
    }

    /// Drop up to `max_slots` retired slab slots (oldest slab first),
    /// returning how many were reclaimed. The dataplane calls this from
    /// its end-of-cycle hook, so replaced slabs are reclaimed a bounded
    /// chunk per quiescent cycle instead of inline during migration.
    pub fn reclaim_retired(&mut self, max_slots: usize) -> usize {
        let mut done = 0;
        while done < max_slots {
            let Some(oldest) = self.retired.first_mut() else { break };
            let take = (max_slots - done).min(oldest.len());
            let keep = oldest.len() - take;
            oldest.truncate(keep);
            done += take;
            if oldest.is_empty() {
                self.retired.remove(0);
            }
        }
        done
    }

    /// Retired slab slots still awaiting [`FlowMap::reclaim_retired`].
    pub fn retired_backlog(&self) -> usize {
        self.retired.iter().map(Vec::len).sum()
    }

    /// Place `value` in a free slab slot without touching the probe
    /// table or any bucket list, returning the slot handle. The entry
    /// is unreachable until [`FlowMap::stage_adopted`] threads it and
    /// [`FlowMap::commit_staged`] probes it in.
    pub fn stage_push(&mut self, key: u64, value: T) -> u32 {
        let threaded = self.threaded();
        alloc_slot(&mut self.slab, &mut self.free, &mut self.links, threaded, key, value)
    }

    /// Thread slot `idx` (from [`FlowMap::adopt_slab`] or
    /// [`FlowMap::stage_push`]) onto `bucket`'s list and queue its key
    /// for the next [`FlowMap::commit_staged`]. Bulk absorb stages every
    /// flow, then commits once — the commit sorts the batch by home
    /// slot so 250k probe-array writes stream in ascending address
    /// order instead of hash-hopping across a cold 4 MB array.
    ///
    /// Until the commit, a staged key is invisible to
    /// `get`/`remove`/`len` (bucket walks and [`FlowMap::slot_mut`] see
    /// it). Staging a key that is already live — or staging it twice —
    /// panics at commit: a flow lives in exactly one shard.
    pub fn stage_adopted(&mut self, idx: u32, key: u64, bucket: u16) {
        debug_assert!(bucket == NO_BUCKET || (bucket as usize) < RSS_BUCKETS);
        self.link_tail(idx, key, bucket);
        self.staged.push((key, idx));
    }

    /// Probe every staged `(key, slot)` pair into the table in
    /// ascending home-slot order (see [`FlowTable::insert_absent_batch`]).
    pub fn commit_staged(&mut self) {
        let mut staged = std::mem::take(&mut self.staged);
        self.table.insert_absent_batch(&mut staged);
        self.staged = staged;
    }

    /// Mutably borrows `key`'s value, inserting `T::default()` first
    /// if absent (the `entry(..).or_default()` idiom). Single probe.
    /// The entry is unbucketed.
    pub fn get_or_insert_default(&mut self, key: u64) -> &mut T
    where
        T: Default,
    {
        let threaded = self.threaded();
        let (slab, free, links) = (&mut self.slab, &mut self.free, &mut self.links);
        let idx = self
            .table
            .get_or_insert_with(key, || alloc_slot(slab, free, links, threaded, key, T::default()));
        self.slab[idx as usize].as_mut().expect("live table entry")
    }

    /// Removes `key`, returning its value and free-listing the slot.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let idx = self.table.remove(key)?;
        self.unlink(idx);
        let v = self.slab[idx as usize].take();
        debug_assert!(v.is_some(), "table index pointed at a free slab slot");
        self.free.push(idx);
        v
    }

    /// Mutably borrows the value in slab slot `idx` — the handle
    /// returned by [`FlowMap::insert_in_bucket`]. Skips the key probe
    /// entirely; panics if the slot was freed since.
    #[inline]
    pub fn slot_mut(&mut self, idx: u32) -> &mut T {
        self.slab[idx as usize].as_mut().expect("slot handle outlived its entry")
    }

    /// The bucket `key` was inserted into ([`NO_BUCKET`] for plain
    /// inserts), or `None` if `key` is absent.
    #[inline]
    pub fn bucket_of(&self, key: u64) -> Option<u16> {
        let idx = self.table.get(key)?;
        Some(self.bucket_at(idx))
    }

    /// The bucket slot `idx` is threaded on (none, in an unthreaded map).
    fn bucket_at(&self, idx: u32) -> u16 {
        self.links.get(idx as usize).map_or(NO_BUCKET, |l| l.bucket)
    }

    /// Walk `bucket`'s keys in insertion order without touching the
    /// value slab. This is the migration scan: O(bucket population),
    /// and the order is a function of the insertion history alone —
    /// identical across table layouts/capacities, so no sort is needed
    /// for deterministic migration.
    pub fn bucket_keys(&self, bucket: u16) -> impl Iterator<Item = u64> + '_ {
        let mut cur = *self.heads.get(bucket as usize).unwrap_or(&EMPTY);
        std::iter::from_fn(move || {
            if cur == EMPTY {
                return None;
            }
            let l = self.links[cur as usize];
            cur = l.next;
            Some(l.key)
        })
    }

    /// Number of entries threaded on `bucket`'s list. O(1): read from
    /// the per-bucket population counters.
    pub fn bucket_len(&self, bucket: u16) -> usize {
        *self.counts.get(bucket as usize).unwrap_or(&0) as usize
    }

    /// Append slot `idx` to `bucket`'s list (no-op for [`NO_BUCKET`]).
    fn link_tail(&mut self, idx: u32, key: u64, bucket: u16) {
        if bucket == NO_BUCKET {
            if let Some(link) = self.links.get_mut(idx as usize) {
                *link = Link { prev: EMPTY, next: EMPTY, key, bucket };
            }
            return;
        }
        self.thread();
        let tail = self.tails[bucket as usize];
        self.links[idx as usize] = Link { prev: tail, next: EMPTY, key, bucket };
        if tail == EMPTY {
            self.heads[bucket as usize] = idx;
        } else {
            self.links[tail as usize].next = idx;
        }
        self.tails[bucket as usize] = idx;
        self.counts[bucket as usize] += 1;
    }

    /// Detach slot `idx` from its bucket list (no-op if unbucketed).
    fn unlink(&mut self, idx: u32) {
        let Some(&Link { prev, next, bucket, .. }) = self.links.get(idx as usize) else { return };
        if bucket == NO_BUCKET {
            return;
        }
        if prev == EMPTY {
            self.heads[bucket as usize] = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next == EMPTY {
            self.tails[bucket as usize] = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
        self.links[idx as usize] = UNLINKED;
        self.counts[bucket as usize] -= 1;
    }

    /// Iterate `(key, &value)` in table slot order (see
    /// [`FlowTable::iter`] for the ordering contract).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.table.iter().map(|(k, idx)| {
            (k, self.slab[idx as usize].as_ref().expect("live table entry"))
        })
    }

    /// Iterate values in table slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Iterate keys in table slot order without touching the value
    /// slab.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.table.iter().map(|(k, _)| k)
    }

    /// Live entries (== `len()`), high-water slab slots, and resident
    /// bytes of slab + table + free list — the peak-RSS-style numbers
    /// the Fig 4 sweep reports per point.
    pub fn mem_stats(&self) -> FlowMapMem {
        FlowMapMem {
            live: self.table.len(),
            slab_slots: self.slab.len(),
            bytes: self.slab.capacity() * std::mem::size_of::<Option<T>>()
                + self.table.mem_bytes()
                + self.free.capacity() * std::mem::size_of::<u32>()
                + self.links.capacity() * std::mem::size_of::<Link>()
                + (self.heads.capacity() + self.tails.capacity() + self.counts.capacity())
                    * std::mem::size_of::<u32>()
                + self.staged.capacity() * std::mem::size_of::<(u64, u32)>()
                + self
                    .retired
                    .iter()
                    .map(|v| v.capacity() * std::mem::size_of::<Option<T>>())
                    .sum::<usize>(),
        }
    }
}

impl<T> Default for FlowMap<T> {
    fn default() -> Self {
        FlowMap::new()
    }
}

/// Place `value` in a free slab slot (LIFO reuse, else grow the tail)
/// and return its index, keeping the link array of a `threaded` map
/// slot-parallel. The caller threads the link afterwards
/// ([`FlowMap::link_tail`]). Free function so [`FlowMap`] methods can
/// call it while the table is mutably borrowed.
fn alloc_slot<T>(
    slab: &mut Vec<Option<T>>,
    free: &mut Vec<u32>,
    links: &mut Vec<Link>,
    threaded: bool,
    key: u64,
    value: T,
) -> u32 {
    match free.pop() {
        Some(i) => {
            slab[i as usize] = Some(value);
            if threaded {
                links[i as usize] = Link { key, ..UNLINKED };
            }
            i
        }
        None => {
            assert!(slab.len() < EMPTY as usize, "flow slab exceeds u32 indexing");
            slab.push(Some(value));
            if threaded {
                links.push(Link { key, ..UNLINKED });
            }
            (slab.len() - 1) as u32
        }
    }
}

/// Memory accounting snapshot from [`FlowMap::mem_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowMapMem {
    /// Live entries.
    pub live: usize,
    /// High-water slab slots ever allocated (free-listed slots included).
    pub slab_slots: usize,
    /// Resident bytes across slab, probe table, and free list.
    pub bytes: usize,
}

#[cfg(test)]
mod tests;
