//! A memcached-style in-memory key-value store (§5.5).
//!
//! "memcached is a network-bound application, with threads spending over
//! 75% of execution time in kernel mode for network processing ...
//! Porting memcached to IX primarily consisted of adapting it to use our
//! event library." The server here is that port: a libix event-loop
//! application, stream-parsing the binary protocol of
//! [`crate::workload::proto`], with a shared store whose lock contention
//! is modeled — the effect the paper blames for ETC's lower speedup and
//! for IX's plateau beyond 6 cores ("increased lock contention within
//! the application itself, in particular because it has a higher write
//! frequency").

use std::cell::RefCell;
use std::rc::Rc;

use ix_core::libix::{ConnCtx, LibixHandler};
use ix_mempool::{Blocks, Spares};
use ix_tcp::FlowMap;
use ix_testkit::Bytes;

use crate::workload::proto;

/// Bytes in one segment of the store's log.
pub const SEGMENT: usize = 64 << 10;

/// One index entry: where an item's `key‖value` lies in the log, and
/// the low half of the key's hash so that a probe reads the log only
/// for a likely match. Sixteen bytes, four to a cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    tag: u32,
    /// Segment number plus one; zero marks an empty slot.
    seg1: u32,
    off: u16,
    klen: u16,
    vlen: u32,
}

/// The hash the store's index places keys by, a word at a time: the
/// home slot of a key is the top bits of this. Keys come only from the
/// simulated clients, so — like memcached's own — it is not keyed
/// against chosen collisions.
pub fn key_hash(key: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(K);
        h ^ (h >> 32)
    };
    let mut words = key.chunks_exact(8);
    let mut h = words
        .by_ref()
        .fold(key.len() as u64, |h, w| mix(h, u64::from_le_bytes(w.try_into().expect("8 bytes"))));
    let tail = words.remainder();
    if !tail.is_empty() {
        // The last few bytes as one zero-extended little-endian word.
        h = mix(h, tail.iter().rev().fold(0, |word, &b| word << 8 | u64::from(b)));
    }
    mix(h, h >> 29)
}

/// The store shared by all server threads, with an explicit lock model:
/// critical sections serialize on a virtual-time `busy_until`, so
/// concurrent threads pay queueing delay exactly as a contended mutex
/// imposes.
///
/// Items live in an append-only log of [`SEGMENT`]-byte segments, each
/// item its key followed by its value, found through an open-addressing
/// index of 16-byte slots. A SET appends; overwriting a key leaves the
/// old item in the log unreclaimed (there is no eviction either, so the
/// store is as unbounded as the workload's key space). Storing an item
/// calls the allocator once per segment and once per index doubling.
#[derive(Debug)]
pub struct SharedStore {
    /// The log. Only the last segment takes appends; an item longer
    /// than a segment gets one of its own size.
    segments: Vec<Vec<u8>>,
    /// Linear-probed, a power of two long, at most three-quarters full.
    index: Vec<Slot>,
    items: usize,
    log_bytes: u64,
    lock_busy_until_ns: u64,
    /// Critical-section length for a GET (hash lookup + refcount).
    pub crit_get_ns: u64,
    /// Critical-section length for a SET (allocation + insert + LRU).
    pub crit_set_ns: u64,
    /// Total operations served.
    pub ops: u64,
    /// Total virtual time threads spent waiting for the lock.
    pub lock_wait_ns: u64,
}

/// Shared handle to the store.
pub type StoreRef = Rc<RefCell<SharedStore>>;

impl SharedStore {
    /// Index slots of an empty store.
    const MIN_SLOTS: usize = 64;

    /// Creates an empty store with the default contention profile.
    pub fn new() -> StoreRef {
        Rc::new(RefCell::new(SharedStore {
            segments: Vec::new(),
            index: vec![Slot::default(); Self::MIN_SLOTS],
            items: 0,
            log_bytes: 0,
            lock_busy_until_ns: 0,
            crit_get_ns: 60,
            crit_set_ns: 400,
            ops: 0,
            lock_wait_ns: 0,
        }))
    }

    /// Executes a GET under the lock; returns `(charge_ns, value)`, the
    /// value `None` on a miss.
    pub fn get(&mut self, now_ns: u64, key: &[u8]) -> (u64, Option<&[u8]>) {
        let charge = self.lock(now_ns, self.crit_get_ns);
        let slot = self.index[self.probe(key, key_hash(key))];
        (charge, (slot.seg1 != 0).then(|| &self.item(slot)[key.len()..]))
    }

    /// Executes a SET under the lock, copying `key` and `val` into the
    /// log — memcached's slab copy; returns the charge.
    ///
    /// # Panics
    ///
    /// Panics if `key` or `val` is longer than the wire protocol's
    /// 16- and 32-bit length fields can say.
    pub fn set(&mut self, now_ns: u64, key: &[u8], val: &[u8]) -> u64 {
        let charge = self.lock(now_ns, self.crit_set_ns);
        let klen = u16::try_from(key.len()).expect("key length fits the protocol's 16 bits");
        let vlen = u32::try_from(val.len()).expect("value length fits the protocol's 32 bits");
        let hash = key_hash(key);
        let mut at = self.probe(key, hash);
        if self.index[at].seg1 == 0 {
            if (self.items + 1) * 4 > self.index.len() * 3 {
                self.grow_index();
                at = self.probe(key, hash);
            }
            self.items += 1;
        }
        let len = key.len() + val.len();
        // An item goes where more than its length is left, or first in
        // a new segment: either way it starts below `SEGMENT`.
        let room = self.segments.last().map_or(0, |s| SEGMENT.saturating_sub(s.len()));
        if room <= len {
            self.segments.push(Vec::with_capacity(len.max(SEGMENT)));
        }
        let seg = self.segments.last_mut().expect("a segment with room");
        let off = u16::try_from(seg.len()).expect("items start inside a segment's first 64 KiB");
        seg.extend_from_slice(key);
        seg.extend_from_slice(val);
        self.log_bytes += len as u64;
        let seg1 = u32::try_from(self.segments.len()).expect("under 2^32 segments");
        self.index[at] = Slot { tag: hash as u32, seg1, off, klen, vlen };
        charge
    }

    /// The `key‖value` bytes an occupied slot points at.
    fn item(&self, slot: Slot) -> &[u8] {
        let at = slot.off as usize;
        &self.segments[slot.seg1 as usize - 1][at..at + slot.klen as usize + slot.vlen as usize]
    }

    /// The slot holding `key`, or the empty slot where it would go.
    fn probe(&self, key: &[u8], hash: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut at = (hash >> (64 - self.index.len().ilog2())) as usize;
        loop {
            let slot = self.index[at];
            if slot.seg1 == 0
                || (slot.tag == hash as u32
                    && slot.klen as usize == key.len()
                    && &self.item(slot)[..key.len()] == key)
            {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the index. A slot keeps only half a hash, so each key is
    /// read back from the log and hashed again.
    fn grow_index(&mut self) {
        let old = std::mem::take(&mut self.index);
        self.index = vec![Slot::default(); old.len() * 2];
        for slot in old.into_iter().filter(|s| s.seg1 != 0) {
            let key = &self.item(slot)[..slot.klen as usize];
            let at = self.probe(key, key_hash(key));
            self.index[at] = slot;
        }
    }

    /// Acquires the lock at `now_ns` for `crit_ns`: the caller is
    /// charged the wait plus the critical section; the lock stays busy
    /// until the section ends.
    fn lock(&mut self, now_ns: u64, crit_ns: u64) -> u64 {
        let wait = self.lock_busy_until_ns.saturating_sub(now_ns);
        self.lock_busy_until_ns = now_ns.max(self.lock_busy_until_ns) + crit_ns;
        self.ops += 1;
        self.lock_wait_ns += wait;
        wait + crit_ns
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Segments in the log.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Key and value bytes appended to the log so far, overwritten
    /// items included.
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }
}

/// What one delivery came to: the CPU to charge for it, and whether the
/// stream turned out not to be the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Application CPU, lock waits included, virtual ns.
    pub charge_ns: u64,
    /// A header named a key or value beyond the protocol's limits: the
    /// connection is to be aborted and fed nothing further.
    pub rejected: bool,
}

/// One server thread's event handler.
pub struct KvServer {
    store: StoreRef,
    /// Fixed request-handling CPU outside the lock (parse, hash,
    /// response building).
    pub base_ns: u64,
    /// Response blocks, written in place and lent to TCP until acked.
    blocks: Blocks,
    /// Stream-reassembly spill buffers per connection cookie: an entry
    /// exists only while a request straddles delivery boundaries. The
    /// common case finds the map empty, parses the delivered view in
    /// place and never touches it.
    partial: FlowMap<Vec<u8>>,
    /// Drained spill buffers awaiting the next straddle.
    spare_spills: Spares<Vec<u8>>,
    /// Requests served by this thread.
    pub served: u64,
    /// Connections aborted for a key or value length beyond
    /// [`proto::MAX_KEY`] / [`proto::MAX_VALUE`].
    pub rejected: u64,
    /// Deliveries parsed entirely in place from the zero-copy `Bytes`
    /// view (the contiguous fast path — no byte was staged anywhere).
    pub inplace_parses: u64,
    /// Byte-copy passes into a spill buffer, taken only when a request
    /// genuinely straddles a delivery boundary.
    pub spill_copies: u64,
}

impl KvServer {
    /// Creates a handler over the shared store.
    pub fn new(store: StoreRef) -> KvServer {
        KvServer {
            store,
            base_ns: 1_300,
            blocks: Blocks::new(),
            partial: FlowMap::new(),
            spare_spills: Spares::new(),
            served: 0,
            rejected: 0,
            inplace_parses: 0,
            spill_copies: 0,
        }
    }

    /// The pool this thread's responses are built in.
    pub fn blocks(&self) -> &Blocks {
        &self.blocks
    }

    /// Connections with a partial request waiting in a spill buffer.
    pub fn spilled_conns(&self) -> usize {
        self.partial.len()
    }

    /// Parses and serves every complete request in `bytes`, passing each
    /// response to `write`; returns how many bytes were consumed, or
    /// `None` at a header beyond the protocol's limits — checked before
    /// anything is sized from it. `local_now` is the thread's *local*
    /// clock: the cycle start plus CPU it has already burned in this
    /// callback. Lock acquisitions use it so a batch of requests from
    /// one thread serializes once (its own compute), not quadratically
    /// against its own lock holds.
    fn serve(
        &mut self,
        bytes: &[u8],
        local_now: &mut u64,
        write: &mut impl FnMut(Bytes),
    ) -> Option<usize> {
        let mut consumed = 0usize;
        loop {
            let rest = &bytes[consumed..];
            let Some(h) = proto::decode_request_header(rest) else { break };
            if h.klen > proto::MAX_KEY || h.vlen > proto::MAX_VALUE {
                return None;
            }
            let total = h.total_len();
            if rest.len() < total {
                break;
            }
            let (key, val) = rest[proto::REQ_HDR..total].split_at(h.klen);
            *local_now += self.base_ns;
            self.served += 1;
            let rsp = match h.op {
                proto::OP_GET => {
                    let mut store = self.store.borrow_mut();
                    // The hit — or, so the wire traffic matches the
                    // workload without a pre-population phase, a filler
                    // of the length the client expects — is copied
                    // straight into the response block.
                    let (charge, hit) = store.get(*local_now, key);
                    *local_now += charge;
                    let vlen = hit.map_or(h.vlen, <[u8]>::len);
                    self.blocks.build(proto::RSP_HDR + vlen, |buf| {
                        let val = proto::write_response(buf, proto::ST_OK, h.seq);
                        match hit {
                            Some(hit) => val.copy_from_slice(hit),
                            None => val.fill(b'v'),
                        }
                    })
                }
                proto::OP_SET => {
                    // The store owns items beyond this delivery, so the
                    // value is copied into the store's log here.
                    // Keeping a view instead would pin the receive mbuf
                    // forever.
                    let charge = self.store.borrow_mut().set(*local_now, key, val);
                    *local_now += charge;
                    self.blocks.build(proto::RSP_HDR, |buf| {
                        proto::write_response(buf, proto::ST_OK, h.seq);
                    })
                }
                _ => self.blocks.build(proto::RSP_HDR, |buf| {
                    proto::write_response(buf, proto::ST_MISS, h.seq);
                }),
            };
            write(rsp);
            consumed += total;
        }
        Some(consumed)
    }

    /// Takes one delivery on connection `cookie` at `now_ns`: serves the
    /// requests it completes, passing each response to `write`, and
    /// keeps a trailing partial request for the next delivery.
    /// ([`LibixHandler::on_data`] is this plus the charge and the abort;
    /// it is public so tests can drive the parser without a network.)
    pub fn deliver(
        &mut self,
        cookie: u64,
        now_ns: u64,
        data: &[u8],
        mut write: impl FnMut(Bytes),
    ) -> Delivery {
        let mut local_now = now_ns;
        let spill = if self.partial.is_empty() { None } else { self.partial.remove(cookie) };
        let consumed = match spill {
            // Contiguous fast path: nothing buffered for this
            // connection, so requests parse directly from the delivered
            // view — in place, zero staging copies. Only a trailing
            // partial request (a genuine straddle) spills.
            None => {
                let consumed = self.serve(data, &mut local_now, &mut write);
                match consumed {
                    Some(n) if n < data.len() => {
                        self.spill_copies += 1;
                        let mut buf = self.spare_spills.take_or_make(Vec::new);
                        buf.extend_from_slice(&data[n..]);
                        self.partial.insert(cookie, buf);
                    }
                    Some(_) => self.inplace_parses += 1,
                    None => {}
                }
                consumed
            }
            // Straddle path: a request head is waiting in the spill
            // buffer; append this delivery and parse the reassembled
            // stream. A buffer that drains goes back to the spares, and
            // its entry with it.
            Some(mut buf) => {
                self.spill_copies += 1;
                buf.extend_from_slice(data);
                let consumed = self.serve(&buf, &mut local_now, &mut write);
                match consumed {
                    Some(n) if n < buf.len() => {
                        buf.drain(..n);
                        self.partial.insert(cookie, buf);
                    }
                    _ => {
                        buf.clear();
                        self.spare_spills.give(buf);
                    }
                }
                consumed
            }
        };
        self.rejected += consumed.is_none() as u64;
        Delivery { charge_ns: local_now - now_ns, rejected: consumed.is_none() }
    }
}

impl LibixHandler for KvServer {
    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        if ctx.conn.is_closing() {
            return; // Rejected earlier in this cycle.
        }
        let delivery = self.deliver(ctx.conn.cookie, ctx.now_ns, data, |rsp| {
            ctx.write(rsp);
        });
        ctx.charge(delivery.charge_ns);
        if delivery.rejected {
            ctx.abort();
        }
    }

    fn on_dead(&mut self, ctx: &mut ConnCtx<'_>, _reason: ix_tcp::DeadReason) {
        if let Some(mut buf) = self.partial.remove(ctx.conn.cookie) {
            buf.clear();
            self.spare_spills.give(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, WorkloadKind};

    #[test]
    fn lock_serializes_concurrent_ops() {
        let store = SharedStore::new();
        let mut s = store.borrow_mut();
        // Two GETs at the same instant: the second waits for the first.
        let (c1, _) = s.get(1_000, b"k");
        assert_eq!(c1, s.crit_get_ns);
        let (c2, _) = s.get(1_000, b"k");
        assert_eq!(c2, 2 * s.crit_get_ns);
        assert_eq!(s.lock_wait_ns, s.crit_get_ns);
        // A later op after the lock drained pays only the section.
        let (c3, _) = s.get(1_000_000, b"k");
        assert_eq!(c3, s.crit_get_ns);
    }

    #[test]
    fn set_then_get_roundtrip() {
        let store = SharedStore::new();
        let mut s = store.borrow_mut();
        s.set(0, b"alpha", b"12");
        assert_eq!(s.get(10_000, b"alpha").1, Some(&b"12"[..]));
        assert_eq!(s.get(10_000, b"alph").1, None);
        s.set(20_000, b"alpha", b"345");
        assert_eq!(s.get(30_000, b"alpha").1, Some(&b"345"[..]));
        assert_eq!((s.len(), s.segments(), s.log_bytes()), (1, 1, 15));
    }

    #[test]
    fn items_never_straddle_segments_and_long_ones_get_their_own() {
        let store = SharedStore::new();
        let mut s = store.borrow_mut();
        let val = vec![7u8; SEGMENT / 2];
        s.set(0, b"a", &val);
        s.set(0, b"b", &val); // one byte short of room: opens segment 2
        s.set(0, b"long", &vec![9u8; 3 * SEGMENT]);
        s.set(0, b"", b""); // after a full segment: opens segment 4
        s.set(0, b"c", b"d");
        assert_eq!((s.len(), s.segments()), (5, 4));
        assert_eq!(s.get(0, b"b").1, Some(&val[..]));
        assert_eq!(s.get(0, b"long").1.map(<[u8]>::len), Some(3 * SEGMENT));
        assert_eq!(s.get(0, b"").1, Some(&b""[..]));
        assert_eq!(s.get(0, b"c").1, Some(&b"d"[..]));
    }

    #[test]
    fn index_spreads_the_workloads_keys() {
        // ETC's keys differ in two low bytes and a length and are filler
        // otherwise: the hash has to spread exactly that. Linear probing
        // under three-quarters full sits a slot or so from home when it
        // does.
        let (workload, mut rng) = (Workload::new(WorkloadKind::Etc), ix_sim::SimRng::new(3));
        let store = SharedStore::new();
        let mut s = store.borrow_mut();
        let mut key = [0u8; 70];
        for _ in 0..40_000 {
            let op = workload.next_op(&mut rng);
            Workload::write_key(op.key, &mut key[..op.key_len]);
            s.set(0, &key[..op.key_len], b"");
        }
        let (mask, shift) = (s.index.len() - 1, 64 - s.index.len().ilog2());
        let from_home: usize = (0..s.index.len())
            .filter(|&at| s.index[at].seg1 != 0)
            .map(|at| {
                let slot = s.index[at];
                let home = (key_hash(&s.item(slot)[..slot.klen as usize]) >> shift) as usize;
                at.wrapping_sub(home) & mask
            })
            .sum();
        let keys = s.len();
        assert!(keys > 39_000 && from_home < 2 * keys, "{from_home} slots from home, {keys} keys");
    }

    /// One delivery to a fresh server; returns it, the store and the
    /// responses.
    fn deliver(data: &[u8]) -> (KvServer, StoreRef, Delivery, Vec<Bytes>) {
        let store = SharedStore::new();
        let mut server = KvServer::new(store.clone());
        let mut out = Vec::new();
        let delivery = server.deliver(1, 0, data, |rsp| out.push(rsp));
        (server, store, delivery, out)
    }

    #[test]
    fn get_miss_synthesizes_expected_size() {
        let get = proto::encode_request(proto::OP_GET, 9, b"missing", &[0; 500]);
        let (_, store, delivery, out) = deliver(&get);
        let filler = proto::encode_response(proto::ST_OK, 9, &[b'v'; 500]);
        assert_eq!(out, [Bytes::from(filler)], "traffic shape preserved on miss");
        assert!(store.borrow().is_empty(), "synthesized values are not stored");
        assert_eq!(delivery, Delivery { charge_ns: 1_300 + 60, rejected: false });
    }

    #[test]
    fn lengths_beyond_the_protocol_limits_are_rejected_unsized() {
        // A 15-byte GET header asking for a 4 GiB filler, and a SET
        // header promising a 4 GiB value: each after one good request.
        for op in [proto::OP_GET, proto::OP_SET] {
            let mut stream = proto::encode_request(proto::OP_SET, 1, b"k", b"v");
            stream.push(op);
            stream.extend_from_slice(&1u16.to_be_bytes());
            stream.extend_from_slice(&u32::MAX.to_be_bytes());
            stream.extend_from_slice(&2u64.to_be_bytes());
            stream.extend_from_slice(b"k-and-then-whatever-follows");
            let (mut server, store, delivery, out) = deliver(&stream);
            assert!(delivery.rejected);
            assert_eq!((server.rejected, server.served, out.len()), (1, 1, 1));
            assert_eq!((store.borrow().len(), server.spilled_conns()), (1, 0), "nothing kept");
            // Other connections are served as before.
            let ok = proto::encode_request(proto::OP_GET, 3, b"k", b"?");
            let hit = |rsp: Bytes| assert_eq!(&rsp[proto::RSP_HDR..], b"v");
            assert!(!server.deliver(2, 0, &ok, hit).rejected);
        }
        let long_key = proto::encode_request(proto::OP_GET, 1, &[b'k'; proto::MAX_KEY + 1], &[]);
        assert!(deliver(&long_key).2.rejected);
        // The limits themselves are served, the header alone is enough
        // to reject, and a spill that turns bad is dropped.
        let at_limit = proto::encode_request(proto::OP_GET, 1, &[b'k'; proto::MAX_KEY], &[0; 16]);
        assert!(!deliver(&at_limit).2.rejected);
        let (mut server, _, delivery, _) = deliver(&long_key[..proto::REQ_HDR - 1]);
        assert_eq!((delivery.rejected, server.spilled_conns()), (false, 1));
        let last_header_byte = &long_key[proto::REQ_HDR - 1..proto::REQ_HDR];
        assert!(server.deliver(1, 0, last_header_byte, |_| ()).rejected);
        assert_eq!((server.rejected, server.spilled_conns()), (1, 0));
    }

    #[test]
    fn a_drained_spill_buffer_leaves_no_entry() {
        let store = SharedStore::new();
        let mut server = KvServer::new(store);
        let req = proto::encode_request(proto::OP_SET, 1, b"key", &[b'w'; 40]);
        let mut served = 0;
        // A straddle: the request in two deliveries.
        for half in [&req[..20], &req[20..]] {
            server.deliver(7, 0, half, |_| served += 1);
        }
        assert_eq!((served, server.spill_copies, server.inplace_parses), (1, 2, 0));
        assert_eq!(server.spilled_conns(), 0, "the drained buffer's entry is gone");
        // Whole deliveries are parsed in place again, on that connection
        // and any other.
        for cookie in [7, 8, 7] {
            server.deliver(cookie, 0, &req, |_| served += 1);
        }
        assert_eq!((served, server.spill_copies, server.inplace_parses), (4, 2, 3));
        // The next straddle reuses the buffer.
        server.deliver(8, 0, &req[..30], |_| served += 1);
        assert_eq!((served, server.spilled_conns()), (4, 1));
    }

    #[test]
    fn sets_contend_harder_than_gets() {
        let store = SharedStore::new();
        let s = store.borrow();
        assert!(s.crit_set_ns > 4 * s.crit_get_ns);
    }
}
