//! The key-value round trip the correctness and fault suites share: a
//! SET through one connection, a GET of the same key through a second,
//! an IX memcached server and one Linux-model client on the §5.1
//! [`Testbed`].

use std::cell::RefCell;
use std::rc::Rc;

use ix::apps::harness::{EngineTuning, System, Testbed};
use ix::apps::kvstore::{KvServer, SharedStore, StoreRef};
use ix::apps::workload::proto;
use ix::core::libix::{ConnCtx, LibixCtx, LibixHandler};
use ix::sim::Nanos;
use ix::testkit::Bytes;

/// The memcached port.
pub const KV_PORT: u16 = 11211;

/// Issues SET(key)=payload, then GET(key) on a second connection, and
/// records the value the GET returned.
pub struct SetGetClient {
    server: ix::net::Ipv4Addr,
    payload: Vec<u8>,
    phase: u8,
    rx: Vec<u8>,
    got: Rc<RefCell<Option<Vec<u8>>>>,
    started: bool,
}

impl LibixHandler for SetGetClient {
    fn on_tick(&mut self, ctx: &mut LibixCtx<'_>) {
        if !self.started {
            self.started = true;
            ctx.connect(self.server, KV_PORT, 0);
        }
    }

    fn on_connected(&mut self, ctx: &mut ConnCtx<'_>, ok: bool) {
        assert!(ok);
        let (op, seq) = if self.phase == 0 { (proto::OP_SET, 1) } else { (proto::OP_GET, 2) };
        let req = proto::encode_request(op, seq, b"the-key", &self.payload);
        ctx.write(Bytes::from(req));
    }

    fn on_data(&mut self, ctx: &mut ConnCtx<'_>, data: &Bytes) {
        self.rx.extend_from_slice(data);
        let Some(h) = proto::decode_response_header(&self.rx) else { return };
        if self.rx.len() < h.total_len() {
            return;
        }
        assert_eq!(h.status, proto::ST_OK);
        let body = self.rx[proto::RSP_HDR..h.total_len()].to_vec();
        self.rx.clear();
        if self.phase == 0 {
            // SET acknowledged; reconnect for the GET so the value
            // crosses connections (and very likely server threads).
            self.phase = 1;
            ctx.close();
            self.started = false;
        } else {
            *self.got.borrow_mut() = Some(body);
            ctx.close();
        }
    }

    fn wants_tick(&self, _now: u64) -> bool {
        !self.started
    }
}

/// Runs SET then GET of `payload` for `run_ms` against a 4-thread IX
/// memcached server, after `faults` has had the testbed (to install a
/// fault plan before anything launches). Returns what the GET read, if
/// it completed, and the server's store.
pub fn set_then_get(
    seed: u64,
    tuning: &EngineTuning,
    faults: impl FnOnce(&mut Testbed),
    payload: &[u8],
    run_ms: u64,
) -> (Option<Vec<u8>>, StoreRef) {
    let mut tb = Testbed::new(seed, 1, 1);
    faults(&mut tb);
    let store = SharedStore::new();
    tb.launch_server(System::Ix, 4, tuning, KV_PORT, |_| KvServer::new(store.clone()));
    let server = tb.server_ip();
    let got = Rc::new(RefCell::new(None));
    tb.launch_client(tb.clients[0], System::Linux, 1, tuning, |_| SetGetClient {
        server,
        payload: payload.to_vec(),
        phase: 0,
        rx: Vec::new(),
        got: got.clone(),
        started: false,
    });
    tb.run_until_ns(Nanos::from_millis(run_ms).as_nanos());
    let got = got.borrow().clone();
    (got, store)
}
